"""Result store: content addressing, request indexing, persistence, eviction."""

from __future__ import annotations

import pytest

from repro.service.requests import DiagnosisRequest, DiagnosisResponse
from repro.service.store import ResultStore


class FakeClock:
    """Deterministic injectable time source for eviction tests."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _request(seed: int = 0, family: str = "hypercube") -> DiagnosisRequest:
    return DiagnosisRequest.seeded(family, {"dimension": 5}, seed=seed)


def _digest(char: str) -> str:
    """A stand-in digest in the current scheme-tagged form."""
    return f"sparse-sha256:{char * 64}"


def _response(digest: str = _digest("d"), faulty=(3, 9)) -> DiagnosisResponse:
    return DiagnosisResponse(
        topology_key="hypercube[dimension=5]",
        syndrome_digest=digest,
        faulty=tuple(faulty),
        healthy_root=0,
        lookups=42,
        num_probes=2,
        partition_level=0,
    )


class TestRoundtrip:
    def test_put_get(self):
        with ResultStore() as store:
            request = _request()
            assert store.get(request) is None
            store.put(request, _response())
            served = store.get(request)
            assert served is not None
            assert served.faulty == (3, 9)
            assert served.source == "store"
            assert served.lookups == 42
            assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_error_responses_roundtrip(self):
        with ResultStore() as store:
            request = _request()
            failure = DiagnosisResponse(
                topology_key=request.topology_key,
                syndrome_digest=_digest("e"),
                faulty=(),
                healthy_root=None,
                lookups=7,
                num_probes=3,
                partition_level=None,
                error="DiagnosisError: no certificate",
            )
            store.put(request, failure)
            served = store.get(request)
            assert not served.ok
            assert served.error == failure.error

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "results.db"
        with ResultStore(path) as store:
            store.put(_request(), _response())
        with ResultStore(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get(_request()).faulty == (3, 9)


class TestDedup:
    def test_identical_content_stored_once(self):
        with ResultStore() as store:
            # Two distinct request keys whose syndromes hash identically
            # (e.g. different placements producing the same fault set).
            store.put(_request(seed=1), _response())
            store.put(_request(seed=2), _response())
            assert len(store) == 1
            assert store.request_count() == 2
            assert store.dedup_writes == 1
            assert store.get(_request(seed=2)).faulty == (3, 9)

    def test_get_by_digest(self):
        with ResultStore() as store:
            store.put(_request(), _response(digest=_digest("a")))
            assert store.get_by_digest("hypercube[dimension=5]", _digest("a")) is not None
            assert store.get_by_digest("hypercube[dimension=5]", _digest("b")) is None

    def test_put_many_is_one_visible_batch(self):
        with ResultStore() as store:
            store.put_many([
                (_request(seed=1), _response(digest=_digest("a"), faulty=(1,))),
                (_request(seed=2), _response(digest=_digest("b"), faulty=(2,))),
            ])
            assert len(store) == 2
            assert store.writes == 2
            assert store.get(_request(seed=1)).faulty == (1,)
            assert store.get(_request(seed=2)).faulty == (2,)

    def test_stats_shape(self):
        with ResultStore() as store:
            store.put(_request(), _response())
            stats = store.stats()
            assert stats["results"] == 1
            assert stats["request_keys"] == 1
            assert stats["writes"] == 1
            assert stats["ttl_seconds"] is None
            assert stats["max_rows"] is None
            assert stats["expired_evictions"] == 0
            assert stats["lru_evictions"] == 0


class TestEviction:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="ttl_seconds"):
            ResultStore(ttl_seconds=0)
        with pytest.raises(ValueError, match="max_rows"):
            ResultStore(max_rows=0)

    def test_row_bound_evicts_least_recently_used(self):
        clock = FakeClock()
        with ResultStore(max_rows=3, clock=clock) as store:
            for seed, digest in enumerate("abcd"):
                clock.advance(1)
                store.put(_request(seed), _response(digest=_digest(digest)))
            assert len(store) == 3
            assert store.lru_evictions == 1
            # "a" was least recently used: its request now misses.
            assert store.get(_request(0)) is None
            assert store.get(_request(3)) is not None
            # The orphaned index entry went with the row.
            assert store.request_count() == 3

    def test_hits_refresh_last_used(self):
        """LRU means least recently *used*: a read protects a row."""
        clock = FakeClock()
        with ResultStore(max_rows=2, clock=clock) as store:
            store.put(_request(0), _response(digest=_digest("a")))
            clock.advance(1)
            store.put(_request(1), _response(digest=_digest("b")))
            clock.advance(1)
            assert store.get(_request(0)) is not None  # refresh row "a"
            clock.advance(1)
            store.put(_request(2), _response(digest=_digest("c")))
            assert store.get(_request(0)) is not None  # survived: "b" went
            misses_before = store.misses
            assert store.get(_request(1)) is None
            assert store.misses == misses_before + 1

    def test_ttl_sweeps_idle_rows_at_commit_time(self):
        clock = FakeClock()
        with ResultStore(ttl_seconds=10, clock=clock) as store:
            store.put(_request(0), _response(digest=_digest("a")))
            clock.advance(5)
            store.put(_request(1), _response(digest=_digest("b")))
            clock.advance(8)  # row "a" idle 13 s > TTL; "b" idle 8 s
            store.put(_request(2), _response(digest=_digest("c")))
            assert len(store) == 2
            assert store.expired_evictions == 1
            assert store.get(_request(0)) is None
            assert store.get(_request(1)) is not None

    def test_explicit_evict_sweep_commits_and_persists(self, tmp_path):
        path = tmp_path / "results.db"
        clock = FakeClock()
        with ResultStore(path, ttl_seconds=10, clock=clock) as store:
            store.put(_request(0), _response(digest=_digest("a")))
            clock.advance(60)
            assert store.evict() == 1
            assert len(store) == 0
        # The direct sweep committed: it survives the close (no rollback).
        with ResultStore(path, clock=clock) as reopened:
            assert len(reopened) == 0

    def test_dedup_rewrite_refreshes_last_used(self):
        """Recomputing a stored result counts as use, not a no-op."""
        clock = FakeClock()
        with ResultStore(max_rows=2, clock=clock) as store:
            store.put(_request(0), _response(digest=_digest("a")))
            clock.advance(1)
            store.put(_request(1), _response(digest=_digest("b")))
            clock.advance(1)
            store.put(_request(5), _response(digest=_digest("a")))  # dedup onto "a"
            clock.advance(1)
            store.put(_request(2), _response(digest=_digest("c")))
            assert store.get_by_digest("hypercube[dimension=5]", _digest("a")) is not None
            assert store.get_by_digest("hypercube[dimension=5]", _digest("b")) is None

    def test_restart_enforces_bound_against_inherited_rows(self, tmp_path):
        """The acceptance case: a bound holds across restarts, and unexpired
        repeats still serve from disk."""
        path = tmp_path / "results.db"
        clock = FakeClock()
        with ResultStore(path, clock=clock) as store:  # unbounded writer
            for seed, digest in enumerate("abcdef"):
                clock.advance(1)
                store.put(_request(seed), _response(digest=_digest(digest)))
            assert len(store) == 6
        with ResultStore(path, max_rows=2, clock=clock) as bounded:
            assert len(bounded) == 2  # enforced at open, before any write
            assert bounded.lru_evictions == 4
            assert bounded.get(_request(5)) is not None  # most recent survived
            assert bounded.get(_request(0)) is None
            clock.advance(1)
            bounded.put(_request(9), _response(digest=_digest("f")))
            assert len(bounded) <= 2

    def test_a_database_below_the_revision_opens_empty_and_stamped(self, tmp_path):
        """A pre-eviction schema (no ``last_used``) and the current schema
        without a revision stamp each hold one current-scheme row; both open
        empty and stamped.  A stamped store keeps its rows across reopen."""
        import sqlite3

        from repro.service.store import REVISION

        last_used = " last_used REAL NOT NULL DEFAULT 0,"
        for name, column in (("pre-eviction.db", ""), ("unstamped.db", last_used)):
            path = tmp_path / name
            conn = sqlite3.connect(path)
            conn.executescript(
                "CREATE TABLE results ("
                " topology_key TEXT NOT NULL, syndrome_digest TEXT NOT NULL,"
                f" payload TEXT NOT NULL,{column}"
                " PRIMARY KEY (topology_key, syndrome_digest));"
                "CREATE TABLE request_index ("
                " request_key TEXT PRIMARY KEY, topology_key TEXT NOT NULL,"
                " syndrome_digest TEXT NOT NULL);"
            )
            conn.execute(
                "INSERT INTO results (topology_key, syndrome_digest, payload)"
                " VALUES (?, ?, ?)",
                ("hypercube[dimension=5]", _digest("a"),
                 _response(digest=_digest("a")).to_payload()),
            )
            conn.execute(
                "INSERT INTO request_index VALUES (?, ?, ?)",
                (_request(0).key, "hypercube[dimension=5]", _digest("a")),
            )
            conn.commit()
            conn.close()
            with ResultStore(path) as store:
                assert len(store) == 0 and store.request_count() == 0, name
                version = store._conn.execute("PRAGMA user_version").fetchone()[0]
                assert version == REVISION
                store.put(_request(0), _response(_digest("a")))
            with ResultStore(path) as store:
                assert len(store) == 1 and store.get(_request(0)) is not None

    def test_unbounded_store_hits_do_not_write(self, tmp_path):
        """No eviction policy: a hit is read-only (no per-hit commit stall)."""
        calls = []
        with ResultStore(clock=lambda: calls.append(1) or 1000.0) as store:
            store.put(_request(0), _response())
            writes_before = len(calls)
            assert store.get(_request(0)) is not None
            assert len(calls) == writes_before  # clock untouched: no stamp

    def test_on_disk_store_uses_wal(self, tmp_path):
        with ResultStore(tmp_path / "results.db") as store:
            mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            timeout = store._conn.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout == 5000


class TestDigestUpgrade:
    """A store written before scheme-tagged digests opens clean.

    Seeded request keys did not change, so an inherited row would answer a
    seeded request with a bare-hex digest no computation produces any
    more, while the explicit form of the same syndrome (whose key did
    change) would miss it and file a duplicate.  Such a database is below
    the store's revision, so it opens empty.
    """

    PARAMS = {"dimension": 5}

    def _requests(self):
        from repro.backend.array_syndrome import ArraySyndrome
        from repro.core.faults import random_faults
        from repro.networks.registry import create_network

        seeded = DiagnosisRequest.seeded("hypercube", self.PARAMS, seed=17)
        network = create_network("hypercube", **self.PARAMS)
        faults = random_faults(network, network.diagnosability(), seed=17)
        syndrome = ArraySyndrome.from_faults(network, faults, seed=17)
        explicit = DiagnosisRequest.from_syndrome("hypercube", self.PARAMS, syndrome)
        return seeded, explicit, bytes(syndrome.buffer)

    def _old_database(self, path, clock) -> tuple:
        """The tables as the dense-digest code left them: the syndrome's
        row under its bare-hex digest, indexed by both request forms, plus
        filler rows of other syndromes."""
        import hashlib
        import sqlite3

        seeded, explicit, raw = self._requests()
        old = hashlib.sha256(raw).hexdigest()
        topology = seeded.topology_key
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE results ("
            " topology_key TEXT NOT NULL, syndrome_digest TEXT NOT NULL,"
            " payload TEXT NOT NULL, last_used REAL NOT NULL DEFAULT 0,"
            " PRIMARY KEY (topology_key, syndrome_digest));"
            "CREATE TABLE request_index ("
            " request_key TEXT PRIMARY KEY, topology_key TEXT NOT NULL,"
            " syndrome_digest TEXT NOT NULL);"
        )
        rows = [(old, seeded.key), (old, f"{topology}|sha256:{old}")]
        rows += [("%064x" % seed, f"filler-{seed}") for seed in range(5)]
        for digest, key in rows:
            conn.execute(
                "INSERT OR IGNORE INTO results VALUES (?, ?, ?, ?)",
                (topology, digest, _response(digest=digest).to_payload(), clock()),
            )
            conn.execute(
                "INSERT INTO request_index VALUES (?, ?, ?)", (key, topology, digest)
            )
        conn.commit()
        conn.close()
        return seeded, explicit, old

    def test_old_rows_are_never_served(self, tmp_path):
        import asyncio

        from repro.service import DiagnosisService

        path = tmp_path / "parent.db"
        clock = FakeClock()
        seeded, explicit, old = self._old_database(path, clock)
        with ResultStore(path, max_rows=3, ttl_seconds=100, clock=clock) as store:
            assert len(store) == 0 and store.request_count() == 0

            async def serve(request):
                async with DiagnosisService(store=store) as service:
                    return await service.submit(request)

            first = asyncio.run(serve(seeded))
            second = asyncio.run(serve(explicit))
            assert first.source == second.source == "computed"
            assert first.syndrome_digest == second.syndrome_digest != old
            assert first.syndrome_digest.partition(":")[0] in (
                "sparse-sha256", "dense-sha256"
            )
            # Both forms file onto one row, and each is now a store hit.
            assert len(store) == 1 and store.request_count() == 2
            assert store.dedup_writes == 1
            assert asyncio.run(serve(seeded)).source == "store"
            assert asyncio.run(serve(explicit)).source == "store"
            # The bounds still hold on the upgraded store.
            for char in "abcd":
                clock.advance(1)
                store.put(_request(seed=10 + ord(char)), _response(_digest(char)))
            assert len(store) == 3 and store.lru_evictions == 2
            clock.advance(101)
            assert store.evict() == 3 and len(store) == 0

    def test_reopening_keeps_current_rows(self, tmp_path):
        path = tmp_path / "current.db"
        with ResultStore(path) as store:
            store.put(_request(0), _response(_digest("a")))
        with ResultStore(path) as store:
            assert len(store) == 1 and store.get(_request(0)) is not None


class TestClockRegression:
    """A backwards wall-clock step must not mass-expire fresh rows.

    Regression: ``last_used`` stamps come from the wall clock.  If the clock
    steps forward (row stamped at t=2000), then corrects back (now=1500), a
    row written moments ago at t=1000 looks 500 s idle and a TTL of 100
    would sweep it — though in real time it is seconds old.  The sweep is
    skipped (and counted) whenever the newest stamp is in now's future.
    """

    def test_backwards_step_skips_the_ttl_sweep(self):
        clock = FakeClock(start=1_000.0)
        with ResultStore(ttl_seconds=100, clock=clock) as store:
            store.put_many([
                (_request(0), _response(_digest("a"))),
                (_request(1), _response(_digest("b"))),
            ])  # both stamped 1000
            clock.advance(1_000)  # forward-stepped clock
            store.get(_request(1))  # hit refreshes b's stamp to 2000
            clock.now = 1_500.0  # correction: now < newest stamp
            # Without the clamp the sweep would expire row "a"
            # (stamp 1000 < 1500 - 100) though it is minutes old in real time.
            assert store.evict() == 0
            assert len(store) == 2  # both rows survive
            assert store.stats()["clock_skew_skips"] == 1
            assert store.stats()["expired_evictions"] == 0

    def test_sweep_resumes_once_the_clock_catches_up(self):
        clock = FakeClock(start=1_000.0)
        with ResultStore(ttl_seconds=100, clock=clock) as store:
            store.put_many([
                (_request(0), _response(_digest("a"))),
                (_request(1), _response(_digest("b"))),
            ])
            clock.advance(1_000)
            store.get(_request(1))  # b stamped 2000
            clock.now = 1_500.0
            store.evict()  # skipped (skew)
            clock.now = 2_200.0  # past the newest stamp again
            assert store.evict() == 2  # both now genuinely idle > TTL
            assert len(store) == 0
            assert store.stats()["clock_skew_skips"] == 1

    def test_skew_skip_does_not_disable_the_lru_bound(self):
        clock = FakeClock(start=1_000.0)
        with ResultStore(ttl_seconds=100, max_rows=2, clock=clock) as store:
            store.put_many([
                (_request(0), _response(_digest("a"))),
                (_request(1), _response(_digest("b"))),
            ])
            clock.advance(2_000)
            store.get(_request(1))  # b stamped 3000
            clock.now = 1_500.0  # skewed: TTL sweep disabled...
            store.put(_request(2), _response(_digest("c")))
            # ...but the order-based row bound still holds and picks the
            # oldest stamp ("a" at 1000) as the LRU victim.
            assert len(store) == 2
            assert store.get_by_digest(
                "hypercube[dimension=5]", _digest("a")) is None
            stats = store.stats()
            assert stats["lru_evictions"] == 1
            assert stats["clock_skew_skips"] >= 1

    def test_same_batch_stamps_do_not_count_as_skew(self):
        clock = FakeClock(start=1_000.0)
        with ResultStore(ttl_seconds=100, clock=clock) as store:
            store.put_many([
                (_request(0), _response(_digest("a"))),
                (_request(1), _response(_digest("b"))),
            ])
            # evict() ran inside put_many with now == the stamps (not <).
            assert store.stats()["clock_skew_skips"] == 0
            clock.advance(200)
            assert store.evict() == 2  # normal forward TTL still works
