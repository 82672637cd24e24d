"""Persistent, content-addressed result store with eviction.

Diagnosis answers are a pure function of ``(topology, syndrome)`` — the
algorithm is deterministic and the service regenerates seeded syndromes
bit-identically — so results are filed under the content address
``(topology key, syndrome digest)`` in a small SQLite database, the digest
being :func:`~repro.service.requests.syndrome_digest`'s scheme-tagged
SHA-256 of the buffer's canonical sparse-or-dense form.  A second table
indexes canonical *request keys*
(:func:`~repro.service.requests.request_key`) onto those addresses, so a
repeated seeded request is recognised and served from disk **without**
building its topology or regenerating its syndrome; two different request
forms that hash to the same syndrome dedup onto one stored row.

A long-lived serving store must not grow without bound, so every result row
carries a ``last_used`` stamp (refreshed on each hit) and the store enforces
two optional policies at batch-commit time:

* ``ttl_seconds`` — rows idle longer than the TTL are swept;
* ``max_rows`` — the row count is capped, evicting least-recently-used rows
  (by ``last_used``) until the bound holds.

Eviction runs inside the batch's transaction: one commit covers the new
rows *and* whatever they pushed out, and a restart re-enforces the policy
against whatever the previous process left behind.

The rows are recomputable caches, so the store never migrates them.  The
schema carries one :data:`REVISION`, kept in SQLite's ``user_version``; a
database below it (an older schema, or rows under an older digest scheme)
opens empty, with both tables dropped and recreated, and a change to the
schema, the digest scheme or the payload bumps the constant.

SQLite is the storage engine because it is in the standard library, it is
crash-safe, and a service restart keeps its accumulated answers — the store
is the only part of the serving layer that outlives the process.  On-disk
stores run in WAL journal mode with a busy timeout, so an HTTP frontend's
event loop never blocks behind a concurrent reader (a stats probe, a second
service instance) holding the database.  Durability is SQLite's default
``synchronous=FULL``, left unset on purpose: every batch commit is one WAL
sync, so a committed answer survives a power loss.  The rows are
recomputable caches, so ``NORMAL`` (a sync per checkpoint only) would lose
nothing that matters, but it was measured and does not pay: over 6
order-alternated perfbench ``seeded_mix`` pairs on a 2-CPU Linux host it
moved p50 latency by -3% but p99 by +10% and peak RSS by +5%, so FULL
stays.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Callable

from .requests import DiagnosisRequest, DiagnosisResponse

__all__ = ["REVISION", "ResultStore"]

#: The schema revision ``user_version`` records: 1 is scheme-tagged digests
#: with ``last_used`` stamps.
REVISION = 1

_SCHEMA = f"""
BEGIN;
DROP TABLE IF EXISTS results;
DROP TABLE IF EXISTS request_index;
CREATE TABLE results (
    topology_key    TEXT NOT NULL,
    syndrome_digest TEXT NOT NULL,
    payload         TEXT NOT NULL,
    last_used       REAL NOT NULL DEFAULT 0,
    PRIMARY KEY (topology_key, syndrome_digest)
);
CREATE TABLE request_index (
    request_key     TEXT PRIMARY KEY,
    topology_key    TEXT NOT NULL,
    syndrome_digest TEXT NOT NULL
);
CREATE INDEX results_last_used ON results (last_used);
PRAGMA user_version = {REVISION};
COMMIT;
"""


class ResultStore:
    """SQLite-backed content-addressed store of diagnosis responses.

    ``path`` may be a filesystem path (persists across service restarts) or
    ``":memory:"`` for an ephemeral store with identical semantics (tests,
    one-shot load runs).  ``ttl_seconds``/``max_rows`` bound the store (see
    the module docstring); ``clock`` injects a time source for tests.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        *,
        ttl_seconds: float | None = None,
        max_rows: int | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None)")
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be at least 1 (or None)")
        self.path = str(path)
        self.ttl_seconds = ttl_seconds
        self.max_rows = max_rows
        self._clock = clock
        self._conn = sqlite3.connect(self.path)
        if self.path != ":memory:":
            # WAL lets readers proceed during a commit (and vice versa), and
            # the busy timeout turns a briefly-locked database into a short
            # wait instead of an exception on the serving path.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=5000")
        self._migrate()
        self._conn.commit()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.dedup_writes = 0
        self.expired_evictions = 0
        self.lru_evictions = 0
        self.clock_skew_skips = 0
        # A fresh process enforces the policy against inherited rows at
        # once — a bound is a property of the store, not of one run.
        if ttl_seconds is not None or max_rows is not None:
            self.evict()

    def _migrate(self) -> None:
        """Open the tables at :data:`REVISION`.  A database below it is
        reset: both tables dropped and recreated, empty, then stamped, in
        one transaction."""
        (revision,) = self._conn.execute("PRAGMA user_version").fetchone()
        if revision < REVISION:
            self._conn.executescript(_SCHEMA)

    # ----------------------------------------------------------------- writes
    def put(self, request: DiagnosisRequest, response: DiagnosisResponse) -> None:
        """File a computed response under its content address (idempotent).

        Failed diagnoses are stored too — the error is as deterministic as
        the answer, and re-serving it from disk skips re-running a doomed
        probe search.
        """
        self.put_many([(request, response)])

    def put_many(
        self, pairs: list[tuple[DiagnosisRequest, DiagnosisResponse]]
    ) -> None:
        """File a whole batch — and enforce eviction — in **one** transaction.

        The service stores per batch, not per response: a disk-backed store
        then costs one commit (one fsync-class stall on the event loop) per
        dispatched batch instead of one per request.

        Responses without a syndrome digest are skipped: a request that
        failed before its syndrome existed (bad explicit buffer, impossible
        fault count) has no content address, and filing every such failure
        under the empty digest would make them collide onto one row.
        """
        now = self._clock()
        for request, response in pairs:
            if not response.syndrome_digest:
                continue
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO results "
                "(topology_key, syndrome_digest, payload, last_used) "
                "VALUES (?, ?, ?, ?)",
                (response.topology_key, response.syndrome_digest,
                 response.to_payload(), now),
            )
            if cursor.rowcount:
                self.writes += 1
            else:
                self.dedup_writes += 1
                self._conn.execute(
                    "UPDATE results SET last_used = ? "
                    "WHERE topology_key = ? AND syndrome_digest = ?",
                    (now, response.topology_key, response.syndrome_digest),
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO request_index "
                "(request_key, topology_key, syndrome_digest) VALUES (?, ?, ?)",
                (request.key, response.topology_key,
                 response.syndrome_digest),
            )
        self.evict(now=now, commit=False)
        self._conn.commit()

    # --------------------------------------------------------------- eviction
    def evict(self, *, now: float | None = None, commit: bool = True) -> int:
        """Apply the TTL sweep and the LRU row bound; returns rows evicted.

        Runs automatically at batch-commit time (and once at open); callable
        directly for an explicit sweep.  :meth:`put_many` passes
        ``commit=False`` so eviction rides the batch transaction; a direct
        call commits its own deletions.
        """
        evicted = 0
        if now is None:
            now = self._clock()
        if self.ttl_seconds is not None:
            # Clock-regression clamp: ``last_used`` stamps come from the wall
            # clock, and a backwards step (NTP correction, VM migration) can
            # leave rows stamped *after* ``now``.  Idleness is then
            # uncomputable — a row that looks ttl-old may have been written
            # moments ago around the step — so if the newest stamp is in
            # now's future the whole sweep is skipped (and counted) rather
            # than mass-expiring fresh rows.  The LRU bound below is
            # order-based, not age-based, and stays in force.
            newest = self._conn.execute(
                "SELECT MAX(last_used) FROM results"
            ).fetchone()[0]
            if newest is not None and now < newest:
                self.clock_skew_skips += 1
            else:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE last_used < ?",
                    (now - self.ttl_seconds,),
                )
                self.expired_evictions += cursor.rowcount
                evicted += cursor.rowcount
        if self.max_rows is not None:
            over = len(self) - self.max_rows
            if over > 0:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE rowid IN ("
                    "  SELECT rowid FROM results "
                    "  ORDER BY last_used ASC, rowid ASC LIMIT ?)",
                    (over,),
                )
                self.lru_evictions += cursor.rowcount
                evicted += cursor.rowcount
        if evicted:
            # Index entries pointing at evicted rows are dead weight; an
            # orphaned key would count a *hit* on a result that is gone.
            self._conn.execute(
                "DELETE FROM request_index WHERE NOT EXISTS ("
                "  SELECT 1 FROM results r "
                "  WHERE r.topology_key = request_index.topology_key "
                "  AND r.syndrome_digest = request_index.syndrome_digest)"
            )
        if commit:
            self._conn.commit()
        return evicted

    # ---------------------------------------------------------------- lookups
    def get(self, request: DiagnosisRequest) -> DiagnosisResponse | None:
        """The stored response for a request, or ``None`` (counts hit/miss).

        Under an eviction policy a hit refreshes the row's ``last_used``
        stamp — "least recently used" means used, not written.  An unbounded
        store skips the refresh: the stamp would never be consulted, and the
        write-plus-commit per hit is exactly the per-response stall the
        batch-commit design avoids.
        """
        row = self._conn.execute(
            "SELECT r.payload, r.topology_key, r.syndrome_digest "
            "FROM request_index i "
            "JOIN results r ON r.topology_key = i.topology_key "
            "AND r.syndrome_digest = i.syndrome_digest "
            "WHERE i.request_key = ?",
            (request.key,),
        ).fetchone()
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.ttl_seconds is not None or self.max_rows is not None:
            self._conn.execute(
                "UPDATE results SET last_used = ? "
                "WHERE topology_key = ? AND syndrome_digest = ?",
                (self._clock(), row[1], row[2]),
            )
            self._conn.commit()
        return DiagnosisResponse.from_payload(row[0])

    def get_by_digest(self, topology_key: str, digest: str) -> DiagnosisResponse | None:
        """Content-address lookup (no hit/miss accounting — internal probes)."""
        row = self._conn.execute(
            "SELECT payload FROM results WHERE topology_key = ? AND syndrome_digest = ?",
            (topology_key, digest),
        ).fetchone()
        return None if row is None else DiagnosisResponse.from_payload(row[0])

    # ------------------------------------------------------------- management
    def __len__(self) -> int:
        """Number of distinct stored results."""
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def request_count(self) -> int:
        """Number of indexed request keys (>= len: many keys, one result)."""
        return self._conn.execute("SELECT COUNT(*) FROM request_index").fetchone()[0]

    def stats(self) -> dict:
        return {
            "path": self.path,
            "results": len(self),
            "request_keys": self.request_count(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "dedup_writes": self.dedup_writes,
            "ttl_seconds": self.ttl_seconds,
            "max_rows": self.max_rows,
            "expired_evictions": self.expired_evictions,
            "lru_evictions": self.lru_evictions,
            "clock_skew_skips": self.clock_skew_skips,
        }

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
