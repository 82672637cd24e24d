"""Native root-search probes and bulk faulty-tester coins.

``probe_plan`` (``_stacked.c``) runs the healthy-root search's probes in
place of the rows oracle, a whole plan per call, and ``seeded_build`` keeps
CPython's ``randint(0, 1)`` answers from bulk-drawn generator words in place
of one ``rng.randint(0, 1)`` per faulty-tester pair.  Both are pure speedups: the
probe records, roots, levels, lookup counters and syndrome bytes they
produce must equal the rows oracle's and the per-call coins' exactly, which
this module pins on every registry family.  The native probes read seeded
syndromes in mask mode; the oracle reads their buffers.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import CSRAdjacency, compile_network
from repro.core import native
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser, _ProbeLevel
from repro.core.faults import clustered_faults, random_faults, spread_faults
from repro.core.set_builder import (
    ProbePlan,
    certificate_node_budget,
    run_probe_plan,
    set_builder,
)
from repro.core.syndrome import FaultyTesterBehavior
from repro.networks.base import PartitionClass
from repro.networks.hypercube import Hypercube

from ..conftest import cached_network, probe_level

needs_native = pytest.mark.skipif(
    not native.native_kernel_active(), reason="no C compiler available"
)

PLACEMENTS = (random_faults, clustered_faults, spread_faults)


def _syndromes(network):
    """Every behaviour × placement × |F| ∈ {0, 1, δ} syndrome of a family."""
    csr = compile_network(network)
    delta = network.diagnosability()
    for placement in PLACEMENTS:
        for count in sorted({0, 1, delta}):
            seed = 7 * count + 2
            faults = placement(network, count, seed=seed) if count else set()
            for behavior in FaultyTesterBehavior.NAMES:
                yield ArraySyndrome.from_faults(
                    csr, faults, behavior=behavior, seed=seed
                )


def _oracle(network, syndrome, u0, delta, restrict=None, max_nodes=None):
    result = set_builder(
        network, syndrome, u0, diagnosability=delta, restrict=restrict,
        max_nodes=max_nodes, stop_on_certificate=True,
    )
    return [result.size, result.lookups, int(result.all_healthy),
            int(result.truncated), result.rounds]


def _starts(level):
    return [cls.representative for cls in level.classes]


def _native(csr, syndrome, starts, delta, **kwargs):
    return probe_level(csr, syndrome, starts, delta, **kwargs).tolist()


@needs_native
class TestProbeKernelMatchesRowsOracle:
    def test_every_family_behaviour_placement_and_run_kind(self, tiny_network):
        csr = compile_network(tiny_network)
        delta = tiny_network.diagnosability()
        diagnoser = GeneralDiagnoser(tiny_network)
        levels = diagnoser._probe_levels()
        n = csr.num_nodes
        starts = sorted({0, n // 3, n - 1})
        budgets = (1, 2, certificate_node_budget(delta, csr.max_degree))
        for syndrome in _syndromes(tiny_network):
            for u0 in starts:
                assert _native(csr, syndrome, [u0], delta) == [
                    _oracle(tiny_network, syndrome, u0, delta)
                ]
                for budget in budgets:
                    assert _native(
                        csr, syndrome, [u0], delta, max_nodes=budget
                    ) == [_oracle(tiny_network, syndrome, u0, delta,
                                  max_nodes=budget)]
            for level in levels:
                table = level.class_table(csr)
                assert table is not None
                expected = []
                for k, cls in enumerate(level.classes):
                    # one restricted probe on its own, certified or not ...
                    single = np.where(table == k, 0, -1).astype(np.int32)
                    record = _oracle(tiny_network, syndrome, cls.representative,
                                     delta, restrict=cls.contains)
                    assert _native(
                        csr, syndrome, [cls.representative], delta,
                        class_of=single,
                    ) == [record]
                    if not expected or not expected[-1][2]:
                        expected.append(record)
                # ... and the whole level, stopping at the first certificate.
                assert _native(
                    csr, syndrome, _starts(level), delta, class_of=table
                ) == expected

    def test_lookups_are_credited(self, q7):
        csr = compile_network(q7)
        syndrome = next(_syndromes(q7))
        before = syndrome.lookups
        records = _native(csr, syndrome, [0, 5, 9], q7.diagnosability(),
                          max_nodes=2)
        assert syndrome.lookups - before == sum(r[1] for r in records)

    def test_start_outside_its_class_is_rejected(self, q5):
        csr = compile_network(q5)
        syndrome = next(_syndromes(q5))
        table = np.full(csr.num_nodes, -1, dtype=np.int32)
        with pytest.raises(ValueError):
            probe_level(csr, syndrome, [3], 5, class_of=table)
        with pytest.raises(ValueError):
            probe_level(csr, syndrome, [csr.num_nodes], 5)
        with pytest.raises(TypeError):  # a non-integer start never reaches C
            probe_level(csr, syndrome, np.array([0.0]), 5)
        with pytest.raises(TypeError):
            probe_level(csr, syndrome, [0], 5, class_of=table.astype(np.int64))


@needs_native
class TestPlanRefusals:
    """``probe_plan`` checks a plan's shape before it runs a probe."""

    @pytest.mark.parametrize("levels", [
        [(2, -1, -1), (1, -1, -1)],     # ends decrease
        [(4, -1, -1)],                  # ends past the last probe
        [(1, -1, -1)],                  # ends before the last probe
        [(2, 1, -1)],                   # names a table that is not there
        [(2, -2, -1)],
    ])
    def test_malformed_levels(self, q5, levels):
        csr = compile_network(q5)
        syndrome = next(_syndromes(q5))
        table = np.zeros((1, csr.num_nodes), dtype=np.int32)
        plan = ProbePlan(csr.num_nodes, [0, 1], levels, table)
        before = syndrome.lookups
        with pytest.raises(ValueError):
            run_probe_plan(csr, syndrome, plan, 5)
        assert syndrome.lookups == before

    @pytest.mark.parametrize("form", ["buffer", "mask"])
    def test_tree_parent_outside_the_row(self, form):
        # An asymmetric adjacency: root 2 admits 0 and 3, but 3's row does
        # not hold 2, so its s_3(v, t(3)) has no slot to read.
        rows = [[2], [3], [0, 3], [0, 1]]
        indptr = np.cumsum([0] + [len(row) for row in rows])
        csr = CSRAdjacency(indptr, [v for row in rows for v in row])
        syndrome = (ArraySyndrome(csr, bytes(csr.num_pairs)) if form == "buffer"
                    else ArraySyndrome.from_faults(csr, ()))
        plan = ProbePlan(csr.num_nodes, [2], [(1, -1, -1)])
        before = syndrome.lookups
        with pytest.raises(RuntimeError, match="PARENT_NOT_IN_ROW"):
            run_probe_plan(csr, syndrome, plan, 1)
        assert syndrome.lookups == before

    def test_a_plan_cut_after_a_level_resumes(self, q7):
        """A plan holding only level 0, then the whole plan from the probe
        after it, give the records of one run of the whole plan."""
        csr = compile_network(q7)
        delta = q7.diagnosability()
        levels = GeneralDiagnoser(q7, diagnosability=1)._probe_levels()  # 2 classes
        assert len(levels) >= 2
        tables = [level.class_table(csr) for level in levels]
        starts = [start for level in levels for start in _starts(level)]
        rows = [(end, k, -1) for k, end in enumerate(
            np.cumsum([len(level.classes) for level in levels]).tolist())]
        whole = ProbePlan(csr.num_nodes, starts, rows, tables)
        cut = ProbePlan(csr.num_nodes, starts[:rows[0][0]], rows[:1], tables[:1])
        resumed = 0
        for syndrome in _syndromes(q7):
            expected = run_probe_plan(csr, syndrome, whole, delta).tolist()
            head = run_probe_plan(csr, syndrome, cut, delta).tolist()
            assert head == expected[:len(head)]
            if not head[-1][2]:
                resumed += 1
                assert head + run_probe_plan(
                    csr, syndrome, whole, delta, first=len(head)).tolist() == expected
            with pytest.raises(ValueError):
                run_probe_plan(csr, syndrome, whole, delta, first=len(starts) + 1)
        assert resumed


class TestRootSearchNativeOnAndOff:
    """``find_healthy_root`` answers identically with the kernel forced off."""

    @staticmethod
    def _search(diagnoser, syndrome):
        before = syndrome.lookups
        try:
            outcome = diagnoser.find_healthy_root(syndrome)
        except DiagnosisError as exc:
            outcome = ("error", str(exc))
        return outcome, syndrome.lookups - before

    def _compare(self, network, monkeypatch, extra_faults=(), **options):
        csr = compile_network(network)
        diagnoser = GeneralDiagnoser(network, **options)

        def searches():
            syndromes = list(_syndromes(network)) + [
                ArraySyndrome.from_faults(csr, faults, behavior=behavior, seed=5)
                for faults in extra_faults for behavior in FaultyTesterBehavior.NAMES
            ]
            doomed = ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
            return [self._search(diagnoser, s) for s in syndromes + [doomed]]

        with_native = searches()
        monkeypatch.setattr(native, "_forced_off", True)
        assert with_native == searches()
        assert with_native[-1][0][0] == "error"

    def test_partition_search(self, tiny_network, monkeypatch):
        self._compare(tiny_network, monkeypatch)

    def test_a_level_without_a_table_hands_the_rest_to_the_oracle(
        self, q7, monkeypatch
    ):
        csr = compile_network(q7)
        monkeypatch.setattr(csr, "probe_plans", {})  # no plan from other tests
        walk = _ProbeLevel.class_table
        second = GeneralDiagnoser(q7)._probe_levels()[1].level
        monkeypatch.setattr(_ProbeLevel, "class_table", lambda level, csr: (
            None if level.level >= second else walk(level, csr)
        ))
        active = native.native_kernel_active()
        self._compare(q7, monkeypatch)
        [plan] = csr.probe_plans.values()
        assert (plan.native is None) == active

    def test_fallback_search(self, tiny_network, monkeypatch):
        self._compare(tiny_network, monkeypatch, use_partition=False)

    def test_narrow_levels_and_small_fallback_budget(self, q7, monkeypatch):
        # δ = 1 on Q_7: two classes per level and a fallback budget of
        # δΔ + 2 = 9 nodes.  Faults at every probed representative carry
        # some searches past level 0 and some through the budgeted fallback.
        levels = GeneralDiagnoser(q7, diagnosability=1)._probe_levels()
        representatives = {start for level in levels for start in _starts(level)}
        self._compare(q7, monkeypatch, extra_faults=[representatives],
                      diagnosability=1)

    def test_batched_search_matches_single_searches(self, q7):
        csr = compile_network(q7)
        diagnoser = GeneralDiagnoser(q7)
        batch = diagnoser.diagnose_many(list(_syndromes(q7)))
        for syndrome, outcome in zip(_syndromes(q7), batch):
            single = diagnoser.diagnose(syndrome)
            assert outcome.probes == single.probes
            assert outcome.lookups == single.lookups
            assert outcome.healthy_root == single.healthy_root
        assert q7._csr_adjacency is csr and csr.probe_plans


def _rows_walk_table(level, csr):
    """A level's class table from a walk over ``csr.rows``: the reference
    the flat-array walk of :meth:`_ProbeLevel.class_table` transcribes."""
    owner: dict[int, int] = {}
    for k, cls in enumerate(level.classes):
        rep = cls.representative
        if rep in owner or not cls.contains(rep):
            return None
        owner[rep] = k
        stack = [rep]
        while stack:
            for v in csr.rows[stack.pop()]:
                held = owner.get(v)
                if held == k or not cls.contains(v):
                    continue
                if held is not None:
                    return None
                owner[v] = k
                stack.append(v)
    table = np.full(csr.num_nodes, -1, dtype=np.int32)
    for v, k in owner.items():
        table[v] = k
    return table


class TestClassTables:
    def test_walk_matches_membership(self, small_network):
        csr = compile_network(small_network)
        for level in GeneralDiagnoser(small_network)._probe_levels():
            table = level.class_table(csr)
            assert table is not None and table.dtype == np.int32
            for k, cls in enumerate(level.classes):
                walked = set(np.flatnonzero(table == k).tolist())
                assert cls.representative in walked
                assert all(cls.contains(v) for v in walked)

    def test_flat_walk_equals_the_rows_walk(self, small_network):
        """The walk over ``indptr``/``indices`` finds every level's table
        the walk over the Python rows found, and never builds the rows."""
        compiled = compile_network(small_network)
        csr = CSRAdjacency(compiled.indptr, compiled.indices)
        for level in GeneralDiagnoser(small_network)._probe_levels():
            table = level.class_table(csr)
            assert csr._rows is None
            expected = _rows_walk_table(level, compiled)
            assert expected is not None
            assert table.dtype == expected.dtype
            assert table.tobytes() == expected.tobytes()

    def test_representative_outside_its_class_falls_back(self, q5):
        outside = PartitionClass(0, 2, lambda v: v in (1, 3))
        assert _ProbeLevel(0, [outside]).class_table(compile_network(q5)) is None

    def test_overlapping_classes_fall_back(self, q5):
        first = PartitionClass(0, 2, lambda v: v in (0, 1))
        second = PartitionClass(3, 3, lambda v: v in (1, 3, 0))
        assert _ProbeLevel(0, [first, second]).class_table(
            compile_network(q5)
        ) is None


class TestBulkCoins:
    def test_bulk_coins_equal_per_call_randint(self):
        """A CPython change to ``randint`` must fail here, not shift digests.

        A ``random`` build's side table is its faulty testers' coins in
        canonical order: faults 0..m-1 of Q_8 (28 pairs each) or Q_5 (10
        each) give 10..2996 coins, and some first draws of 2·coins + 64
        words fall short, so the kernel's ask for more words runs too.
        """
        q8, q5 = compile_network(Hypercube(8)), compile_network(Hypercube(5))
        short_draws = 0
        for seed in range(1000):
            sizes = {(q5, 1), (q5, 3), (q8, 1 + (seed * 7919) % 107)}
            if seed % 10 == 0:
                sizes.add((q8, 107))
            reference = random.Random(seed)
            expected = [reference.randint(0, 1) for _ in range(107 * 28)]
            for csr, m in sizes:
                side = ArraySyndrome.from_faults(csr, range(m), seed=seed).side
                assert side.dtype == np.uint8
                assert side.tolist() == expected[:side.size], (seed, m)
                draw = 2 * side.size + 64
                words = np.frombuffer(random.Random(seed).getrandbits(
                    32 * draw).to_bytes(4 * draw, "little"), dtype="<u4")
                short_draws += int(np.count_nonzero(words < 1 << 31) < side.size)
        assert short_draws > 0

    def test_behaviour_subclass_keeps_per_pair_delegation(self, q5):
        calls = []

        class Counting(FaultyTesterBehavior):
            def result(self, u, v, w, healthy_result, rng):
                calls.append((u, v, w))
                return (u + v + w) % 2

        faults = frozenset({0, 9, 22})
        csr = compile_network(q5)
        syndrome = ArraySyndrome.from_faults(
            q5, faults, behavior=Counting("random", seed=4), seed=4
        )
        assert len(calls) == sum(
            int(csr.pair_indptr[u + 1] - csr.pair_indptr[u]) for u in faults
        )
        for u, v, w in calls:
            assert syndrome._result(u, v, w) == (u + v + w) % 2
