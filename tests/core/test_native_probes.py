"""Native root-search probes and bulk faulty-tester coins.

``probe_level`` (``_stacked.c``) replaces the scalar ``_set_builder_array``
probes of the healthy-root search, and ``fair_coins`` replaces one
``rng.randint(0, 1)`` per faulty-tester pair.  Both are pure speedups: the
probe records, roots, levels, lookup counters and syndrome bytes they
produce must equal the scalar code's exactly, which this module pins on
every registry family.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome, fair_coins
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser, _ProbeLevel
from repro.core.faults import clustered_faults, random_faults, spread_faults
from repro.core.set_builder import (
    ProbeScratch,
    _set_builder_array,
    certificate_node_budget,
)
from repro.core.syndrome import FaultyTesterBehavior
from repro.networks.base import PartitionClass

from ..conftest import cached_network

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


def _scalar(csr, syndrome, u0, delta, restrict=None, max_nodes=None):
    result = _set_builder_array(csr, syndrome, u0, delta, restrict, max_nodes, True)
    return [result.size, result.lookups, int(result.all_healthy),
            int(result.truncated), result.rounds]


def _native(scratch, syndrome, starts, delta, **kwargs):
    return scratch.run(
        syndrome, np.asarray(starts, dtype=np.int64), delta, **kwargs
    ).tolist()


@needs_native
class TestProbeKernelMatchesScalarPath:
    def test_every_family_behaviour_placement_and_run_kind(self, tiny_network):
        csr = compile_network(tiny_network)
        delta = tiny_network.diagnosability()
        diagnoser = GeneralDiagnoser(tiny_network)
        levels = diagnoser._probe_levels()
        scratch = ProbeScratch.create(csr)
        n = csr.num_nodes
        starts = sorted({0, n // 3, n - 1})
        budgets = (1, 2, certificate_node_budget(delta, csr.max_degree))
        for syndrome in _syndromes(tiny_network):
            for u0 in starts:
                assert _native(scratch, syndrome, [u0], delta) == [
                    _scalar(csr, syndrome, u0, delta)
                ]
                for budget in budgets:
                    assert _native(
                        scratch, syndrome, [u0], delta, max_nodes=budget
                    ) == [_scalar(csr, syndrome, u0, delta, max_nodes=budget)]
            for level in levels:
                table = level.class_table(csr)
                assert table is not None
                expected = []
                for k, cls in enumerate(level.classes):
                    # one restricted probe on its own, certified or not ...
                    single = np.where(table == k, 0, -1).astype(np.int32)
                    record = _scalar(csr, syndrome, cls.representative, delta,
                                     restrict=cls.contains)
                    assert _native(
                        scratch, syndrome, [cls.representative], delta,
                        class_of=single,
                    ) == [record]
                    if not expected or not expected[-1][2]:
                        expected.append(record)
                # ... and the whole level, stopping at the first certificate.
                assert _native(
                    scratch, syndrome, level.starts, delta, class_of=table
                ) == expected

    def test_lookups_are_credited_and_scratch_is_left_clean(self, q7):
        csr = compile_network(q7)
        syndrome = next(_syndromes(q7))
        scratch = ProbeScratch.create(csr)
        before = syndrome.lookups
        records = _native(scratch, syndrome, [0, 5, 9], q7.diagnosability(),
                          max_nodes=2)
        assert syndrome.lookups - before == sum(r[1] for r in records)
        assert not scratch._mark.any()

    def test_start_outside_its_class_is_rejected(self, q5):
        csr = compile_network(q5)
        scratch = ProbeScratch.create(csr)
        syndrome = next(_syndromes(q5))
        table = np.full(csr.num_nodes, -1, dtype=np.int32)
        with pytest.raises(ValueError):
            scratch.run(syndrome, np.array([3], dtype=np.int64), 5, class_of=table)
        with pytest.raises(ValueError):
            scratch.run(syndrome, np.array([csr.num_nodes], dtype=np.int64), 5)
        with pytest.raises(ValueError):  # wrong dtype never reaches C
            scratch.run(syndrome, np.array([0], dtype=np.int32), 5)


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

    def _compare(self, network, monkeypatch, **options):
        csr = compile_network(network)
        diagnoser = GeneralDiagnoser(network, **options)
        syndromes = list(_syndromes(network))
        doomed = ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
        with_native = [self._search(diagnoser, s) for s in syndromes + [doomed]]
        monkeypatch.setattr(native, "_forced_off", True)
        syndromes = list(_syndromes(network))
        doomed = ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
        scalar = [self._search(diagnoser, s) for s in syndromes + [doomed]]
        assert with_native == scalar
        assert with_native[-1][0][0] == "error"

    def test_partition_search(self, tiny_network, monkeypatch):
        self._compare(tiny_network, monkeypatch)

    def test_fallback_search(self, tiny_network, monkeypatch):
        self._compare(tiny_network, monkeypatch, use_partition=False)

    def test_narrow_levels_and_small_fallback_budget(self, q7, monkeypatch):
        self._compare(q7, monkeypatch, max_probes_per_level=2,
                      fallback_probe_budget=4)

    def test_batched_search_matches_single_searches(self, q7):
        csr = compile_network(q7)
        diagnoser = GeneralDiagnoser(q7)
        batch = diagnoser.diagnose_many(list(_syndromes(q7)), include_sets=False)
        for syndrome, outcome in zip(_syndromes(q7), batch):
            single = diagnoser.diagnose(syndrome)
            assert outcome.probes == single.probes
            assert outcome.lookups == single.lookups
            assert outcome.healthy_root == single.healthy_root
        assert q7._csr_adjacency is csr and csr.probe_plans


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
        """A CPython change to ``randint`` must fail here, not shift digests."""
        for seed in range(1000):
            # k sweeps 1..3000 across the seeds; every tenth seed also
            # draws the full 3000.
            sizes = {1, 2, 3, 1 + (seed * 7919) % 3000}
            if seed % 10 == 0:
                sizes.add(3000)
            reference = random.Random(seed)
            expected = [reference.randint(0, 1) for _ in range(max(sizes))]
            for k in sizes:
                coins = fair_coins(random.Random(seed), k)
                assert coins.dtype == np.uint8
                assert coins.tolist() == expected[:k], (seed, k)
        assert fair_coins(random.Random(0), 0).size == 0

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
