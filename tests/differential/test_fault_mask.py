"""Mask-form seeded syndromes ≡ their explicit buffers, on every family.

``ArraySyndrome.from_faults`` keeps a seeded syndrome in mask mode: the
fault mask, a side table of the faulty testers' rows, and the nonzero
offsets and values.  Both native kernels read that form in place; the
buffer is built only when an oracle path asks for it.  This suite pins the
mask form against ``ArraySyndrome(csr, bytes(s.buffer))``, which every
kernel reads in buffer mode:

* whole diagnoses agree over 16 families × 5 behaviours × 3 placements at
  |F| = δ, plus |F| = N/2, whose many nonzero bytes take the dense digest;
* probes and final runs rooted at faulty nodes, which read the side table,
  agree record for record;
* the digest equals the raw bytes' digest (the recorded offsets and
  values against a scan, per family and behaviour, are pinned in
  ``tests/service/test_requests.py``);
* the serving path, in process and pooled, never builds a seeded buffer
  when the native library is loaded;
* a mask-mode read of a faulty tester the side table does not cover stops
  either kernel with an error instead of reading out of bounds.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.diagnosis import GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults, spread_faults
from repro.core.set_builder import set_builder_many
from repro.core.syndrome import FaultyTesterBehavior
from repro.networks.registry import compiled_network
from repro.service import DiagnosisRequest, DiagnosisService, ResultStore
from repro.service.executor import run_direct
from repro.service.requests import syndrome_digest

from ..conftest import probe_level, reference_bytes

needs_native = pytest.mark.skipif(
    not native.native_kernel_active(), reason="no C compiler available"
)


def _cases(network):
    """``(label, faults, mask-form syndrome)``: 15 at |F| = δ, 2 at N/2."""
    csr = compile_network(network)
    seed = sum(map(ord, network.family))
    specs = [
        (placement, network.diagnosability(), behavior)
        for placement in (random_faults, clustered_faults, spread_faults)
        for behavior in FaultyTesterBehavior.NAMES
    ] + [(random_faults, network.num_nodes // 2, b) for b in ("random", "all_one")]
    for placement, count, behavior in specs:
        faults = placement(network, count, seed=seed)
        yield (
            f"{placement.__name__}/{count}/{behavior}", faults,
            ArraySyndrome.from_faults(csr, faults, behavior=behavior, seed=seed),
        )


def _explicit(syndrome: ArraySyndrome) -> ArraySyndrome:
    return ArraySyndrome(syndrome.csr, bytes(syndrome.buffer))


def _outcome(result) -> tuple:
    if isinstance(result, Exception):
        return type(result), str(result)
    return (
        result.faulty, result.healthy_root, result.healthy_nodes,
        result.tree_parent, result.probes, result.partition_level,
        result.lookups,
    )


class TestMaskFormAgrees:
    @pytest.mark.parametrize("native_off", [False, True], ids=["native", "numpy"])
    def test_diagnoses_like_its_buffer(self, tiny_network, native_off, monkeypatch):
        monkeypatch.setattr(native, "_forced_off", native_off or native._forced_off)
        diagnoser = GeneralDiagnoser(tiny_network)
        cases = list(_cases(tiny_network))
        batch = diagnoser.diagnose_many([syndrome for _, _, syndrome in cases])
        if native.native_kernel_active():
            assert all(syndrome._buf is None for _, _, syndrome in cases)
        for (label, _, syndrome), result in zip(cases, batch):
            explicit = diagnoser.diagnose_many([_explicit(syndrome)])[0]
            assert _outcome(result) == _outcome(explicit), (tiny_network.family, label)

    def test_a_sparse_digest_never_builds_the_buffer(self):
        network, csr = compiled_network("hypercube", dimension=9)
        faults = random_faults(network, network.diagnosability(), seed=5)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=5)
        digest = syndrome_digest(*syndrome.digest_source)
        assert syndrome._buf is None and digest.startswith("sparse-sha256:")
        assert digest == syndrome_digest(bytes(syndrome.buffer))
        with pytest.raises(ValueError):  # too many offsets: the dense body
            syndrome_digest(8, np.arange(2), np.ones(2, dtype=np.uint8))

    def test_custom_results_above_one_keep_their_slots(self):
        class Wide(FaultyTesterBehavior):
            def result(self, u, v, w, healthy_result, rng):
                return (u + v + w) % 4

        network, csr = compiled_network("hypercube", dimension=9)
        faults = random_faults(network, network.diagnosability(), seed=2)
        syndrome = ArraySyndrome.from_faults(csr, faults, behavior=Wide(), seed=2)
        reference = reference_bytes(network, faults, behavior=Wide(), seed=2)
        assert syndrome.nonzero_offsets is not None and max(reference) == 3
        assert syndrome_digest(*syndrome.digest_source) == syndrome_digest(reference)
        assert bytes(syndrome.buffer) == reference

    @needs_native
    def test_faulty_rooted_probes_and_runs_read_the_side_table(self, tiny_network):
        csr = compile_network(tiny_network)
        delta = tiny_network.diagnosability()
        for label, faults, syndrome in _cases(tiny_network):
            explicit = _explicit(syndrome)
            starts = np.asarray(sorted(faults)[:4], dtype=np.int64)
            for max_nodes in (None, max(2, tiny_network.num_nodes // 4)):
                assert np.array_equal(
                    probe_level(csr, syndrome, starts, delta, max_nodes=max_nodes),
                    probe_level(csr, explicit, starts, delta, max_nodes=max_nodes),
                ), label
            roots = starts.tolist()
            for mask_run, buffer_run in zip(
                set_builder_many(tiny_network, [syndrome] * len(roots), roots),
                set_builder_many(tiny_network, [explicit] * len(roots), roots),
            ):
                assert mask_run == buffer_run, (tiny_network.family, label)
                assert np.array_equal(mask_run.member_mask, buffer_run.member_mask)
            assert syndrome.lookups == explicit.lookups


@needs_native
class TestServingNeverBuildsSeededBuffers:
    """Seeded batches, in process and on a pool worker, diagnose and
    digest without building a buffer (``ArraySyndrome._materialize``)."""

    REQUESTS = [
        DiagnosisRequest.seeded("hypercube", {"dimension": 9}, seed=seed)
        for seed in range(3)
    ] + [
        DiagnosisRequest.seeded("star", {"n": 6}, seed=seed, behavior=behavior)
        for seed, behavior in enumerate(FaultyTesterBehavior.NAMES)
    ]

    def _serve(self, service, monkeypatch, log):
        build = ArraySyndrome._materialize

        def counted(syndrome):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return build(syndrome)

        monkeypatch.setattr(ArraySyndrome, "_materialize", counted)

        async def run():
            async with service:
                return await service.submit_many(list(self.REQUESTS))

        responses = asyncio.run(run())
        assert not log.exists()
        for request, response in zip(self.REQUESTS, responses):
            assert response.source == "computed"
            assert response.syndrome_digest.startswith("sparse-sha256:")
            direct = run_direct(request)
            assert (response.syndrome_digest, response.faulty, response.lookups) == (
                direct.syndrome_digest, direct.faulty, direct.lookups
            )

    def test_in_process_batches(self, monkeypatch, tmp_path):
        store = ResultStore()
        self._serve(DiagnosisService(store=store), monkeypatch, tmp_path / "log")
        assert len(store) == len(self.REQUESTS)

    def test_pooled_batches(self, monkeypatch, tmp_path):
        from repro.parallel import WorkerPool

        with WorkerPool(max_workers=1) as pool:  # forks after the patch
            service = DiagnosisService(pool=pool, store=ResultStore())
            self._serve(service, monkeypatch, tmp_path / "log")
            assert service.stats()["pooled"]


@needs_native
class TestBoundedMaskReads:
    """Faulty testers 0 and 1 of Q_5 are adjacent and answer all zeros, so
    a run from 0 admits 1 in round 1 and reads 1's row in round 2."""

    @staticmethod
    def _syndrome(q5):
        return ArraySyndrome.from_faults(q5, {0, 1}, behavior="all_zero")

    @staticmethod
    def _assert_refused(q5, syndrome):
        for node in (0, 1):
            with pytest.raises(RuntimeError):
                probe_level(syndrome.csr, syndrome, [node], 5)
            with pytest.raises(RuntimeError):
                set_builder_many(q5, [syndrome], [node])

    def test_consistent_descriptor_reads_both_rows(self, q5):
        syndrome = self._syndrome(q5)
        [result] = set_builder_many(q5, [syndrome], [0])
        assert result.parent[1] == 0 and result.rounds >= 2
        assert result == set_builder_many(q5, [_explicit(syndrome)], [0])[0]

    def test_faulty_tester_missing_from_the_side_table(self, q5):
        syndrome = self._syndrome(q5)
        keep = syndrome.side_ids != 1
        syndrome.side_ids = syndrome.side_ids[keep]
        syndrome.side_base = syndrome.side_base[keep]
        self._assert_refused(q5, syndrome)

    @pytest.mark.parametrize("overrun", [False, True])
    def test_side_row_outside_the_table(self, q5, overrun):
        syndrome = self._syndrome(q5)
        row = int(syndrome.csr.pair_indptr[2] - syndrome.csr.pair_indptr[1])
        syndrome.side_base = syndrome.side_base.copy()
        syndrome.side_base[1] = syndrome.side.size - row + 1 if overrun else -1
        self._assert_refused(q5, syndrome)

    @pytest.mark.parametrize("field, bad", [
        ("side_ids", lambda a: a.astype(np.int32)),
        ("side_base", lambda a: a[:-1]),
        ("fault_mask", lambda a: a[:-1]),
        ("side", lambda a: a.astype(np.int64)),
    ])
    def test_descriptor_arrays_are_checked_once(self, q5, field, bad):
        syndrome = self._syndrome(q5)
        setattr(syndrome, field, bad(getattr(syndrome, field)))
        with pytest.raises(ValueError):
            syndrome.native_view()
