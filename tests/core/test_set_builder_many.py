"""Unit tests for the stacked ``set_builder_many`` kernel.

The exhaustive cross-family agreement checks live in
``tests/differential/test_stacked_kernel.py``; this module pins the kernel's
contract edges — input validation, width 0/1, duplicate syndromes in one
batch, the ``materialize=False`` light mode, and ``boundary_many``.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core.faults import random_faults
from repro.core.set_builder import set_builder, set_builder_many


def _syndrome(network, seed: int) -> ArraySyndrome:
    csr = compile_network(network)
    faults = random_faults(network, network.diagnosability(), seed=seed)
    return ArraySyndrome.from_faults(csr, faults, seed=seed)


def _signature(result):
    return (
        result.root,
        frozenset(result.nodes),
        dict(result.parent),
        frozenset(result.contributors),
        result.rounds,
        result.lookups,
        result.all_healthy,
        result.truncated,
    )


class TestInputValidation:
    def test_empty_batch_returns_empty_list(self, q5):
        assert set_builder_many(q5, [], []) == []

    def test_mismatched_lengths_rejected(self, q5):
        syndrome = _syndrome(q5, 0)
        with pytest.raises(ValueError, match="one start node per syndrome"):
            set_builder_many(q5, [syndrome], [0, 1])

    def test_foreign_syndrome_rejected(self, q5, q7):
        """Every syndrome must be an ArraySyndrome over *this* compiled CSR."""
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder_many(q5, [_syndrome(q7, 0)], [0])
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder_many(q5, [_syndrome(q5, 0).to_table()], [0])

    def test_out_of_range_root_rejected(self, q5):
        syndrome = _syndrome(q5, 0)
        with pytest.raises(ValueError, match="not a node"):
            set_builder_many(q5, [syndrome], [q5.num_nodes])

    def test_stacked_round_rejects_parent_outside_tester_row(self, q5):
        """The alignment check is a real raise, not an assert ``-O`` strips."""
        from repro.core.set_builder import _stacked_round

        csr = compile_network(q5)
        n, idx = csr.num_nodes, np.int32
        member = np.zeros(n, dtype=bool)
        member[[0, 1]] = True
        parent = np.full(n, -1, dtype=idx)
        parent[1] = 2  # 1 and 2 differ in two bits: not Q_5 neighbours
        assert not csr.has_edge(1, 2)
        with pytest.raises(RuntimeError, match="tree parent"):
            _stacked_round(
                csr, n, idx, member, parent, np.full(n, np.iinfo(idx).max, dtype=idx),
                [np.zeros(csr.num_pairs, dtype=np.uint8)],
                np.array([1], dtype=idx), np.zeros(1, dtype=np.int64),
            )


class TestAgreement:
    def test_width_one_matches_vectorized_path(self, q5):
        reference = set_builder(q5, _syndrome(q5, 3), 0)
        [stacked] = set_builder_many(q5, [_syndrome(q5, 3)], [0])
        assert _signature(stacked) == _signature(reference)
        assert np.array_equal(stacked.member_mask, reference.member_mask)

    def test_duplicate_syndromes_in_one_batch(self, q5):
        """The same syndrome object twice: both rows agree, lookups add up."""
        syndrome = _syndrome(q5, 5)
        reference = set_builder(q5, _syndrome(q5, 5), 0)
        first, second = set_builder_many(q5, [syndrome, syndrome], [0, 0])
        assert _signature(first) == _signature(reference)
        assert _signature(second) == _signature(reference)
        # the shared counter saw both rows' lookups
        assert syndrome.lookups == 2 * reference.lookups

    def test_mixed_roots_over_one_syndrome_buffer(self, q5):
        buffers = [_syndrome(q5, 7) for _ in range(3)]
        roots = [0, 9, 21]
        stacked = set_builder_many(q5, buffers, roots)
        for root, result in zip(roots, stacked):
            reference = set_builder(q5, _syndrome(q5, 7), root)
            assert _signature(result) == _signature(reference)


class TestLightMode:
    def test_materialize_false_keeps_mask_and_counters(self, q5):
        reference = set_builder(q5, _syndrome(q5, 11), 0)
        [light] = set_builder_many(
            q5, [_syndrome(q5, 11)], [0], materialize=False
        )
        assert light.nodes == set() and light.parent == {}
        assert light.contributors == set()
        assert np.array_equal(light.member_mask, reference.member_mask)
        assert light.rounds == reference.rounds
        assert light.lookups == reference.lookups
        assert light.all_healthy == reference.all_healthy


class TestBoundaryMany:
    def test_final_masks_bound_exactly_the_faults(self, q5):
        csr = compile_network(q5)
        masks, faults = [], []
        for seed in range(3):
            syndrome = _syndrome(q5, seed)
            result = set_builder(q5, syndrome, 0)
            assert result.all_healthy  # root 0 is healthy for these seeds
            masks.append(result.member_mask)
            faults.append(set(syndrome.faults))
        assert csr.boundary_many(np.stack(masks)) == faults

    def test_empty_and_full_rows(self, q5):
        csr = compile_network(q5)
        rows = np.zeros((2, csr.num_nodes), dtype=bool)
        rows[1, :] = True
        assert csr.boundary_many(rows) == [set(), set()]

    def test_shape_validation(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="boolean stack"):
            csr.boundary_many(np.zeros(csr.num_nodes, dtype=bool))
        with pytest.raises(ValueError, match="boolean stack"):
            csr.boundary_many(np.zeros((2, csr.num_nodes + 1), dtype=bool))


class TestZeroCopyAdoption:
    def test_copy_false_adopts_array(self, q5):
        csr = compile_network(q5)
        values = _syndrome(q5, 2).values_array.copy()
        syndrome = ArraySyndrome(csr, values, copy=False)
        assert syndrome.buffer is values  # no duplication
        values[0] ^= 1
        assert syndrome.values_array[0] == values[0]  # same storage

    def test_copy_false_validates_dtype_and_shape(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="uint8"):
            ArraySyndrome(
                csr, np.zeros(csr.num_pairs, dtype=np.int64), copy=False
            )
        with pytest.raises(ValueError, match="uint8"):
            ArraySyndrome(
                csr,
                np.zeros((1, csr.num_pairs), dtype=np.uint8),
                copy=False,
            )

    def test_copy_false_still_checks_length(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError, match="test results"):
            ArraySyndrome(csr, np.zeros(3, dtype=np.uint8), copy=False)

    def test_adopted_buffer_diagnoses_identically(self, q5):
        csr = compile_network(q5)
        reference = set_builder(q5, _syndrome(q5, 4), 0)
        adopted = ArraySyndrome(
            csr, _syndrome(q5, 4).values_array.copy(), copy=False
        )
        assert _signature(set_builder(q5, adopted, 0)) == _signature(reference)


class TestNativeKernel:
    """The optional C inner loop and its pure-numpy fallback are the same
    kernel: every output field agrees exactly, and losing the compiler (or
    setting ``REPRO_NO_NATIVE``) degrades silently to the numpy rounds."""

    def test_forced_off_disables_native(self, monkeypatch):
        from repro.core import native

        monkeypatch.setattr(native, "_forced_off", True)
        assert native.load_stacked_kernel() is None
        assert native.native_kernel_active() is False

    def test_missing_source_degrades_to_none(self, monkeypatch, tmp_path):
        from repro.core import native

        monkeypatch.setattr(native, "_kernel", "unset")
        monkeypatch.setattr(native, "_SOURCE", tmp_path / "nope.c")
        assert native.load_stacked_kernel() is None

    def test_loaded_kernel_is_memoized(self):
        from repro.core import native

        first = native.load_stacked_kernel()
        if first is None:
            pytest.skip("no C compiler available in this environment")
        assert native.load_stacked_kernel() is first

    def test_native_and_numpy_paths_agree_exactly(self, q7, monkeypatch):
        from repro.core import native

        if not native.native_kernel_active():
            pytest.skip("no C compiler available in this environment")
        csr = compile_network(q7)
        seeds, roots = [3, 5, 8, 13], [0, 9, 40, 77]
        with_native = set_builder_many(
            q7, [_syndrome(q7, s) for s in seeds], roots
        )
        monkeypatch.setattr(native, "_forced_off", True)
        with_numpy = set_builder_many(
            q7, [_syndrome(q7, s) for s in seeds], roots
        )
        for a, b in zip(with_native, with_numpy):
            assert _signature(a) == _signature(b)
            assert np.array_equal(a.member_mask, b.member_mask)


class TestScratchBound:
    """Stacks whose scratch would pass ``_STACK_SCRATCH_BYTES`` run in width
    slices; stack items are independent, so slicing changes no result."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_sliced_stack_matches_one_pass(self, q7, monkeypatch, width):
        module = importlib.import_module("repro.core.set_builder")
        seeds, roots = list(range(7)), [0, 5, 9, 40, 77, 100, 127]
        whole = set_builder_many(q7, [_syndrome(q7, s) for s in seeds], roots)
        n = compile_network(q7).num_nodes
        monkeypatch.setattr(
            module, "_STACK_SCRATCH_BYTES", width * module._STACK_BYTES_PER_KEY * n
        )
        calls = []
        real = module.set_builder_many

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "set_builder_many", counting)
        syndromes = [_syndrome(q7, s) for s in seeds]
        sliced = counting(q7, syndromes, roots)
        assert calls[1:] == [min(width, 7 - lo) for lo in range(0, 7, width)]
        for a, b, syndrome in zip(whole, sliced, syndromes):
            assert _signature(a) == _signature(b)
            assert np.array_equal(a.member_mask, b.member_mask)
            assert syndrome.lookups == a.lookups
