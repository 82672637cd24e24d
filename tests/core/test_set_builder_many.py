"""Unit tests for the stacked ``set_builder_many`` kernel.

The exhaustive cross-family agreement checks live in
``tests/differential/test_stacked_kernel.py``; this module pins the kernel's
contract edges — input validation, width 0/1, duplicate syndromes in one
batch, the sets built on first read, and ``boundary_many``.
"""

from __future__ import annotations

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
        """An ArraySyndrome laid out over another topology is refused."""
        with pytest.raises(ValueError, match="compiled topology"):
            set_builder_many(q5, [_syndrome(q7, 0)], [0])

    def test_out_of_range_root_rejected(self, q5):
        syndrome = _syndrome(q5, 0)
        with pytest.raises(ValueError, match="not a node"):
            set_builder_many(q5, [syndrome], [q5.num_nodes])


def _oracle(network, seed: int, root: int):
    """The rows oracle's run: the reference every kernel result must equal."""
    return set_builder(network, _syndrome(network, seed).to_table(), root)


def _mask(network, nodes) -> np.ndarray:
    mask = np.zeros(network.num_nodes, dtype=bool)
    mask[list(nodes)] = True
    return mask


class TestAgreement:
    def test_width_one_matches_rows_oracle(self, q5):
        reference = _oracle(q5, 3, 0)
        [stacked] = set_builder_many(q5, [_syndrome(q5, 3)], [0])
        assert _signature(stacked) == _signature(reference)
        assert np.array_equal(stacked.member_mask, _mask(q5, reference.nodes))

    def test_duplicate_syndromes_in_one_batch(self, q5):
        """The same syndrome object twice: both rows agree, lookups add up."""
        syndrome = _syndrome(q5, 5)
        reference = _oracle(q5, 5, 0)
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
            reference = _oracle(q5, 7, root)
            assert _signature(result) == _signature(reference)


class TestLazySets:
    def test_sets_unbuilt_until_first_read_then_equal_the_oracle(self, q5):
        from repro.core import native

        reference = _oracle(q5, 11, 0)
        [result] = set_builder_many(q5, [_syndrome(q5, 11)], [0])
        unbuilt = all(vars(result)[name] is None
                      for name in ("nodes", "parent", "contributors"))
        # The kernel defers the collections; the rows oracle grows them.
        assert unbuilt == native.native_kernel_active()
        assert np.array_equal(result.member_mask, _mask(q5, reference.nodes))
        assert result.rounds == reference.rounds
        assert result.lookups == reference.lookups
        assert result.all_healthy == reference.all_healthy
        assert _signature(result) == _signature(reference)
        assert vars(result)["nodes"] is not None  # read once, then cached


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
        reference = _oracle(q5, 4, 0)
        adopted = ArraySyndrome(
            csr, _syndrome(q5, 4).values_array.copy(), copy=False
        )
        assert _signature(set_builder(q5, adopted, 0)) == _signature(reference)


class TestNativeKernel:
    """The optional C inner loop and the rows oracle it falls back to agree
    on every output field, and losing the compiler (or setting
    ``REPRO_NO_NATIVE``) degrades silently to the oracle."""

    def test_forced_off_disables_native(self, monkeypatch):
        from repro.core import native

        monkeypatch.setattr(native, "_forced_off", True)
        assert native.load_kernel("stacked_rounds") is None
        assert native.native_kernel_active() is False

    def test_missing_source_degrades_to_none(self, monkeypatch, tmp_path):
        from repro.core import native

        monkeypatch.setattr(native, "_kernel", "unset")
        monkeypatch.setattr(native, "_SOURCE", tmp_path / "nope.c")
        assert native.load_kernel("stacked_rounds") is None

    def test_loaded_kernel_is_memoized(self):
        from repro.core import native

        first = native.load_kernel("stacked_rounds")
        if first is None:
            pytest.skip("no C compiler available in this environment")
        assert native.load_kernel("stacked_rounds") is first

    def test_native_and_oracle_paths_agree_exactly(self, q7, monkeypatch):
        from repro.core import native

        if not native.native_kernel_active():
            pytest.skip("no C compiler available in this environment")
        csr = compile_network(q7)
        seeds, roots = [3, 5, 8, 13], [0, 9, 40, 77]
        with_native = set_builder_many(
            q7, [_syndrome(q7, s) for s in seeds], roots
        )
        monkeypatch.setattr(native, "_forced_off", True)
        with_oracle = set_builder_many(
            q7, [_syndrome(q7, s) for s in seeds], roots
        )
        for a, b in zip(with_native, with_oracle):
            assert _signature(a) == _signature(b)
            assert np.array_equal(a.member_mask, b.member_mask)
