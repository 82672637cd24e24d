"""The seeded slot pass ≡ its Python reference ≡ the reference table's bytes.

``ArraySyndrome.from_faults`` builds a seeded syndrome's mask form in one
slot pass: ``seeded_build`` in ``_stacked.c`` for the five stock
behaviours, or ``_reference_slot_pass`` (plain Python) when the native
library is off or the behaviour is a custom subclass.  This suite pins,
over 16 families × 5 behaviours × 3 placements at |F| = δ plus a dense
build (more than an eighth of the slots nonzero):

* the C pass and the reference return the same fault mask, side-table
  offsets, side table, nonzero offsets and values;
* both equal what ``TableSyndrome.from_faults(...)`` holds, read slot by
  slot: the mask marks the faults, the side table is
  the faulty testers' rows, the nonzero record is the buffer's nonzero
  bytes, and the digest and the lazily built buffer equal the buffer's;
* a custom behaviour subclass never reaches the C pass;
* the C entry refuses fault ids out of range or out of order (before it
  writes a slot), an unknown behaviour and short outputs with typed codes,
  and never writes past an output.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backend import array_syndrome
from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.faults import clustered_faults, random_faults, spread_faults
from repro.core.syndrome import FaultyTesterBehavior
from repro.service.requests import syndrome_digest

from ..conftest import reference_bytes

needs_native = pytest.mark.skipif(
    not native.native_kernel_active(), reason="no C compiler available"
)

PLACEMENTS = (random_faults, clustered_faults, spread_faults)
FIELDS = ("mask", "side_base", "side", "offsets", "values")


def _cases(network):
    """``(label, faults, behavior, seed)``: 15 at |F| = δ, 1 dense."""
    seed = sum(map(ord, network.family))
    delta = network.diagnosability()
    for placement in PLACEMENTS:
        faults = placement(network, delta, seed=seed)
        for behavior in FaultyTesterBehavior.NAMES:
            yield f"{placement.__name__}/{behavior}", faults, behavior, seed
    yield "dense/random", random_faults(network, network.num_nodes // 2, seed=seed), \
        "random", seed


def _reference(csr, faults, behavior, seed):
    return dict(zip(FIELDS, array_syndrome._reference_slot_pass(
        csr, sorted(faults), FaultyTesterBehavior(behavior), random.Random(seed)
    )))


def _native(csr, faults, behavior, seed):
    return dict(zip(FIELDS, array_syndrome._native_slot_pass(
        native.load_kernel("seeded_build"), csr, sorted(faults), behavior,
        random.Random(seed),
    )))


def _from_table(network, csr, faults, behavior, seed):
    """The record each field must hold, read off the reference table."""
    raw = np.frombuffer(reference_bytes(network, faults, behavior=behavior, seed=seed),
                        dtype=np.uint8)
    ordered = sorted(faults)
    rows = [raw[csr.pair_indptr[f]:csr.pair_indptr[f + 1]] for f in ordered]
    mask = np.zeros(csr.num_nodes, dtype=np.uint8)
    mask[ordered] = 1
    offsets = np.flatnonzero(raw)
    return raw, {
        "mask": mask,
        "side_base": np.cumsum([0] + [row.size for row in rows])[:-1],
        "side": np.concatenate(rows) if rows else np.zeros(0, dtype=np.uint8),
        "offsets": offsets,
        "values": raw[offsets],
    }


def _assert_same(record, expected, case):
    for name in FIELDS:
        assert np.array_equal(record[name], expected[name]), (case, name)
        assert record[name].dtype == expected[name].dtype, (case, name)


class TestSlotPassAgrees:
    @needs_native
    def test_native_pass_equals_reference_and_table_bytes(self, tiny_network):
        csr = compile_network(tiny_network)
        dense = False
        for label, faults, behavior, seed in _cases(tiny_network):
            case = (tiny_network.family, label)
            raw, expected = _from_table(tiny_network, csr, faults, behavior, seed)
            _assert_same(_native(csr, faults, behavior, seed), expected, case)
            _assert_same(_reference(csr, faults, behavior, seed), expected, case)
            dense |= 8 * expected["offsets"].size > raw.size
        assert dense, tiny_network.family

    @pytest.mark.parametrize("native_off", [False, True], ids=["native", "reference"])
    def test_from_faults_digest_and_buffer(self, tiny_network, native_off, monkeypatch):
        monkeypatch.setattr(native, "_forced_off", native_off or native._forced_off)
        csr = compile_network(tiny_network)
        for label, faults, behavior, seed in _cases(tiny_network):
            case = (tiny_network.family, label)
            raw, expected = _from_table(tiny_network, csr, faults, behavior, seed)
            syndrome = ArraySyndrome.from_faults(csr, faults, behavior=behavior,
                                                 seed=seed)
            assert np.array_equal(syndrome.fault_mask, expected["mask"]), case
            assert np.array_equal(syndrome.side, expected["side"]), case
            assert syndrome.side_ids.tolist() == sorted(faults), case
            assert syndrome_digest(*syndrome.digest_source) == \
                syndrome_digest(raw.tobytes()), case
            assert syndrome._buf is None or 8 * expected["offsets"].size > raw.size
            assert bytes(syndrome.buffer) == raw.tobytes(), case

    def test_custom_behaviour_takes_the_reference(self, q5, monkeypatch):
        class Parity(FaultyTesterBehavior):
            def result(self, u, v, w, healthy_result, rng):
                return (u + v + w + rng.randint(0, 1)) % 2

        def refuse(*args, **kwargs):
            raise AssertionError("a custom behaviour reached the C slot pass")

        monkeypatch.setattr(array_syndrome, "_native_slot_pass", refuse)
        csr = compile_network(q5)
        faults = {0, 9, 22}
        syndrome = ArraySyndrome.from_faults(csr, faults, behavior=Parity(), seed=3)
        assert bytes(syndrome.buffer) == reference_bytes(
            q5, faults, behavior=Parity(), seed=3
        )


@needs_native
class TestSlotPassRefusals:
    """The raw entry refuses what it cannot bound, and writes no slot."""

    @staticmethod
    def _call(csr, fault_ids, *, behavior=1, side_len=None, capacity=64, coins=b""):
        kernel = native.load_kernel("seeded_build")
        n = csr.num_nodes
        fault_ids = np.asarray(fault_ids, dtype=np.int64)
        if side_len is None:
            side_len = sum(int(csr.pair_indptr[f + 1] - csr.pair_indptr[f])
                           for f in fault_ids if 0 <= f < n)
        mask = np.full(n, 7, dtype=np.uint8)
        side_base = np.empty(max(1, fault_ids.size), dtype=np.int64)
        side = np.zeros(max(1, side_len), dtype=np.uint8)
        offsets = np.full(max(1, capacity), -1, dtype=np.int64)
        values = np.zeros(max(1, capacity), dtype=np.uint8)
        code = kernel(
            csr.indptr.ctypes.data, csr.indices.ctypes.data,
            csr.pair_indptr.ctypes.data, n,
            fault_ids.ctypes.data, fault_ids.size, behavior,
            coins, len(coins) // 4,
            mask.ctypes.data, side_base.ctypes.data,
            side.ctypes.data, side_len,
            offsets.ctypes.data, values.ctypes.data, capacity,
        )
        return code, offsets

    @pytest.mark.parametrize("fault_ids", [[-1], [32], [3, 1], [1, 1], [0, 40]])
    def test_fault_ids_out_of_range_or_order(self, q5, fault_ids):
        code, offsets = self._call(compile_network(q5), fault_ids)
        assert code == native.BAD_NODE
        assert (offsets == -1).all()

    @pytest.mark.parametrize("behavior", [-1, 5])
    def test_unknown_behaviour(self, q5, behavior):
        assert self._call(compile_network(q5), [1], behavior=behavior)[0] == \
            native.BAD_BEHAVIOR

    def test_short_outputs(self, q5):
        csr = compile_network(q5)
        # all_one: tester 1's 10 pairs all answer 1, so 10 slots is too few
        # for them plus its five neighbours' answers.
        assert self._call(csr, [1], behavior=2, capacity=10)[0] == \
            native.SHORT_BUFFER
        assert self._call(csr, [1], side_len=9)[0] == native.SHORT_BUFFER
        assert self._call(csr, [1], behavior=2, capacity=10 + 5 * 4)[0] == 30

    def test_coin_words_running_out(self, q5):
        csr = compile_network(q5)
        # Tester 1 has 10 pairs: words with bit 31 clear each give a coin.
        assert self._call(csr, [1], behavior=0, coins=bytes(4 * 9))[0] == \
            native.MORE_WORDS
        rejected = b"\xff\xff\xff\xff"
        assert self._call(csr, [1], behavior=0,
                          coins=rejected * 5 + bytes(4 * 10))[0] == 20

    def test_refusals_raise_typed_errors(self, q5):
        csr = compile_network(q5)
        with pytest.raises(ValueError):
            native.check(self._call(csr, [3, 1])[0], "seeded_build")
        with pytest.raises(RuntimeError):
            native.check(self._call(csr, [1], side_len=9)[0], "seeded_build")
