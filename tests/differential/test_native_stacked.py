"""Native ≡ numpy stacked ``Set_Builder`` on every registry family.

The C ``stacked_rounds`` kernel and the numpy ``_stacked_round`` fallback
are one kernel with two implementations.  This suite runs
``set_builder_many`` both ways on every family's tiny instance (and the
registry's ``small`` instance of a few, whose node counts are not multiples
of 64, so the kernel's admitted-bitset tail words are exercised) at widths
1, 3 and 16, and pins every output field equal: member masks, tree parents,
contributors, rounds, lookups and the certificate.

Each stack mixes the corners of the round loop: an all-ones syndrome (no
test passes, so the frontier dies in round 1), an all-zero syndrome (every
test passes, so each round admits a whole distance layer), and seeded
syndromes over several behaviours and placements, rooted at scattered
nodes, that finish in different rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.faults import clustered_faults, random_faults
from repro.core.set_builder import set_builder_many

from ..conftest import cached_network

WIDTHS = (1, 3, 16)
BEHAVIORS = ("random", "all_zero", "all_one", "mimic")
PLACEMENTS = (random_faults, clustered_faults)
SMALL_FAMILIES = ("arrangement", "augmented_cube", "hypercube", "kary_ncube")


def _stack(network, width: int) -> list[tuple[str, object]]:
    """``width`` (kind, spec) entries: the all-ones and all-zero corners
    first, then seeded syndromes cycling behaviours and placements."""
    kinds = [("ones", None), ("zeros", None)]
    k = 0
    while len(kinds) < width:
        behavior = BEHAVIORS[k % len(BEHAVIORS)]
        placement = PLACEMENTS[(k // len(BEHAVIORS)) % len(PLACEMENTS)]
        kinds.append(("seeded", (placement, behavior, k)))
        k += 1
    return kinds[:width]


def _stacks(network, width: int) -> list[list[tuple[str, object]]]:
    """Width 1 runs each corner (all-ones, all-zero, seeded) alone."""
    if width == 1:
        return [[entry] for entry in _stack(network, 3)]
    return [_stack(network, width)]


def _build(network, csr, kind: str, spec) -> ArraySyndrome:
    if kind == "ones":
        return ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
    if kind == "zeros":
        return ArraySyndrome(csr, bytes(csr.num_pairs))
    placement, behavior, seed = spec
    faults = placement(network, network.diagnosability(), seed=seed)
    return ArraySyndrome.from_faults(csr, faults, behavior=behavior, seed=seed)


def _run(network, stack, roots):
    csr = compile_network(network)
    syndromes = [_build(network, csr, kind, spec) for kind, spec in stack]
    return set_builder_many(network, syndromes, roots)


def _roots(n: int, width: int) -> list[int]:
    return [(7919 * b + 3) % n for b in range(width)]


def _assert_native_matches_numpy(network, stack, roots, monkeypatch):
    if not native.native_kernel_active():
        pytest.skip("no C compiler available in this environment")
    with_native = _run(network, stack, roots)
    with monkeypatch.context() as patch:
        patch.setattr(native, "_forced_off", True)
        with_numpy = _run(network, stack, roots)
    for a, b in zip(with_native, with_numpy, strict=True):
        assert np.array_equal(a.member_mask, b.member_mask)
        assert a.nodes == b.nodes
        assert a.parent == b.parent
        assert a.contributors == b.contributors
        assert a.rounds == b.rounds
        assert a.lookups == b.lookups
        assert a.all_healthy == b.all_healthy
    return with_native


class TestNativeMatchesNumpy:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_tiny_instances(self, tiny_network, width, monkeypatch):
        n = tiny_network.num_nodes
        for stack in _stacks(tiny_network, width):
            results = _assert_native_matches_numpy(
                tiny_network, stack, _roots(n, len(stack)), monkeypatch
            )
            for (kind, _), result in zip(stack, results):
                if kind == "ones":
                    assert result.rounds == 0 and result.size == 1
                if kind == "zeros":
                    assert result.size == n
        if width == 16:
            # The mix really does end in several different rounds.
            assert len({r.rounds for r in results}) >= 3

    @pytest.mark.parametrize("family", SMALL_FAMILIES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_small_instances(self, family, width, monkeypatch):
        network = cached_network(family, "small")
        for stack in _stacks(network, width):
            _assert_native_matches_numpy(
                network, stack, _roots(network.num_nodes, len(stack)),
                monkeypatch,
            )


class TestKernelRefusals:
    """The raw entry point refuses inputs that would take it out of bounds:
    the frontier walk steps the syndrome index instead of dividing, so it
    needs ascending in-range keys, and a tester must find its parent."""

    def _call(self, network, frontier, parent_of):
        kernel = native.load_stacked_kernel()
        if kernel is None:
            pytest.skip("no C compiler available in this environment")
        csr = compile_network(network)
        n = csr.num_nodes
        buf = np.zeros(csr.num_pairs, dtype=np.uint8)
        frontier = np.asarray(frontier, dtype=np.int64)
        member = np.zeros(n, dtype=np.uint8)
        parent = np.full(n, -1, dtype=np.int64)
        for node, tester in parent_of.items():
            member[[node, tester]] = 1
            parent[node] = tester
        lookups, rounds, contrib_count = (np.zeros(1, dtype=np.int64)
                                          for _ in range(3))
        contributed = np.zeros(n, dtype=np.uint8)
        buf_addrs = np.array([buf.ctypes.data], dtype=np.uintp)
        return kernel(
            csr.indptr.ctypes.data, csr.indices.ctypes.data,
            csr.pair_indptr.ctypes.data, buf_addrs.ctypes.data,
            n, 1, frontier.ctypes.data, frontier.size,
            member.ctypes.data, parent.ctypes.data,
            lookups.ctypes.data, rounds.ctypes.data,
            contributed.ctypes.data, contrib_count.ctypes.data,
        )

    def test_tree_parent_outside_the_row(self, q5):
        # 1 and 2 differ in two bits: not Q_5 neighbours.
        assert self._call(q5, [1], {1: 2}) == -2
        assert self._call(q5, [1], {1: 0}) == 0

    @pytest.mark.parametrize("frontier", [[3, 1], [1, 1], [-1], [32]])
    def test_frontier_not_ascending_in_range(self, q5, frontier):
        parent_of = {v: v ^ 1 for v in frontier if 0 <= v < 32}
        assert self._call(q5, frontier, parent_of) == -3
