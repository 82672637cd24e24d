"""Native stacked ``Set_Builder`` ≡ the rows oracle on every registry family.

The C ``stacked_rounds`` kernel must give each syndrome of a stack exactly
the run of the rows oracle, ``set_builder(network, s.to_table(), root)``,
which transcribes paper §4.1.  This suite runs ``set_builder_many`` on
every family's tiny instance (and the registry's ``small`` instance of a
few, whose node counts are not multiples of 64, so the kernel's
admitted-bitset tail words are exercised) at widths 1, 3 and 16, and pins
every output field equal: member masks, tree parents, contributors,
rounds, lookups and the certificate.  Without the native library
``set_builder_many`` itself runs the rows oracle, and the suite then pins
that path's member masks and lookup crediting.

Each stack mixes the corners of the round loop: an all-ones syndrome (no
test passes, so the frontier dies in round 1), an all-zero syndrome (every
test passes, so each round admits a whole distance layer), and seeded
syndromes over several behaviours and placements, rooted at scattered
nodes, that finish in different rounds.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import CSRAdjacency, compile_network
from repro.core import native
from repro.core.faults import clustered_faults, random_faults
from repro.core.set_builder import set_builder, set_builder_many

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


def _roots(n: int, width: int) -> list[int]:
    return [(7919 * b + 3) % n for b in range(width)]


def _assert_stack_matches_oracle(network, stack, roots):
    csr = compile_network(network)
    syndromes = [_build(network, csr, kind, spec) for kind, spec in stack]
    stacked = set_builder_many(network, syndromes, roots)
    for syndrome, root, a in zip(syndromes, roots, stacked, strict=True):
        assert syndrome.lookups == a.lookups
        b = set_builder(network, syndrome.to_table(), root)
        mask = np.zeros(network.num_nodes, dtype=bool)
        mask[list(b.nodes)] = True
        assert np.array_equal(a.member_mask, mask)
        assert a.nodes == b.nodes
        assert a.parent == b.parent
        assert a.contributors == b.contributors
        assert a.rounds == b.rounds
        assert a.lookups == b.lookups
        assert a.all_healthy == b.all_healthy
    return stacked


class TestNativeMatchesOracle:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_tiny_instances(self, tiny_network, width):
        n = tiny_network.num_nodes
        for stack in _stacks(tiny_network, width):
            results = _assert_stack_matches_oracle(
                tiny_network, stack, _roots(n, len(stack))
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
    def test_small_instances(self, family, width):
        network = cached_network(family, "small")
        for stack in _stacks(network, width):
            _assert_stack_matches_oracle(
                network, stack, _roots(network.num_nodes, len(stack))
            )


class TestKernelRefusals:
    """The raw entry point refuses inputs that would take it out of bounds:
    every root must be a node, and every tester must find its tree parent
    in its row."""

    def _call(self, csr, roots):
        kernel = native.load_kernel("stacked_rounds")
        if kernel is None:
            pytest.skip("no C compiler available in this environment")
        n = csr.num_nodes
        width = len(roots)
        buf = np.zeros(csr.num_pairs, dtype=np.uint8)
        roots = np.asarray(roots, dtype=np.int64)
        member = np.zeros(width * n, dtype=np.uint8)
        parent = np.full(width * n, -1, dtype=np.int32)
        records = np.zeros((width, 5), dtype=np.int64)
        views = (native.SyndromeView * width)(
            *(native.SyndromeView(buf=buf.ctypes.data) for _ in range(width))
        )
        code = kernel(
            csr.indptr.ctypes.data, csr.indices.ctypes.data,
            csr.pair_indptr.ctypes.data, views,
            n, width, 1, roots.ctypes.data,
            member.ctypes.data, parent.ctypes.data, records.ctypes.data,
        )
        return code, member

    def test_tree_parent_outside_the_row(self, q5):
        # An asymmetric adjacency: the root 0 admits 1 and 2, but 1's row
        # does not hold 0.
        rows = [[1, 2], [2, 3], [0, 1], [1]]
        indptr = np.cumsum([0] + [len(row) for row in rows])
        csr = CSRAdjacency(indptr, [v for row in rows for v in row])
        assert self._call(csr, [0])[0] == native.PARENT_NOT_IN_ROW
        assert self._call(compile_network(q5), [0])[0] == 0

    def test_refusal_reaches_the_caller_and_credits_nothing(self):
        # Root 2 admits 0 and 3; 3's row does not hold 2.
        rows = [[2], [3], [0, 3], [0, 1]]
        indptr = np.cumsum([0] + [len(row) for row in rows])
        csr = CSRAdjacency(indptr, [v for row in rows for v in row])
        if native.load_kernel("stacked_rounds") is None:
            pytest.skip("no C compiler available in this environment")
        syndromes = [ArraySyndrome(csr, bytes(csr.num_pairs)) for _ in range(2)]
        with pytest.raises(RuntimeError, match="PARENT_NOT_IN_ROW"):
            set_builder_many(csr, syndromes, [0, 2], diagnosability=1)
        assert [syndrome.lookups for syndrome in syndromes] == [0, 0]

    @pytest.mark.parametrize("roots", [[-1], [32], [0, 32]])
    def test_root_outside_the_network(self, q5, roots):
        code, member = self._call(compile_network(q5), roots)
        assert code == native.BAD_NODE
        assert not member.any()  # refused before anything was written
