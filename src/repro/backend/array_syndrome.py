"""Flat-array syndrome storage for the MM model.

:class:`ArraySyndrome` gives every comparison-test result ``s_u(v, w)`` a
slot in the dense *pair layout* of the compiled topology
(:class:`~repro.backend.csr.CSRAdjacency`): tester ``u``'s result for the
pair at sorted-row positions ``(i, j)`` with ``i < j`` lives at

    ``pair_base[u] + i·(2·deg(u) − i − 1)/2 + (j − i − 1)``

so a lookup is a handful of integer operations instead of a tuple hash into a
dict.  The class still derives from :class:`~repro.core.syndrome.Syndrome`, so
everything written against the abstract oracle (the baselines, the verifier,
the lookup-count accounting of experiment E5/E6) keeps working unchanged.

A syndrome is held in one of two read modes:

* **buffer mode** — one flat byte buffer over the whole layout.  Explicit
  syndromes (client bytes, shared-memory views) are held this way.
* **mask mode** — what :meth:`from_faults` builds.  A healthy tester answers
  ``mask[v] | mask[w]`` from the n-byte fault mask, so only the faulty
  testers' rows are stored, in a side table, plus the ascending nonzero
  offsets and their values for the content digest.  Diagnosis consults
  O(nΔ) of the nΔ(Δ−1)/2 results (paper §6), so the whole buffer is never
  written on the native path: the root search and the final run in
  ``_stacked.c`` read the mask and the side table in place
  (:meth:`native_view`).

A mask-form syndrome builds its buffer lazily, once, the first time
:attr:`buffer`, :attr:`values_array`, the oracle ``_result``, :meth:`items`
or :meth:`to_table` needs it; the rows oracle reads it that way.  The bytes equal a buffer-mode build entry for entry:
faulty testers draw their results per the configured
:class:`~repro.core.syndrome.FaultyTesterBehavior` in the exact canonical
order of :meth:`TableSyndrome.from_faults
<repro.core.syndrome.TableSyndrome.from_faults>` (testers ascending, sorted
rows, pairs ``(i, j)`` with ``i < j``), so an ``ArraySyndrome`` agrees with
that reference table entry for entry for the same faults, behaviour and
seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np

from ..core.native import (
    MORE_WORDS, SyndromeView, address, check, load_kernel, topology_args,
)
from ..core.syndrome import FaultyTesterBehavior, Syndrome, TableSyndrome
from .csr import CSRAdjacency, compile_network

__all__ = ["ArraySyndrome"]


def pair_offset(i: int, j: int, degree: int) -> int:
    """Slot offset of the pair at sorted-row positions ``i < j`` of a tester."""
    return i * (2 * degree - i - 1) // 2 + (j - i - 1)


def _slot_tests(csr: CSRAdjacency) -> Iterator[tuple[int, int, int]]:
    """Every test ``(u, v, w)`` of the topology, in pair-slot order."""
    for u, row in enumerate(csr.rows):
        for i, v in enumerate(row):
            for w in row[i + 1:]:
                yield u, v, w


def _native_slot_pass(kernel, csr: CSRAdjacency, ordered: list[int], name: str, rng):
    """``seeded_build`` for a stock behaviour: the arrays
    :func:`_reference_slot_pass` returns, from one native call.

    The ``random`` coins come from ``rng``'s next 32-bit words, about two
    per coin since ``randint(0, 1)`` rejects half of them.  When a draw
    falls short, the pass runs again over a longer stream; the generator
    may advance past the last word used.
    """
    n = csr.num_nodes
    base = csr.pair_base
    side_len = sum(base[f + 1] - base[f] for f in ordered)
    fault_ids = np.array(ordered, dtype=np.int64)
    mask = np.empty(n, dtype=np.uint8)
    side_base = np.empty(len(ordered), dtype=np.int64)
    side = np.empty(side_len, dtype=np.uint8)
    # Nonzero slots: the side table's, plus at most Δ-1 per fault per
    # neighbouring healthy tester.
    degree = csr.max_degree
    capacity = min(csr.num_pairs, side_len + len(ordered) * degree * (degree - 1))
    offsets = np.empty(capacity, dtype=np.int64)
    values = np.empty(capacity, dtype=np.uint8)
    coins = b""
    while True:
        if name == "random":
            draw = 2 * side_len + 64
            coins += rng.getrandbits(32 * draw).to_bytes(4 * draw, "little")
        count = kernel(
            *topology_args(csr), n,
            fault_ids.ctypes.data, len(ordered),
            FaultyTesterBehavior.NAMES.index(name),
            coins, len(coins) // 4,
            mask.ctypes.data, side_base.ctypes.data,
            side.ctypes.data, side_len,
            offsets.ctypes.data, values.ctypes.data, capacity,
        )
        if count != MORE_WORDS:
            break
    check(count, "seeded_build")
    return mask, side_base, side, offsets[:count], values[:count]


def _reference_slot_pass(csr: CSRAdjacency, ordered: list[int], behavior, rng):
    """The seeded slot pass in plain Python: the reference of ``seeded_build``.

    Walks the faulty testers ``ordered`` (ascending) and their neighbours in
    ascending tester order, each tester's pairs in slot order.  A faulty
    tester's result is ``behavior.result(u, v, w, healthy, rng)``, drawn in
    the canonical materialisation order; a healthy one's is ``mask[v] |
    mask[w]``.  Returns the fault mask, each faulty tester's offset in the
    side table, the side table, and the ascending nonzero slots and their
    values.
    """
    rows, base = csr.rows, csr.pair_base
    mask = bytearray(csr.num_nodes)
    for f in ordered:
        mask[f] = 1
    testers = sorted({u for f in ordered for u in rows[f]}.union(ordered))
    side_base: list[int] = []
    side = bytearray()
    offsets: list[int] = []
    values: list[int] = []
    for u in testers:
        row, slot, faulty = rows[u], base[u], mask[u]
        if faulty:
            side_base.append(len(side))
        for i, v in enumerate(row):
            for w in row[i + 1:]:
                result = mask[v] | mask[w]
                if faulty:
                    result = behavior.result(u, v, w, result, rng)
                    side.append(result)
                if result:
                    offsets.append(slot)
                    values.append(result)
                slot += 1
    return (
        np.frombuffer(mask, dtype=np.uint8),
        np.array(side_base, dtype=np.int64),
        np.frombuffer(side, dtype=np.uint8),
        np.array(offsets, dtype=np.int64),
        np.array(values, dtype=np.uint8),
    )


class ArraySyndrome(Syndrome):
    """A complete syndrome over the flat pair layout, in buffer or mask mode."""

    def __init__(
        self,
        topology,
        values,
        *,
        faults: Iterable[int] = frozenset(),
        copy: bool = True,
    ) -> None:
        super().__init__()
        self.csr: CSRAdjacency = compile_network(topology)
        if not copy and isinstance(values, np.ndarray):
            # Zero-copy adoption of an existing flat uint8 array — the serving
            # path wraps shared-memory views this way, so a worker diagnosing
            # an explicit syndrome never duplicates the buffer per process.
            if values.dtype != np.uint8 or values.ndim != 1:
                raise ValueError("copy=False needs a one-dimensional uint8 array")
            buf = values
        else:
            buf = bytearray(values)
        if len(buf) != self.csr.num_pairs:
            raise ValueError(
                f"expected {self.csr.num_pairs} test results, got {len(buf)}"
            )
        self._buf = buf
        self.faults = frozenset(int(f) for f in faults)
        #: Mask mode only (see :meth:`from_faults`): the n-byte fault mask,
        #: the ascending faulty testers whose rows the side table holds, each
        #: row's offset in ``side``, and the rows themselves.
        self.fault_mask: np.ndarray | None = None
        self.side_ids = self.side_base = self.side = None
        self._nonzero: tuple[np.ndarray, np.ndarray] | None = None
        self._view: SyndromeView | None = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_faults(
        cls,
        topology,
        faults: Iterable[int],
        *,
        behavior: FaultyTesterBehavior | str = "random",
        seed: int | None = 0,
    ) -> "ArraySyndrome":
        """The full syndrome of a hidden fault set, in mask mode.

        ``topology`` may be a network or an already compiled
        :class:`CSRAdjacency`.  No buffer is written.  One slot pass over
        the faulty testers and their neighbours, in ascending tester order,
        keeps:

        * the fault mask, from which a healthy tester answers
          ``mask[v] | mask[w]``;
        * a side table of the faulty testers' rows, drawn from the seeded
          generator in the canonical order, so the bytes reproduce
          :meth:`~repro.core.syndrome.TableSyndrome.from_faults` entry for
          entry;
        * every nonzero slot and its value, already ascending because the
          pair layout is tester-major: the healthy answers of the testers
          next to a fault and the side table's nonzero entries.

        The pass is ``seeded_build`` in ``_stacked.c`` for the five stock
        behaviours (Python draws the ``random`` behaviour's generator words,
        the kernel keeps CPython's ``randint(0, 1)`` answers), or its
        plain-Python transcription (:func:`_reference_slot_pass`) when the
        native library is not loaded or the behaviour is a custom subclass.

        When at most an eighth of the slots are nonzero, the content digest
        reads only :attr:`nonzero_offsets` and :attr:`nonzero_values`;
        otherwise it hashes the raw bytes.  Either way the lazily built
        buffer is the zeroed layout with the recorded slots written.
        """
        csr = compile_network(topology)
        fault_set = frozenset(int(f) for f in faults)
        for f in fault_set:
            if not 0 <= f < csr.num_nodes:
                raise ValueError(f"fault {f} is not a node of the network")
        if isinstance(behavior, str):
            behavior = FaultyTesterBehavior(behavior, seed=seed)
        rng = random.Random(seed)
        ordered = sorted(fault_set)
        kernel = load_kernel("seeded_build")
        if kernel is None or type(behavior).result is not FaultyTesterBehavior.result:
            built = _reference_slot_pass(csr, ordered, behavior, rng)
        else:
            built = _native_slot_pass(kernel, csr, ordered, behavior.name, rng)

        syndrome = cls.__new__(cls)
        Syndrome.__init__(syndrome)
        syndrome.csr = csr
        syndrome.faults = fault_set
        syndrome.side_ids = np.array(ordered, dtype=np.int64)
        syndrome.fault_mask, syndrome.side_base, syndrome.side, *nonzero = built
        syndrome._nonzero = tuple(nonzero)
        syndrome._buf = None
        syndrome._view = None
        return syndrome

    # ----------------------------------------------------------- read modes
    @property
    def nonzero_offsets(self) -> np.ndarray | None:
        """Ascending offsets of the nonzero bytes of a sparse mask-form build.

        ``None`` for buffer-mode syndromes (the digest then scans the
        buffer) and for builds with more than an eighth of the bytes nonzero
        (the digest then hashes the raw bytes).
        """
        if self._nonzero is None or 8 * self._nonzero[0].size > len(self):
            return None
        return self._nonzero[0]

    @property
    def nonzero_values(self) -> np.ndarray | None:
        """The bytes at :attr:`nonzero_offsets` (``None`` when those are)."""
        return None if self.nonzero_offsets is None else self._nonzero[1]

    @property
    def digest_source(self) -> tuple:
        """The arguments :func:`~repro.service.requests.syndrome_digest`
        takes for this syndrome: ``(length, offsets, values)`` from a sparse
        build's record, which never builds the buffer, else ``(buffer,)``."""
        values = self.nonzero_values
        if values is None:
            return (self.buffer,)
        return len(self), self.nonzero_offsets, values

    def native_view(self) -> SyndromeView:
        """This syndrome as the native kernels read it, checked once and cached.

        Mask mode hands over the mask and the side table, whatever the
        state of the lazy buffer; buffer mode hands over the buffer.  Every
        array passes :func:`~repro.core.native.address` (dtype, contiguity,
        length) here, and the kernels bound each side-table row they read.
        """
        view = self._view
        if view is None:
            csr = self.csr
            if self.fault_mask is None:
                self._kernel_buf = np.ascontiguousarray(self.values_array)
                view = SyndromeView(
                    buf=address(self._kernel_buf, np.uint8, csr.num_pairs)
                )
            else:
                count = self.side_ids.size
                view = SyndromeView(
                    mask=address(self.fault_mask, np.uint8, csr.num_nodes),
                    fault_ids=address(self.side_ids, np.int64, count),
                    side_base=address(self.side_base, np.int64, count),
                    side=address(self.side, np.uint8, 0),
                    num_faults=count,
                    side_len=self.side.size,
                )
            self._view = view
        return view

    def _materialize(self) -> bytearray:
        """Build the buffer of a mask-form syndrome: the zeroed layout with
        every recorded nonzero slot written."""
        buf = bytearray(self.csr.num_pairs)
        offsets, values = self._nonzero
        np.frombuffer(buf, dtype=np.uint8)[offsets] = values
        self._buf = buf
        return buf

    # ---------------------------------------------------------------- oracle
    def _result(self, u: int, v: int, w: int) -> int:
        csr = self.csr
        row = csr.rows[u]
        d = len(row)
        i = bisect_left(row, v)
        j = bisect_left(row, w)
        if i >= d or row[i] != v or j >= d or row[j] != w:
            raise KeyError((u, v, w))
        return self.buffer[csr.pair_base[u] + pair_offset(i, j, d)]

    @property
    def buffer(self):
        """The raw result buffer (read-only by convention).

        A ``bytearray`` normally (a mask-form syndrome builds it here, once);
        a flat ``uint8`` array when the syndrome adopted one zero-copy
        (``copy=False``) — both index and slice the same way, and
        ``bytes(buffer)`` works on either.
        """
        buf = self._buf
        return self._materialize() if buf is None else buf

    @property
    def values_array(self) -> np.ndarray:
        """Zero-copy ``uint8`` array view of the buffer (vectorised paths)."""
        buf = self.buffer
        if isinstance(buf, np.ndarray):
            return buf
        return np.frombuffer(buf, dtype=np.uint8)

    # ----------------------------------------------------------- conversions
    def __len__(self) -> int:
        """Number of entries in the full syndrome table."""
        return self.csr.num_pairs

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Iterate ``((u, v, w), result)`` pairs (table-scanning callers)."""
        return zip(_slot_tests(self.csr), self.buffer)

    def to_table(self) -> TableSyndrome:
        """Export as a dict-backed :class:`TableSyndrome` (tests, adapters)."""
        return TableSyndrome(dict(self.items()))
