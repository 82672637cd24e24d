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
  syndromes (client bytes, shared-memory views, :meth:`from_syndrome`) are
  held this way.
* **mask mode** — what :meth:`from_faults` builds.  A healthy tester answers
  ``mask[v] | mask[w]`` from the n-byte fault mask, so only the faulty
  testers' rows are stored, in a side table, plus the ascending nonzero
  offsets and their values for the content digest.  Diagnosis consults
  O(nΔ) of the nΔ(Δ−1)/2 results (paper §6), so the whole buffer is never
  written on the native path: both kernels in ``_stacked.c`` read the mask
  and the side table in place (:meth:`native_view`).

A mask-form syndrome builds its buffer lazily, once, the first time
:attr:`buffer`, :attr:`values_array`, the oracle ``_result``, :meth:`items`
or :meth:`to_table` needs it; the rows oracle reads it that way.  The bytes equal a buffer-mode build entry for entry:
faulty testers draw their results per the configured
:class:`~repro.core.syndrome.FaultyTesterBehavior` in the exact canonical
order of ``LazySyndrome.materialize()`` (testers ascending, sorted rows,
pairs ``(i, j)`` with ``i < j``), so an ``ArraySyndrome`` agrees with a
materialised :class:`~repro.core.syndrome.TableSyndrome` built from the
same faults, behaviour and seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from ..core.native import SyndromeView, address
from ..core.syndrome import FaultyTesterBehavior, Syndrome, TableSyndrome
from .csr import CSRAdjacency, compile_network

__all__ = ["ArraySyndrome"]


def pair_offset(i: int, j: int, degree: int) -> int:
    """Slot offset of the pair at sorted-row positions ``i < j`` of a tester."""
    return i * (2 * degree - i - 1) // 2 + (j - i - 1)


@lru_cache(maxsize=None)
def _triu(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Row positions ``(i, j)``, ``i < j``, of one tester's pairs in slot order."""
    return np.triu_indices(degree, 1)


def fair_coins(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` results of ``rng.randint(0, 1)``, drawn in bulk.

    CPython's ``randint(0, 1)`` is ``_randbelow(2)``: each try takes one
    32-bit Mersenne Twister word, is rejected when the word's top bit is
    set and otherwise answers the word's bit 30.  ``getrandbits(32·k)``
    returns the next ``k`` words in draw order, little-endian, so keeping
    the accepted words' bit 30 reproduces the per-call sequence exactly.
    The generator may advance past the last needed word.
    """
    parts = [np.empty(0, dtype=np.uint8)]
    have = 0
    while have < count:
        words = 2 * (count - have) + 64
        raw = np.frombuffer(
            rng.getrandbits(32 * words).to_bytes(4 * words, "little"), dtype="<u4"
        )
        coins = ((raw[raw < 0x80000000] >> 30) & 1).astype(np.uint8)
        parts.append(coins)
        have += coins.size
    return np.concatenate(parts)[:count]


def _slot_tests(csr: CSRAdjacency) -> Iterator[tuple[int, int, int]]:
    """Every test ``(u, v, w)`` of the topology, in pair-slot order."""
    for u, row in enumerate(csr.rows):
        for i, v in enumerate(row):
            for w in row[i + 1:]:
                yield u, v, w


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
        :class:`CSRAdjacency`.  No buffer is written.  The build keeps:

        * the fault mask, from which a healthy tester answers
          ``mask[v] | mask[w]``;
        * a side table of the faulty testers' rows, drawn from the seeded
          generator in the canonical materialisation order, so the bytes
          reproduce ``LazySyndrome.materialize()`` entry for entry;
        * every nonzero slot and its value: the healthy answers of the
          testers next to a fault (at most ``|F|·Δ`` testers, one numpy
          gather per degree) and the side table's nonzero entries.

        When at most an eighth of the slots are nonzero, those offsets are
        sorted and exposed as :attr:`nonzero_offsets` and
        :attr:`nonzero_values`, which is all the content digest reads.
        Otherwise the digest hashes the raw bytes, and sorting would be
        wasted.  Either way the lazily built buffer is the zeroed layout with
        the recorded slots written.
        """
        csr = compile_network(topology)
        fault_set = frozenset(int(f) for f in faults)
        for f in fault_set:
            if not 0 <= f < csr.num_nodes:
                raise ValueError(f"fault {f} is not a node of the network")
        if isinstance(behavior, str):
            behavior = FaultyTesterBehavior(behavior, seed=seed)
        rng = random.Random(seed)

        indptr, indices, pair_indptr = csr.indptr, csr.indices, csr.pair_indptr
        ordered = sorted(fault_set)
        fault_ids = np.asarray(ordered, dtype=np.int64)
        mask = np.zeros(csr.num_nodes, dtype=np.uint8)
        mask[fault_ids] = 1
        hit_of = mask.view(bool)

        # Healthy testers next to a fault, grouped by degree: their nonzero
        # answers, all 1.
        near = np.zeros(csr.num_nodes, dtype=bool)
        near[indices[csr.row_addresses(fault_ids)[0]]] = True
        near &= ~hit_of
        testers = np.flatnonzero(near)
        degrees = indptr[testers + 1] - indptr[testers]
        written = []
        for degree in sorted(set(degrees.tolist())):
            if degree < 2:
                continue
            group = testers[degrees == degree]
            iu, ju = _triu(degree)
            hit = hit_of[indices[indptr[group][:, None] + np.arange(degree)]]
            slots = pair_indptr[group][:, None] + np.arange(len(iu))
            written.append(slots[hit[:, iu] | hit[:, ju]])

        # The faulty testers' rows, ascending: the side table, and the
        # layout slots those rows occupy.
        starts = pair_indptr[fault_ids]
        counts = pair_indptr[fault_ids + 1] - starts
        side_base = np.cumsum(counts) - counts
        fault_slots = np.repeat(starts - side_base, counts)
        fault_slots += np.arange(fault_slots.size)
        name = behavior.name
        if name == "random" and type(behavior).result is FaultyTesterBehavior.result:
            # The stock coin is one rng.randint(0, 1) per pair in canonical
            # order: draw every faulty tester's coins at once.
            side = fair_coins(rng, fault_slots.size)
        else:
            side = np.zeros(fault_slots.size, dtype=np.uint8)
            for u, lo, count in zip(ordered, side_base.tolist(), counts.tolist()):
                if name == "all_zero":
                    continue
                if name == "all_one":
                    side[lo:lo + count] = 1
                    continue
                row = indices[indptr[u]:indptr[u + 1]]
                iu, ju = _triu(len(row))
                hit = hit_of[row]
                healthy = (hit[iu] | hit[ju]).astype(np.uint8)
                if name == "mimic":
                    side[lo:lo + count] = healthy
                elif name == "anti_mimic":
                    side[lo:lo + count] = healthy ^ 1
                else:
                    # Delegate per pair (consuming the rng in canonical
                    # order), so behaviours beyond the bulk-computable ones
                    # above — custom coins included — stay in lockstep with
                    # LazySyndrome.
                    row = row.tolist()
                    pairs = [(v, w) for i, v in enumerate(row) for w in row[i + 1:]]
                    side[lo:lo + count] = [
                        behavior.result(u, v, w, h, rng)
                        for (v, w), h in zip(pairs, healthy.tolist())
                    ]

        syndrome = cls.__new__(cls)
        Syndrome.__init__(syndrome)
        syndrome.csr = csr
        syndrome.faults = fault_set
        syndrome.fault_mask = mask
        syndrome.side_ids = fault_ids
        syndrome.side_base = side_base
        syndrome.side = side
        syndrome._buf = None
        syndrome._view = None

        hot = np.flatnonzero(side)
        healthy_count = sum(part.size for part in written)
        written.append(fault_slots[hot])
        offsets = np.concatenate(written)
        values = np.ones(offsets.size, dtype=np.uint8)
        values[healthy_count:] = side[hot]
        if 8 * offsets.size <= csr.num_pairs:
            if side.size and side.max() > 1:
                order = np.argsort(offsets)
                offsets, values = offsets[order], values[order]
            else:  # every recorded value is 1: sorting the offsets suffices
                offsets.sort()
        syndrome._nonzero = (offsets, values)
        return syndrome

    @classmethod
    def from_syndrome(cls, topology, syndrome: Syndrome) -> "ArraySyndrome":
        """Re-encode any syndrome oracle into a buffer-mode syndrome.

        Reads every entry through the oracle's raw ``_result`` (no lookup
        counting), in the canonical order — for a ``LazySyndrome`` this
        extends its cache exactly like ``materialize()`` would.
        """
        csr = compile_network(topology)
        values = bytearray(syndrome._result(u, v, w) for u, v, w in _slot_tests(csr))
        return cls(csr, values, faults=getattr(syndrome, "faults", frozenset()))

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

    def row_values(self, u: int) -> bytes:
        """Tester ``u``'s results, in slot order, without building the buffer."""
        csr = self.csr
        lo, hi = int(csr.pair_indptr[u]), int(csr.pair_indptr[u + 1])
        mask = self.fault_mask
        if mask is None:
            return bytes(self._buf[lo:hi])
        if not mask[u]:
            row = csr.indices[csr.indptr[u]:csr.indptr[u + 1]]
            iu, ju = _triu(len(row))
            hit = mask[row]
            return (hit[iu] | hit[ju]).tobytes()
        k = int(np.searchsorted(self.side_ids, u))
        base = int(self.side_base[k]) if k < self.side_ids.size else -1
        if self.side_ids[k:k + 1].tolist() != [u] or not (
            0 <= base <= self.side.size - (hi - lo)
        ):
            raise RuntimeError(f"faulty tester {u} has no side-table row")
        return self.side[base:base + hi - lo].tobytes()

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
