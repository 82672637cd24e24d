"""Flat-array syndrome storage for the MM model.

:class:`ArraySyndrome` stores every comparison-test result ``s_u(v, w)`` in a
single flat byte buffer, indexed by the dense *pair layout* of the compiled
topology (:class:`~repro.backend.csr.CSRAdjacency`): tester ``u``'s result for
the pair at sorted-row positions ``(i, j)`` with ``i < j`` lives at

    ``pair_base[u] + i·(2·deg(u) − i − 1)/2 + (j − i − 1)``

so a lookup is a handful of integer operations instead of a tuple hash into a
dict.  The class still derives from :class:`~repro.core.syndrome.Syndrome`, so
everything written against the abstract oracle (the baselines, the verifier,
the lookup-count accounting of experiment E5/E6) keeps working unchanged — the
flat buffer is the fast substrate, the ``Syndrome`` API is the thin adapter.

Generation from a hidden fault set is *fault-sparse*: a healthy tester's
entry is non-zero only when the tester neighbours a fault, so the buffer
starts zeroed and only the rows of faults and their neighbours are written.
Faulty testers are then filled per the configured
:class:`~repro.core.syndrome.FaultyTesterBehavior` in the exact canonical
order of ``LazySyndrome.materialize()`` (testers ascending, sorted rows, pairs
``(i, j)`` with ``i < j``), so an ``ArraySyndrome`` agrees entry-for-entry
with a materialised :class:`~repro.core.syndrome.TableSyndrome` built from the
same faults, behaviour and seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

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
    """A complete syndrome stored as one flat byte buffer over the pair layout."""

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
        elif not copy and isinstance(values, bytearray):
            buf = values  # a freshly generated buffer (from_faults)
        else:
            buf = bytearray(values)
        if len(buf) != self.csr.num_pairs:
            raise ValueError(
                f"expected {self.csr.num_pairs} test results, got {len(buf)}"
            )
        self._buf = buf
        self.faults = frozenset(int(f) for f in faults)
        #: Ascending offsets of the nonzero bytes, when a build knows them
        #: (see :meth:`from_faults`); ``None`` means "scan to find out".
        self.nonzero_offsets: np.ndarray | None = None

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
        """Generate the full syndrome of a hidden fault set (fault-sparse).

        ``topology`` may be a network or an already compiled
        :class:`CSRAdjacency`.  A healthy tester answers ``mask[v] | mask[w]``,
        which is non-zero only next to a fault, so the zeroed buffer is
        written for the faults and their neighbours alone — at most
        ``|F|·(Δ+1)`` testers, one numpy gather per degree.  Faulty testers
        then consume the seeded generator in the canonical materialisation
        order, reproducing ``LazySyndrome.materialize()`` entry for entry.

        The build also records :attr:`nonzero_offsets` from the slots it
        wrote — O(|N[F]|·Δ²), no second pass over the buffer — so the
        content digest need not scan the buffer.  They are left ``None``
        when more than an eighth of the bytes are nonzero: the digest then
        hashes the raw bytes and sorting the offsets would be wasted.
        """
        csr = compile_network(topology)
        fault_set = frozenset(int(f) for f in faults)
        for f in fault_set:
            if not 0 <= f < csr.num_nodes:
                raise ValueError(f"fault {f} is not a node of the network")
        if isinstance(behavior, str):
            behavior = FaultyTesterBehavior(behavior, seed=seed)
        rng = random.Random(seed)

        buf = bytearray(csr.num_pairs)
        values = np.frombuffer(buf, dtype=np.uint8)
        indptr, indices, pair_indptr = csr.indptr, csr.indices, csr.pair_indptr
        ordered = sorted(fault_set)
        fault_ids = np.asarray(ordered, dtype=np.int64)
        mask = np.zeros(csr.num_nodes, dtype=bool)
        mask[fault_ids] = True

        # Healthy testers next to a fault, grouped by degree.  The buffer
        # starts zeroed, so only their nonzero answers are written; those
        # slots are also the digest's nonzero offsets.
        near = np.zeros(csr.num_nodes, dtype=bool)
        near[indices[csr.row_addresses(fault_ids)[0]]] = True
        near &= ~mask
        testers = np.flatnonzero(near)
        degrees = indptr[testers + 1] - indptr[testers]
        written = []
        for degree in sorted(set(degrees.tolist())):
            if degree < 2:
                continue
            group = testers[degrees == degree]
            iu, ju = _triu(degree)
            hit = mask[indices[indptr[group][:, None] + np.arange(degree)]]
            slots = pair_indptr[group][:, None] + np.arange(len(iu))
            hot = slots[hit[:, iu] | hit[:, ju]]
            values[hot] = 1
            written.append(hot)

        name = behavior.name
        if name == "random" and type(behavior).result is FaultyTesterBehavior.result:
            # The stock coin is one rng.randint(0, 1) per pair in canonical
            # order: draw every faulty tester's coins at once and scatter
            # them over the testers' slot spans, ascending.
            starts = pair_indptr[fault_ids]
            counts = pair_indptr[fault_ids + 1] - starts
            slots = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            slots += np.arange(slots.size)
            coins = fair_coins(rng, slots.size)
            values[slots] = coins
            written.append(slots[coins != 0])
            return cls._built(csr, buf, fault_set, written)
        for u in ordered:
            lo, hi = int(pair_indptr[u]), int(pair_indptr[u + 1])
            if name == "all_zero":
                continue
            if name == "all_one":
                values[lo:hi] = 1
            else:
                row = indices[indptr[u]:indptr[u + 1]]
                iu, ju = _triu(len(row))
                hit = mask[row]
                healthy = (hit[iu] | hit[ju]).astype(np.uint8)
                if name == "mimic":
                    values[lo:hi] = healthy
                elif name == "anti_mimic":
                    values[lo:hi] = healthy ^ 1
                else:
                    # Delegate per pair (consuming the rng in canonical
                    # order), so behaviours beyond the bulk-computable ones
                    # above — custom coins included — stay in lockstep with
                    # LazySyndrome.
                    row = row.tolist()
                    pairs = [(v, w) for i, v in enumerate(row) for w in row[i + 1:]]
                    values[lo:hi] = [
                        behavior.result(u, v, w, h, rng)
                        for (v, w), h in zip(pairs, healthy.tolist())
                    ]
            written.append(np.flatnonzero(values[lo:hi]) + lo)
        return cls._built(csr, buf, fault_set, written)

    @classmethod
    def _built(cls, csr, buf, fault_set, written) -> "ArraySyndrome":
        """Adopt a generated buffer with the nonzero slots its build wrote."""
        syndrome = cls(csr, buf, faults=fault_set, copy=False)
        count = sum(len(part) for part in written)
        if 8 * count <= len(buf):
            offsets = np.concatenate(written) if written else np.empty(0, np.int64)
            offsets.sort()
            syndrome.nonzero_offsets = offsets
        return syndrome

    @classmethod
    def from_syndrome(cls, topology, syndrome: Syndrome) -> "ArraySyndrome":
        """Re-encode any syndrome oracle into the flat pair layout.

        Reads every entry through the oracle's raw ``_result`` (no lookup
        counting), in the canonical order — for a ``LazySyndrome`` this
        extends its cache exactly like ``materialize()`` would.
        """
        csr = compile_network(topology)
        values = bytearray(syndrome._result(u, v, w) for u, v, w in _slot_tests(csr))
        return cls(
            csr, values, faults=getattr(syndrome, "faults", frozenset()), copy=False
        )

    # ---------------------------------------------------------------- oracle
    def _result(self, u: int, v: int, w: int) -> int:
        csr = self.csr
        row = csr.rows[u]
        d = len(row)
        i = bisect_left(row, v)
        j = bisect_left(row, w)
        if i >= d or row[i] != v or j >= d or row[j] != w:
            raise KeyError((u, v, w))
        return self._buf[csr.pair_base[u] + pair_offset(i, j, d)]

    @property
    def buffer(self):
        """The raw result buffer (read-only by convention; used by fast paths).

        A ``bytearray`` normally; a flat ``uint8`` array when the syndrome
        adopted one zero-copy (``copy=False``) — both index and slice the
        same way, and ``bytes(buffer)`` works on either.
        """
        return self._buf

    @property
    def values_array(self) -> np.ndarray:
        """Zero-copy ``uint8`` array view of the buffer (vectorised paths)."""
        if isinstance(self._buf, np.ndarray):
            return self._buf
        return np.frombuffer(self._buf, dtype=np.uint8)

    # ----------------------------------------------------------- conversions
    def __len__(self) -> int:
        """Number of entries in the full syndrome table."""
        return self.csr.num_pairs

    def items(self) -> Iterator[tuple[tuple[int, int, int], int]]:
        """Iterate ``((u, v, w), result)`` pairs (table-scanning callers)."""
        return zip(_slot_tests(self.csr), self._buf)

    def to_table(self) -> TableSyndrome:
        """Export as a dict-backed :class:`TableSyndrome` (tests, adapters)."""
        return TableSyndrome(dict(self.items()))
