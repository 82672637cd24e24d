"""Deterministic seed derivation for parallel sweeps.

The reproducibility contract of the experiment layer is that a sweep's
results are a pure function of its trial table — never of how the table was
executed.  Each trial therefore carries its own seed, and replicate seeds are
derived *positionally* with :class:`numpy.random.SeedSequence` rather than
drawn from any shared generator: worker processes never consume a global RNG
stream, so ``parallel=True`` runs are bit-identical to serial runs regardless
of worker count, chunk size or scheduling order (pinned by
``tests/parallel/test_seeding.py``).

``SeedSequence.spawn`` gives statistically independent child streams from one
base seed — replicate ``i`` always maps to the same derived seed, whichever
worker (or chunk) ends up running it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_seeds", "derive_seed"]


def spawn_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """``count`` independent replicate seeds derived from ``base_seed``.

    Child ``i`` of ``SeedSequence(base_seed)`` is collapsed to one 32-bit
    integer, the format every seeded component of the reproduction accepts
    (``random.Random``, :class:`~repro.core.syndrome.FaultyTesterBehavior`,
    the channel models).  The mapping is a pure function of
    ``(base_seed, i)``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(base_seed).spawn(count)
    return tuple(int(child.generate_state(1, np.uint32)[0]) for child in children)


def derive_seed(base_seed: int, *path: int) -> int:
    """One derived seed for a position ``path`` under ``base_seed``.

    ``derive_seed(s, i, j)`` follows the spawn tree ``s -> child i -> child
    j``; chunk- or worker-local randomness (should a future component need
    any) must come from here, keyed by the *logical* position, never by the
    worker that happens to execute it.
    """
    sequence = np.random.SeedSequence(base_seed)
    for index in path:
        if index < 0:
            raise ValueError("path indices must be non-negative")
        sequence = sequence.spawn(index + 1)[index]
    return int(sequence.generate_state(1, np.uint32)[0])
