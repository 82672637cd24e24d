"""Seed-derivation tests: parallel sweeps must be bit-identical to serial."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.trials import TrialPlan
from repro.parallel import WorkerPool, derive_seed, spawn_seeds


class TestSpawnSeeds:
    def test_deterministic_and_positional(self):
        assert spawn_seeds(7, 5) == spawn_seeds(7, 5)
        # A prefix of a longer spawn is the shorter spawn: replicate i never
        # depends on how many replicates were requested after it.
        assert spawn_seeds(7, 3) == spawn_seeds(7, 5)[:3]

    def test_independent_of_base(self):
        assert spawn_seeds(1, 4) != spawn_seeds(2, 4)

    def test_distinct_within_a_spawn(self):
        seeds = spawn_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_empty_and_invalid(self):
        assert spawn_seeds(0, 0) == ()
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestDeriveSeed:
    def test_path_determinism(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)
        assert derive_seed(3) != derive_seed(4)

    def test_rejects_negative_path(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)


class TestWorkerCountInvariance:
    """The satellite fix: results are a function of the table, not the pool."""

    def test_parallel_sweeps_are_bit_identical_to_serial(self):
        plan = TrialPlan.from_factors(
            [("Q_6", "hypercube", {"dimension": 6}),
             ("Q_7", "hypercube", {"dimension": 7})],
            seeds=4,  # spawned replicate seeds, positional by construction
            placements=("random", "clustered"),
        )
        def norm(results):
            return [dataclasses.replace(r, elapsed_seconds=0.0) for r in results]

        serial = norm(plan.run())
        for workers in (1, 2, 3):
            with WorkerPool(max_workers=workers) as pool:
                pooled = norm(plan.run(pool=pool))
            assert pooled == serial, f"{workers}-worker run diverged from serial"

    def test_spawned_seeds_flow_into_specs(self):
        plan = TrialPlan.from_factors(
            [("Q_6", "hypercube", {"dimension": 6})], seeds=3, base_seed=9,
        )
        assert [t.seed for t in plan.trials] == list(spawn_seeds(9, 3))
