"""The distributed ``Set_Builder`` protocol's single-root contract.

These checks predate the event-driven engine: they run the protocol on
:class:`~repro.distributed.engine.ProtocolEngine`'s default (unit-latency,
lossless) channel, and check it against the analytical reference models
:func:`derived_run_stats` and :func:`extended_star_gossip_cost` that
:mod:`repro.distributed.simulator` keeps.
"""

from __future__ import annotations

import pytest

from repro.core.faults import random_faults
from repro.core.syndrome import generate_syndrome, syndrome_table_size
from repro.distributed import (
    ProtocolEngine,
    derived_run_stats,
    extended_star_gossip_cost,
)
from repro.networks import Hypercube, KAryNCube


class TestDistributedSetBuilder:
    def test_fault_free_run_covers_network(self):
        cube = Hypercube(7)
        syndrome = generate_syndrome(cube, frozenset())
        stats = ProtocolEngine(cube).run_set_builder(syndrome, 0)
        assert stats.tree_size == cube.num_nodes
        assert stats.tree_depth == 7
        assert stats.faults_found == 0

    def test_rounds_scale_with_depth_not_size(self):
        cube = Hypercube(9)
        syndrome = generate_syndrome(cube, frozenset())
        stats = ProtocolEngine(cube).run_set_builder(syndrome, 0)
        # 2 rounds per growth phase + depth rounds of convergecast.
        assert stats.rounds <= 3 * 9 + 2
        assert stats.rounds < cube.num_nodes

    def test_messages_linear_in_edges(self):
        cube = Hypercube(8)
        syndrome = generate_syndrome(cube, frozenset())
        stats = ProtocolEngine(cube).run_set_builder(syndrome, 0)
        assert stats.messages <= 4 * cube.num_edges()

    def test_faults_found_matches_injection(self):
        cube = Hypercube(8)
        faults = random_faults(cube, 8, seed=3)
        syndrome = generate_syndrome(cube, faults, seed=3)
        # Root 0 is healthy for this seed (otherwise pick another).
        root = next(v for v in range(cube.num_nodes) if v not in faults)
        stats = ProtocolEngine(cube).run_set_builder(syndrome, root)
        assert stats.faults_found == len(faults)

    def test_works_on_kary_ncube(self):
        net = KAryNCube(3, 5)
        faults = random_faults(net, 6, seed=1)
        syndrome = generate_syndrome(net, faults, seed=1)
        root = next(v for v in range(net.num_nodes) if v not in faults)
        stats = ProtocolEngine(net).run_set_builder(syndrome, root)
        assert stats.faults_found == len(faults)
        assert stats.rounds > 0

    def test_as_row(self):
        cube = Hypercube(7)
        syndrome = generate_syndrome(cube, frozenset())
        stats = derived_run_stats(cube, syndrome, 0)
        assert len(stats.as_row()) == 5


class TestEngineAgainstAnalyticalModel:
    def test_engine_reproduces_derived_stats(self):
        """The engine's default channel and the legacy derivation agree exactly."""
        cube = Hypercube(7)
        faults = random_faults(cube, 7, seed=5)
        syndrome = generate_syndrome(cube, faults, seed=5)
        root = next(v for v in range(cube.num_nodes) if v not in faults)
        outcome = ProtocolEngine(cube).run_set_builder(syndrome, root)
        assert (outcome.rounds, outcome.messages, outcome.tree_size,
                outcome.tree_depth, outcome.faults_found) == \
            derived_run_stats(cube, syndrome, root).as_row()

    def test_module_keeps_only_the_reference_models(self):
        import repro.distributed
        from repro.distributed import simulator

        assert simulator.__all__ == [
            "DistributedRunStats", "derived_run_stats", "extended_star_gossip_cost",
        ]
        assert not hasattr(repro.distributed, "DistributedSetBuilder")
        assert "engine" in simulator.__doc__


class TestGossipCost:
    def test_rounds_equal_radius(self):
        rounds, _ = extended_star_gossip_cost(Hypercube(8), radius=3)
        assert rounds == 3

    def test_messages_proportional_to_edges(self):
        cube = Hypercube(8)
        _, messages = extended_star_gossip_cost(cube, radius=3)
        assert messages == 2 * 3 * cube.num_edges()

    def test_distributed_set_builder_cheaper_than_gossip(self):
        """The paper's closing claim: its distributed form beats Chiang & Tan's."""
        cube = Hypercube(9)
        syndrome = generate_syndrome(cube, frozenset())
        stats = ProtocolEngine(cube).run_set_builder(syndrome, 0)
        _, gossip_messages = extended_star_gossip_cost(cube, radius=3)
        assert stats.messages < gossip_messages
