"""Tests for the event-driven distributed protocol engine.

Three layers:

* **property tests** (seeded random): on the default channel — unit latency,
  no loss, a single root — the engine's tree, round count and message count
  must be *identical* to the legacy analytical model
  (:func:`repro.distributed.simulator.derived_run_stats`) across network
  families (including non-bipartite ones, which exercise the same-round
  collision rule), fault sets and seeds;
* **fault-injection tests**: under message loss the engine still terminates
  (the ARQ sublayer is bounded) and never accuses a fault-free node;
  concurrent-root merges never double-count contributors;
* **golden traces** (see ``test_golden_traces`` and the files under
  ``tests/distributed/golden/``): byte-for-byte replay stability.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core.faults import random_faults
from repro.core.set_builder import set_builder
from repro.distributed import (
    ChannelConfig,
    ProtocolEngine,
    derived_run_stats,
    extended_star_gossip_cost,
    replay_stats,
)
from repro.networks.registry import cached_network

GOLDEN_DIR = Path(__file__).parent / "golden"

#: (family, params, fault budget, explicit δ for the sequential reference).
#: kary k=3 and the arrangement graphs are non-bipartite, so same-round
#: mutual invitations (the collision-coalescing rule) actually occur.
PROPERTY_INSTANCES = [
    ("hypercube", {"dimension": 5}, 5, None),
    ("hypercube", {"dimension": 6}, 6, None),
    ("crossed_cube", {"dimension": 5}, 5, None),
    ("kary_ncube", {"n": 3, "k": 3}, 4, 4),
    ("arrangement", {"n": 5, "k": 2}, 3, None),
    ("pancake", {"n": 5}, 3, None),
    ("star", {"n": 5}, 3, None),
]


def _instance(family, params, fault_count, seed):
    network = cached_network(family, **params)
    csr = compile_network(network)
    faults = random_faults(network, fault_count, seed=seed)
    syndrome = ArraySyndrome.from_faults(csr, faults, seed=seed)
    return network, csr, faults, syndrome


class TestLegacyEquivalence:
    """Zero latency / zero loss / single root ≡ the legacy derived stats."""

    @pytest.mark.parametrize("family,params,budget,delta", PROPERTY_INSTANCES)
    def test_stats_identical_across_random_runs(self, family, params, budget, delta):
        rng = random.Random(f"{family}-{params}")
        for trial in range(6):
            fault_count = rng.randint(0, budget)
            seed = rng.randrange(10_000)
            network, csr, faults, syndrome = _instance(family, params, fault_count, seed)
            healthy = [v for v in range(network.num_nodes) if v not in faults]
            root = rng.choice(healthy)
            legacy = derived_run_stats(network, syndrome, root, diagnosability=delta)
            outcome = ProtocolEngine(csr).run_set_builder(syndrome, root)
            engine_row = (outcome.rounds, outcome.messages, outcome.tree_size,
                          outcome.tree_depth, outcome.faults_found)
            assert engine_row == legacy.as_row(), (
                f"{family} {params} seed={seed} faults={sorted(faults)} root={root}"
            )

    @pytest.mark.parametrize("family,params,budget,delta", PROPERTY_INSTANCES)
    def test_tree_identical_to_sequential_set_builder(self, family, params, budget, delta):
        rng = random.Random(f"tree-{family}-{params}")
        for trial in range(4):
            seed = rng.randrange(10_000)
            network, csr, faults, syndrome = _instance(family, params, budget, seed)
            healthy = [v for v in range(network.num_nodes) if v not in faults]
            root = rng.choice(healthy)
            reference = set_builder(network, syndrome, root,
                                    diagnosability=delta or network.diagnosability())
            outcome = ProtocolEngine(csr).run_set_builder(syndrome, root)
            assert outcome.parent == reference.parent
            assert outcome.members == reference.nodes
            assert outcome.contributors == len(reference.contributors)

    def test_fault_free_run_covers_network(self):
        network, csr, _, syndrome = _instance("hypercube", {"dimension": 6}, 0, 0)
        legacy = derived_run_stats(network, syndrome, 0)
        outcome = ProtocolEngine(csr).run_set_builder(syndrome, 0)
        assert outcome.tree_size == network.num_nodes == legacy.tree_size
        assert outcome.rounds == legacy.rounds
        assert outcome.messages == legacy.messages

    def test_isolated_root_still_charges_two_rounds(self):
        """A root whose neighbours are all faulty grows nothing: 2 rounds, 0 messages."""
        network = cached_network("hypercube", dimension=3)
        csr = compile_network(network)
        faults = frozenset(int(v) for v in csr.neighbors(0))
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=0)
        legacy = derived_run_stats(network, syndrome, 0, diagnosability=3)
        outcome = ProtocolEngine(csr).run_set_builder(syndrome, 0)
        assert (outcome.rounds, outcome.messages) == (2, 0) == (legacy.rounds, legacy.messages)
        assert outcome.faults_found == len(faults) == legacy.faults_found


class TestFaultInjection:
    """Message loss: bounded termination, no false accusations."""

    @pytest.mark.parametrize("loss_rate", [0.05, 0.2, 0.5])
    def test_lossy_runs_terminate_without_false_positives(self, loss_rate):
        network, csr, faults, syndrome = _instance("hypercube", {"dimension": 6}, 6, 2)
        root = next(v for v in range(network.num_nodes) if v not in faults)
        baseline = ProtocolEngine(csr).run_set_builder(syndrome, root)
        assert baseline.faulty == faults  # sanity: instance diagnoses exactly
        for seed in range(3):
            cfg = ChannelConfig(loss_rate=loss_rate, seed=seed)
            outcome = ProtocolEngine(csr, config=cfg).run_set_builder(syndrome, root)
            assert not outcome.faulty - faults, "a fault-free node was accused"
            assert outcome.members <= baseline.members
            assert outcome.drops > 0 or loss_rate == 0.0

    def test_retries_bounded_and_counted(self):
        network, csr, faults, syndrome = _instance("hypercube", {"dimension": 5}, 5, 4)
        root = next(v for v in range(network.num_nodes) if v not in faults)
        cfg = ChannelConfig(loss_rate=0.3, seed=1, max_retries=2, timeout=2)
        outcome = ProtocolEngine(csr, config=cfg).run_set_builder(syndrome, root)
        assert outcome.retries > 0
        assert outcome.rounds < 10_000  # quiesced far below the engine guard

    def test_duplicate_delivery_is_idempotent(self):
        network, csr, faults, syndrome = _instance("hypercube", {"dimension": 5}, 5, 6)
        root = next(v for v in range(network.num_nodes) if v not in faults)
        baseline = ProtocolEngine(csr).run_set_builder(syndrome, root)
        cfg = ChannelConfig(duplicate_rate=0.3, seed=2)
        outcome = ProtocolEngine(csr, config=cfg).run_set_builder(syndrome, root)
        assert outcome.duplicates > 0
        assert outcome.members == baseline.members
        assert outcome.faulty == baseline.faulty

    def test_latency_delays_but_does_not_change_the_diagnosis(self):
        network, csr, faults, syndrome = _instance("hypercube", {"dimension": 5}, 5, 8)
        root = next(v for v in range(network.num_nodes) if v not in faults)
        baseline = ProtocolEngine(csr).run_set_builder(syndrome, root)
        cfg = ChannelConfig(latency="uniform:2:4", seed=3)
        outcome = ProtocolEngine(csr, config=cfg).run_set_builder(syndrome, root)
        assert outcome.members == baseline.members
        assert outcome.faulty == baseline.faulty
        assert outcome.rounds > baseline.rounds


class TestConcurrentRoots:
    def _multi(self, root_count, *, dimension=6, seed=2, config=None):
        network, csr, faults, syndrome = _instance(
            "hypercube", {"dimension": dimension}, dimension, seed)
        healthy = [v for v in range(network.num_nodes) if v not in faults]
        step = len(healthy) // root_count
        roots = tuple(healthy[i * step] for i in range(root_count))
        engine = ProtocolEngine(csr, config=config)
        return faults, engine.run_set_builder(syndrome, roots), roots

    @pytest.mark.parametrize("root_count", [2, 3, 4])
    def test_trees_partition_and_cover(self, root_count):
        faults, outcome, roots = self._multi(root_count)
        single = self._multi(1)[1]
        assert outcome.members == single.members  # same healthy region covered
        assert sum(outcome.per_root_sizes.values()) == outcome.tree_size
        assert set(outcome.root_of.values()) <= set(roots)
        assert outcome.faulty == single.faulty

    @pytest.mark.parametrize("root_count", [2, 3])
    def test_merges_never_double_count_contributors(self, root_count):
        _, outcome, _ = self._multi(root_count)
        truth = len(set(outcome.parent.values()))
        assert outcome.contributors == truth
        assert sum(outcome.per_root_contributors.values()) == outcome.contributors

    def test_adjacent_roots_record_merges(self):
        network, csr, faults, syndrome = _instance("hypercube", {"dimension": 6}, 6, 2)
        healthy = [v for v in range(network.num_nodes) if v not in faults]
        outcome = ProtocolEngine(csr).run_set_builder(syndrome, (healthy[0], healthy[1]))
        assert outcome.merges > 0

    def test_lossy_concurrent_roots_stay_sound(self):
        cfg = ChannelConfig(loss_rate=0.2, seed=5)
        faults, outcome, _ = self._multi(2, config=cfg)
        assert not outcome.faulty - faults

    def test_root_validation(self):
        network, csr, _, syndrome = _instance("hypercube", {"dimension": 4}, 0, 0)
        engine = ProtocolEngine(csr)
        with pytest.raises(ValueError):
            engine.run_set_builder(syndrome, ())
        with pytest.raises(ValueError):
            engine.run_set_builder(syndrome, (0, network.num_nodes))


class TestGossipOnEngine:
    def test_reliable_flood_matches_closed_form(self):
        for family, params in [("hypercube", {"dimension": 6}), ("star", {"n": 5})]:
            network = cached_network(family, **params)
            engine = ProtocolEngine(compile_network(network))
            rounds, messages = extended_star_gossip_cost(network, radius=3)
            measured = extended_star_gossip_cost(network, radius=3, engine=engine)
            assert measured == (rounds, messages)

    def test_lossy_flood_terminates_open_loop(self):
        network = cached_network("hypercube", dimension=6)
        engine = ProtocolEngine(compile_network(network),
                                config=ChannelConfig(loss_rate=0.2, seed=4))
        outcome = engine.run_gossip(3)
        assert outcome.messages == 2 * 3 * network.num_edges()  # open loop: no retries
        assert outcome.drops > 0
        assert outcome.rounds >= 3

    def test_radius_validation(self):
        engine = ProtocolEngine(compile_network(cached_network("hypercube", dimension=4)))
        with pytest.raises(ValueError):
            engine.run_gossip(0)


class TestGoldenTraces:
    """Checked-in canonical event logs: byte-for-byte replay stability."""

    CASES = {
        # Q_3, one fault, default reliable channel, single root.
        "q3_baseline.log": ("hypercube", {"dimension": 3}, frozenset({5}),
                            ChannelConfig(), (0,)),
        # Star_4, two faults, lossy channel (exercises DROP/retry/DECLINE
        # lines), two concurrent roots.
        "star4_lossy.log": ("star", {"n": 4}, frozenset({3, 17}),
                            ChannelConfig(loss_rate=0.15, seed=9), (0, 12)),
    }

    def _run(self, name):
        family, params, faults, config, roots = self.CASES[name]
        network = cached_network(family, **params)
        csr = compile_network(network)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=0)
        engine = ProtocolEngine(csr, config=config)
        return engine.run_set_builder(syndrome, roots, trace=True)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_trace_matches_checked_in_golden(self, name):
        outcome = self._run(name)
        golden = (GOLDEN_DIR / name).read_text()
        assert outcome.trace.to_text() == golden, (
            f"{name} drifted; regenerate with tests/distributed/make_golden.py "
            "only if the protocol change is intentional"
        )

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rerun_is_byte_identical(self, name):
        first = self._run(name).trace.to_text()
        second = self._run(name).trace.to_text()
        assert first == second

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_replays_to_engine_stats(self, name):
        outcome = self._run(name)
        replayed = replay_stats((GOLDEN_DIR / name).read_text())
        assert replayed.rounds == outcome.rounds
        assert replayed.messages == outcome.messages
        assert replayed.tree_size == outcome.tree_size
        assert replayed.faults_found == outcome.faults_found
