"""Cross-backend differential harness.

For every network family in the registry, this suite generates seeded
(topology, fault set, syndrome) triples and runs the *same* ``Set_Builder``
procedure through every execution backend:

* the rows oracle (the reference, transcribed from the paper) over
  ``TableSyndrome.from_faults``, which builds the syndrome from the MM
  model's definition and shares no code with the served layout;
* the rows oracle over the ``ArraySyndrome`` itself, which its restricted
  and budgeted runs take;
* the stacked kernel at width one, native C;
* the same width-one call with the native library off, which runs the
  rows oracle.

Every backend must agree **exactly** — grown sets, tree parents,
contributors, round counts, the ``all_healthy`` certificate, the syndrome
lookup count, and the accusation set ``N(U_r) \\ U_r`` the diagnosis layer
derives from the run.  Faulty-rooted runs are included deliberately: the
procedure is well-defined from any start node, and backends must agree there
too, even though only healthy-rooted runs feed Theorem 1.

The seeds derive positionally from the family name via ``SeedSequence``, so
the triples are stable across runs and machines without hand-maintained
fixtures.
"""

from __future__ import annotations

import dataclasses

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser
from repro.core.faults import clustered_faults, random_faults
from repro.core.set_builder import SetBuilderResult, set_builder
from repro.core.syndrome import TableSyndrome
from repro.parallel import spawn_seeds

BEHAVIORS = ("random", "all_zero")


def _family_seeds(network, count: int = 2) -> list[int]:
    """Stable per-family seeds (derived, not hand-picked)."""
    base = sum(ord(c) for c in network.family)
    return list(spawn_seeds(base, count))


def _triples(network):
    """Seeded ``(faults, syndrome, reference table)`` triples over one topology."""
    csr = compile_network(network)
    delta = network.diagnosability()
    for seed in _family_seeds(network):
        for behavior in BEHAVIORS:
            for placement in (random_faults, clustered_faults):
                faults = placement(network, delta, seed=seed)
                syndrome = ArraySyndrome.from_faults(
                    csr, faults, behavior=behavior, seed=seed
                )
                table = TableSyndrome.from_faults(
                    network, faults, behavior=behavior, seed=seed
                )
                yield faults, syndrome, table


def _roots(network, faults):
    """One healthy and (when possible) one faulty start node."""
    healthy = next(v for v in range(network.num_nodes) if v not in faults)
    roots = [healthy]
    if faults:
        roots.append(min(faults))
    return roots


def _signature(network, result: SetBuilderResult) -> dict:
    """Everything a backend must reproduce, including the accusation set."""
    csr = compile_network(network)
    return {
        "root": result.root,
        "nodes": frozenset(result.nodes),
        "parent": dict(result.parent),
        "contributors": frozenset(result.contributors),
        "rounds": result.rounds,
        "lookups": result.lookups,
        "all_healthy": result.all_healthy,
        "truncated": result.truncated,
        "accusations": frozenset(csr.boundary(result.nodes)),
    }


def _outcome(result) -> tuple:
    """A diagnosis (or its captured failure) minus the wall clock."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return (
        result.faulty, result.healthy_root, result.healthy_nodes,
        result.tree_parent, result.probes, result.partition_level,
        result.lookups,
    )


def _all_backends(
    network, syndrome: ArraySyndrome, table: TableSyndrome, root: int, monkeypatch
) -> dict[str, dict]:
    """Run one triple through every backend; key → signature."""
    runs = {
        "rows": set_builder(network, table, root),
        # An unreachable budget routes the array syndrome to the rows path
        # without changing semantics (the run is never truncated).
        "array-rows": set_builder(
            network, syndrome, root, max_nodes=network.num_nodes + 1
        ),
    }
    if native.native_kernel_active():
        runs["native"] = set_builder(network, syndrome, root)
    with monkeypatch.context() as patch:
        patch.setattr(native, "_forced_off", True)
        runs["native-off"] = set_builder(network, syndrome, root)
    return {name: _signature(network, result) for name, result in runs.items()}


class TestSetBuilderDifferential:
    def test_every_backend_agrees_on_every_family(self, tiny_network, monkeypatch):
        """The harness headline: every backend, all registry families, seeded triples."""
        checked = 0
        for faults, syndrome, table in _triples(tiny_network):
            for root in _roots(tiny_network, faults):
                signatures = _all_backends(
                    tiny_network, syndrome, table, root, monkeypatch
                )
                reference = signatures.pop("rows")
                for name, signature in signatures.items():
                    assert signature == reference, (
                        f"{tiny_network.family}: backend {name!r} diverged from the "
                        f"rows reference on faults={sorted(faults)} root={root}"
                    )
                checked += 1
        assert checked >= 8  # 2 seeds x 2 behaviors x 2 placements (x roots)

    def test_bounded_array_runs_match_the_rows_oracle(self, tiny_network):
        """Restricted, budgeted and stop-on-certificate array runs bypass the
        stacked kernel for the rows oracle, reading the seeded syndrome's
        lazily built buffer; each must equal the oracle over the table."""
        for faults, syndrome, table in _triples(tiny_network):
            for root in _roots(tiny_network, faults):
                for options in (
                    {"restrict": lambda v, r=root: v == r or v % 3 != 0},
                    {"max_nodes": max(1, tiny_network.num_nodes // 2)},
                    {"stop_on_certificate": True},
                ):
                    runs = [
                        set_builder(tiny_network, s, root, **options)
                        for s in (syndrome, table)
                    ]
                    array, rows = (_signature(tiny_network, r) for r in runs)
                    assert array == rows, (tiny_network.family, options, root)


class TestDiagnosisDifferential:
    """Full-pipeline agreement: the accusation sets of whole diagnoses."""

    def test_diagnose_equals_the_rows_oracle_diagnosis(self, tiny_network):
        """``diagnose`` runs the stacked kernel; the rows oracle must give
        the same result — probe records included — or the same failure."""
        diagnoser = GeneralDiagnoser(tiny_network)

        def outcome(syndrome):
            try:
                return _outcome(diagnoser.diagnose(syndrome))
            except DiagnosisError as exc:
                return _outcome(exc)

        for _, syndrome, table in _triples(tiny_network):
            assert outcome(syndrome) == outcome(table)
        csr = compile_network(tiny_network)
        doomed = ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
        assert outcome(doomed)[0] is DiagnosisError
        assert outcome(doomed) == outcome(doomed.to_table())

    def test_native_off_preserves_the_diagnosis(self, tiny_network, monkeypatch):
        """Native and native-off diagnoses agree exactly, or fail alike."""
        diagnoser = GeneralDiagnoser(tiny_network)
        for _, syndrome, _ in _triples(tiny_network):
            plain = _outcome(diagnoser.diagnose_many([syndrome])[0])
            with monkeypatch.context() as patch:
                patch.setattr(native, "_forced_off", True)
                assert _outcome(diagnoser.diagnose_many([syndrome])[0]) == plain

    def test_mixed_batch_matches_per_item_diagnosis(self, tiny_network):
        """A batch mixing stackable arrays, oracle-only tables and a doomed
        syndrome gives every slot the rows-oracle diagnosis of its item."""
        csr = compile_network(tiny_network)
        doomed = ArraySyndrome(csr, bytes([1]) * csr.num_pairs)
        sources = [syndrome for _, syndrome, _ in _triples(tiny_network)]
        sources.insert(1, doomed)
        batch = [s for source in sources for s in (source, source.to_table())]
        diagnoser = GeneralDiagnoser(tiny_network)
        results = diagnoser.diagnose_many(batch)
        assert isinstance(results[2], DiagnosisError)
        for pos, result in enumerate(results):
            oracle = sources[pos // 2].to_table()
            expected = diagnoser.diagnose_many([oracle])[0]
            assert _outcome(result) == _outcome(expected), (tiny_network.family, pos)


class TestHarnessInternals:
    def test_signatures_detect_divergence(self, q5):
        """The harness itself must not pass vacuously."""
        csr = compile_network(q5)
        faults = random_faults(q5, 3, seed=0)
        syndrome = ArraySyndrome.from_faults(csr, faults, seed=0)
        result = set_builder(q5, syndrome, _roots(q5, faults)[0])
        mutated = dataclasses.replace(result, rounds=result.rounds + 1)
        assert _signature(q5, mutated) != _signature(q5, result)

    def test_seeds_are_stable(self, q5):
        assert _family_seeds(q5) == _family_seeds(q5)
