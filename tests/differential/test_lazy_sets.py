"""The grown set and the tree are built on first read, and equal the oracle's.

A stacked ``Set_Builder`` result keeps the pass's member mask and parent
row, and builds ``nodes`` / ``parent`` / ``contributors`` only when one is
read; a diagnosis reads ``healthy_nodes`` / ``tree_parent`` from its final
run the same way.  On every registry family, with the native kernel on and
off (the rows oracle, as under ``REPRO_NO_NATIVE=1``), at widths 1 and 3,
this suite pins that nothing is built before the first read and that the
read values, their types, ``==`` and ``repr`` are exactly those of the rows
oracle, ``set_builder(network, syndrome.to_table(), root)`` and
``GeneralDiagnoser(network).diagnose(syndrome.to_table())``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core import native
from repro.core.diagnosis import DiagnosisError, GeneralDiagnoser
from repro.core.faults import random_faults
from repro.core.set_builder import set_builder, set_builder_many

WIDTHS = (1, 3)
#: The plain dataclass fields each result's ``==`` and ``repr`` keep.
RESULT_FIELDS = ("root", "all_healthy", "nodes", "parent", "contributors",
                 "rounds", "lookups", "truncated")
DIAGNOSIS_FIELDS = ("faulty", "healthy_root", "healthy_nodes", "tree_parent",
                    "probes", "partition_level", "lookups", "elapsed_seconds")


@pytest.fixture(params=[True, False], ids=["native", "oracle"])
def native_on(request, monkeypatch):
    if request.param and not native.native_kernel_active():
        pytest.skip("no C compiler available in this environment")
    monkeypatch.setattr(native, "_forced_off", not request.param or native._forced_off)
    return request.param


def _syndromes(network, width: int) -> list[ArraySyndrome]:
    csr = compile_network(network)
    delta = network.diagnosability()
    return [
        ArraySyndrome.from_faults(csr, random_faults(network, delta, seed=seed), seed=seed)
        for seed in range(width)
    ]


def _unbuilt(result) -> bool:
    return all(vars(result)[name] is None for name in ("nodes", "parent", "contributors"))


def _plain_repr(result, fields) -> str:
    """``repr`` of a plain dataclass with ``fields`` holding the read values."""
    plain = dataclasses.make_dataclass(type(result).__name__, fields)
    return repr(plain(**{name: getattr(result, name) for name in fields}))


@pytest.mark.parametrize("width", WIDTHS)
def test_set_builder_sets_are_read_lazily_and_equal_the_oracle(
    tiny_network, native_on, width
):
    syndromes = _syndromes(tiny_network, width)
    roots = [(7 * k) % tiny_network.num_nodes for k in range(width)]
    results = set_builder_many(tiny_network, syndromes, roots)
    for syndrome, root, result in zip(syndromes, roots, results):
        reference = set_builder(tiny_network, syndrome.to_table(), root)
        # The rows oracle grows real collections; only the kernel defers them.
        assert _unbuilt(result) == native_on
        assert result.size == len(reference.nodes)
        assert _unbuilt(result) == native_on  # counting reads the mask
        assert type(result.nodes) is set and result.nodes == reference.nodes
        assert type(result.parent) is dict and result.parent == reference.parent
        assert type(result.contributors) is set
        assert result.contributors == reference.contributors
        assert result == reference
        assert repr(result) == _plain_repr(result, RESULT_FIELDS)


@pytest.mark.parametrize("width", WIDTHS)
def test_diagnosis_sets_are_read_lazily_and_equal_the_oracle(
    tiny_network, native_on, width
):
    diagnoser = GeneralDiagnoser(tiny_network)
    syndromes = _syndromes(tiny_network, width)
    references = [diagnoser.diagnose_many([s.to_table()])[0] for s in syndromes]
    for outcome, reference in zip(diagnoser.diagnose_many(syndromes), references):
        if isinstance(reference, DiagnosisError):  # |F| = δ can violate Theorem 1
            assert repr(outcome) == repr(reference)
            continue
        assert _unbuilt(outcome.final) == native_on
        assert vars(outcome)["healthy_nodes"] is vars(outcome)["tree_parent"] is None
        assert outcome.summary().split(", ")[:3] == reference.summary().split(", ")[:3]
        assert _unbuilt(outcome.final) == native_on  # the summary built nothing
        assert type(outcome.healthy_nodes) is frozenset
        assert outcome.healthy_nodes == reference.healthy_nodes
        assert type(outcome.tree_parent) is dict
        assert outcome.tree_parent == reference.tree_parent
        same_clock = dataclasses.replace(
            reference, elapsed_seconds=outcome.elapsed_seconds
        )
        assert outcome == same_clock
        assert repr(outcome) == _plain_repr(outcome, DIAGNOSIS_FIELDS)


def test_equality_holds_exactly_when_the_read_values_agree(q7):
    """``==`` reads through the lazy fields, so a result whose collections
    differ from the oracle's compares unequal, however either was built."""
    [syndrome] = _syndromes(q7, 1)
    [result] = set_builder_many(q7, [syndrome], [0])
    reference = set_builder(q7, syndrome.to_table(), 0)
    assert result == reference and reference == result
    nodes = set(reference.nodes)
    nodes.discard(max(nodes))
    for changed in (
        dataclasses.replace(reference, nodes=nodes),
        dataclasses.replace(reference, parent={}),
        dataclasses.replace(reference, contributors=set()),
        dataclasses.replace(reference, rounds=reference.rounds + 1),
    ):
        assert result != changed and changed != result

    [outcome] = GeneralDiagnoser(q7).diagnose_many(_syndromes(q7, 1))
    assert outcome == dataclasses.replace(outcome)
    assert outcome != dataclasses.replace(outcome, tree_parent={})
    assert outcome != dataclasses.replace(outcome, healthy_nodes=frozenset())
