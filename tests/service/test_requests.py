"""Request model: keys, digests, JSONL parsing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.array_syndrome import ArraySyndrome
from repro.backend.csr import compile_network
from repro.core.faults import random_faults
from repro.core.syndrome import FaultyTesterBehavior
from repro.networks.registry import FAMILIES, compiled_network
from repro.service.executor import PLACEMENTS, resolve_topology, run_direct
from repro.service.requests import (
    DIGEST_SCHEMES,
    DiagnosisRequest,
    DiagnosisResponse,
    request_key,
    syndrome_digest,
    topology_key,
)
from tests.service.canonical import reference_digest


class TestKeys:
    def test_topology_key_is_order_insensitive(self):
        assert topology_key("kary_ncube", {"n": 3, "k": 5}) == \
            topology_key("kary_ncube", {"k": 5, "n": 3})

    def test_request_key_separates_generation_parameters(self):
        base = dict(family="hypercube", params={"dimension": 6})
        keys = {
            request_key(DiagnosisRequest.seeded(**base, seed=seed, placement=placement))
            for seed in (0, 1)
            for placement in ("random", "clustered")
        }
        assert len(keys) == 4

    def test_explicit_requests_key_on_content(self):
        first = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00\x01")
        same = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x00\x01")
        other = DiagnosisRequest.from_syndrome("hypercube", {"dimension": 5}, b"\x01\x01")
        assert request_key(first) == request_key(same)
        assert request_key(first) != request_key(other)
        digest = reference_digest(b"\x00\x01")
        assert request_key(first) == f"hypercube[dimension=5]|{digest}"

    @pytest.mark.parametrize("share", [0.5, 0.01])
    def test_digest_is_the_same_for_every_buffer_type(self, share):
        """The digest reads a buffer in place; the value depends on the
        bytes only, never on the object holding them (dense and sparse)."""
        rng = np.random.default_rng(3)
        data = bytes((rng.random(4099) < share).astype(np.uint8))
        expected = reference_digest(data)
        assert expected.startswith("dense" if share > 0.125 else "sparse")
        # A shared-memory-style arena: the syndrome sits at an odd offset.
        arena = np.zeros(len(data) + 17, dtype=np.uint8)
        arena[5:5 + len(data)] = np.frombuffer(data, dtype=np.uint8)
        strided = np.repeat(np.frombuffer(data, dtype=np.uint8), 2)[::2]
        assert not strided.flags.c_contiguous
        for buffer in (
            data,
            bytearray(data),
            memoryview(data),
            np.frombuffer(data, dtype=np.uint8),
            arena[5:5 + len(data)],
            strided,
            memoryview(strided),
        ):
            assert syndrome_digest(buffer) == expected

    def test_keys_are_computed_once_per_request(self, monkeypatch):
        from repro.service import requests as module

        calls = []
        for name in ("request_key", "topology_key"):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        request = DiagnosisRequest.seeded("star", {"n": 6}, seed=2)
        for _ in range(3):
            assert request.key == request_key(request)
            assert request.topology_key == "star[n=6]"
        assert sorted(calls) == ["request_key", "topology_key"]

    def test_describe_is_stable_and_compact(self):
        request = DiagnosisRequest.seeded("star", {"n": 6}, seed=2)
        assert request.describe() == "star[n=6] random/delta random seed=2"

    def test_explicit_describe_names_the_scheme(self):
        request = DiagnosisRequest.from_syndrome("star", {"n": 6}, bytes(9))
        hexdigest = reference_digest(bytes(9)).partition(":")[2]
        assert request.describe() == f"star[n=6] syndrome@sparse-sha256:{hexdigest[:12]}"


class TestCanonicalDigest:
    """The canonical form: sparse below an eighth nonzero, dense above."""

    LENGTHS = (0, 1, 7, 8, 9, 63, 64, 65, 4099)

    @pytest.mark.parametrize("fill", [0, 1])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_uniform_buffers_match_the_reference(self, fill, length):
        data = bytes([fill]) * length
        digest = syndrome_digest(data)
        assert digest == reference_digest(data)
        scheme = "sparse-sha256" if fill == 0 or length == 0 else "dense-sha256"
        assert digest.startswith(scheme + ":")

    @pytest.mark.parametrize("length", [64, 65, 71, 72, 4099])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_the_eighth_boundary_on_both_sides(self, length, extra):
        """``8·k = n`` (or the largest ``k`` with ``8·k ≤ n``) is sparse;
        one more nonzero byte is dense.  Nonzero bytes sit in the
        ``n mod 8`` tail too, and carry values other than 1."""
        count = length // 8 + extra
        rng = np.random.default_rng(length)
        data = np.zeros(length, dtype=np.uint8)
        offsets = np.sort(rng.choice(length - 1, count - 1, replace=False))
        data[offsets] = rng.integers(1, 256, offsets.size)
        data[-1] = 7  # always one nonzero byte at the very end
        raw = data.tobytes()
        digest = syndrome_digest(raw)
        assert digest == reference_digest(raw)
        assert digest.startswith("dense-sha256:" if extra else "sparse-sha256:")
        # Handing over the known offsets gives the same digest, unscanned.
        assert syndrome_digest(raw, np.flatnonzero(data)) == digest

    @pytest.mark.parametrize("length", [64, 65, 4099])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_front_loaded_buffers_at_the_boundary(self, length, extra):
        """Nonzero bytes packed at the start, where the count can stop
        early, pick the same body as the definition."""
        raw = b"\x01" * (length // 8 + extra) + bytes(length - length // 8 - extra)
        digest = syndrome_digest(raw)
        assert digest == reference_digest(raw)
        assert digest.startswith("dense-sha256:" if extra else "sparse-sha256:")

    def test_values_and_length_are_part_of_the_form(self):
        base = bytearray(100)
        base[10] = 1
        other = bytearray(base)
        other[10] = 2
        digests = {
            syndrome_digest(bytes(base)),
            syndrome_digest(bytes(other)),
            syndrome_digest(bytes(base) + b"\0"),
        }
        assert len(digests) == 3

    def test_every_digest_names_its_scheme(self):
        for data in (bytes(64), b"\x01" * 64):
            scheme, _, hexdigest = syndrome_digest(data).partition(":")
            assert scheme in DIGEST_SCHEMES
            assert len(hexdigest) == 64 and int(hexdigest, 16) >= 0

    def test_explicit_requests_cache_their_digest(self, monkeypatch):
        import repro.service.requests as requests

        calls = []
        digest = requests.syndrome_digest
        monkeypatch.setattr(
            requests, "syndrome_digest", lambda *a: calls.append(1) or digest(*a)
        )
        request = DiagnosisRequest.from_syndrome("star", {"n": 6}, bytes(720))
        keys = {request.key, request_key(request), request.key}
        request.describe()
        assert len(keys) == 1 and len(calls) == 1
        assert DiagnosisRequest.seeded("star", {"n": 6}).digest is None


def _seeded_digests(network, count, placement, behavior, seed=3):
    csr = compile_network(network)
    faults = PLACEMENTS[placement](network, count, seed=seed)
    syndrome = ArraySyndrome.from_faults(csr, faults, behavior=behavior, seed=seed)
    built = syndrome_digest(*syndrome.digest_source)  # as the executor does
    return syndrome, bytes(syndrome.buffer), built


class TestSeededDigest:
    """A seeded build's recorded offsets and values give the explicit digest."""

    def test_every_family_behaviour_and_placement(self, small_network):
        for placement in PLACEMENTS:
            for behavior in FaultyTesterBehavior.NAMES:
                syndrome, raw, built = _seeded_digests(
                    small_network, small_network.diagnosability(),
                    placement, behavior,
                )
                case = (small_network.family, placement, behavior)
                assert built == syndrome_digest(raw) == reference_digest(raw), case
                nonzero = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8))
                if syndrome.nonzero_offsets is None:
                    assert 8 * nonzero.size > len(raw), case
                else:
                    assert np.array_equal(syndrome.nonzero_offsets, nonzero), case
                    values = np.frombuffer(raw, dtype=np.uint8)[nonzero]
                    assert np.array_equal(syndrome.nonzero_values, values), case

    def test_many_faults_force_the_dense_body(self, small_network):
        count = small_network.num_nodes // 2
        for behavior in FaultyTesterBehavior.NAMES:
            syndrome, raw, built = _seeded_digests(
                small_network, count, "random", behavior
            )
            assert syndrome.nonzero_offsets is None
            assert built.startswith("dense-sha256:")
            assert built == syndrome_digest(raw) == reference_digest(raw)


class TestFromDict:
    def test_minimal_and_full_forms(self):
        minimal = DiagnosisRequest.from_dict({"family": "hypercube"})
        assert minimal.params == ()
        full = DiagnosisRequest.from_dict({
            "family": "hypercube", "params": {"dimension": 7},
            "placement": "clustered", "fault_count": 3,
            "behavior": "mimic", "seed": 9,
        })
        assert full.network_kwargs == {"dimension": 7}
        assert full.fault_count == 3

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            DiagnosisRequest.from_dict({"family": "hypercube", "nonsense": 1})

    def test_missing_family_rejected(self):
        with pytest.raises(ValueError, match="'family'"):
            DiagnosisRequest.from_dict({"seed": 1})

    def test_non_integer_params_rejected(self):
        with pytest.raises(ValueError, match="must be an integer"):
            DiagnosisRequest.from_dict(
                {"family": "hypercube", "params": {"dimension": "7"}}
            )
        with pytest.raises(ValueError, match="must be an integer"):
            DiagnosisRequest.from_dict(
                {"family": "hypercube", "params": {"dimension": True}}
            )
        with pytest.raises(ValueError, match="must be an object"):
            DiagnosisRequest.from_dict({"family": "hypercube", "params": [7]})

    @pytest.mark.parametrize("field, value", [
        *[(field, value) for field in ("fault_count", "seed")
          for value in (2.5, 1.9, True, "3", [1])],
        *[(field, value) for field in ("family", "placement", "behavior")
          for value in ([1], {"a": 1}, 7, None)],
    ])
    def test_non_integer_seeded_fields_rejected(self, field, value):
        kind = "an integer" if field in ("fault_count", "seed") else "a string"
        with pytest.raises(ValueError, match=f"'{field}' must be {kind}"):
            DiagnosisRequest.from_dict({"family": "hypercube", field: value})

    def test_null_fault_count_means_delta_but_null_seed_is_rejected(self):
        parsed = DiagnosisRequest.from_dict(
            {"family": "hypercube", "fault_count": None}
        )
        assert parsed.fault_count is None
        with pytest.raises(ValueError, match="'seed' must be an integer"):
            DiagnosisRequest.from_dict({"family": "hypercube", "seed": None})


class TestConstructorChecks:
    """Every constructor refuses a malformed request (``ValueError``)."""

    @pytest.mark.parametrize("field, value, message", [
        ("seed", 1.5, "'seed' must be an integer"),
        ("seed", True, "'seed' must be an integer"),
        ("params", {"dimension": 7.0}, "param 'dimension' must be an integer"),
        ("tenant", "a b", "forbidden characters"),
        ("fault_count", 0, "'fault_count' must be an integer of at least 1"),
        ("placement", "bogus", "unknown placement"),
        ("behavior", "bogus", "unknown behavior"),
        ("family", "mesh", "unknown network family"),
    ])
    def test_python_built_requests_are_refused(self, field, value, message):
        fields = {"family": "hypercube", "params": {"dimension": 7}, field: value}
        with pytest.raises(ValueError, match=message):
            DiagnosisRequest.seeded(**fields)

    def test_direct_construction_and_replace_are_checked(self):
        with pytest.raises(ValueError, match="'params' must be"):
            DiagnosisRequest(family="hypercube", params={"dimension": 7})
        with pytest.raises(ValueError, match="'params' must be"):
            DiagnosisRequest(family="hypercube", params=((7, "dimension"),))
        request = DiagnosisRequest.seeded("hypercube", {"dimension": 7})
        with pytest.raises(ValueError, match="'seed' must be an integer"):
            dataclasses.replace(request, seed="3")

    def test_an_oversized_topology_is_a_valid_request(self):
        """The node cap is a limit of the service, not of a request."""
        request = DiagnosisRequest.seeded("hypercube", {"dimension": 30})
        assert request.topology_key == "hypercube[dimension=30]"

    @pytest.mark.parametrize("data", [
        b"\x02", b"\x00" * 63 + b"\xff", b"\x01\x02" * 64, b"\x02" * 9,
    ])
    def test_explicit_bytes_other_than_0_and_1_are_refused(self, data):
        with pytest.raises(ValueError, match="0/1"):
            DiagnosisRequest.from_syndrome("star", {"n": 6}, data)

    @pytest.mark.parametrize("data", [bytes(64), b"\x01" + bytes(63), b"\x01" * 64])
    def test_binary_explicit_bytes_keep_their_digest(self, data):
        request = DiagnosisRequest.from_syndrome("star", {"n": 6}, data)
        assert request.digest == syndrome_digest(data) == reference_digest(data)
        assert dataclasses.replace(request, tenant="acme").digest == request.digest


def _explicit_hex() -> str:
    network, csr = compiled_network("hypercube", dimension=5)
    syndrome = ArraySyndrome.from_faults(csr, random_faults(network, 3, seed=4), seed=4)
    return bytes(syndrome.buffer).hex()


#: Two valid bodies, one per syndrome form, whose fields the property
#: below replaces one at a time.
VALID_BODIES = (
    {"family": "hypercube", "params": {"dimension": 5}, "placement": "clustered",
     "fault_count": 3, "behavior": "mimic", "seed": 4, "tenant": "acme"},
    {"family": "hypercube", "params": {"dimension": 5},
     "syndrome_hex": _explicit_hex(), "tenant": "acme"},
)
WIRE_FIELDS = ("family", "params", "placement", "fault_count", "behavior",
               "seed", "tenant", "syndrome_hex")
#: Arbitrary JSON values, plus near-valid ones (known names, small
#: integers, parameter objects, short binary hex) that reach deeper checks.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
) | st.integers(-2, 12) | st.sampled_from([
    *FAMILIES, *PLACEMENTS, *FaultyTesterBehavior.NAMES, "", "00", "01", "0102",
    {"dimension": 6}, {"dimension": 30}, {"n": 5}, {"n": 3, "k": 4}, {},
])


class TestFromDictProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(base=st.sampled_from(VALID_BODIES), field=st.sampled_from(WIRE_FIELDS),
           value=JSON_VALUES)
    def test_any_field_value_is_refused_or_answered(self, base, field, value):
        """``from_dict`` raises ``ValueError`` or returns a request that
        ``run_direct`` answers without raising.  A topology over 1,024
        nodes is only constructed; one whose constructor refuses the
        parameters is the 400 the edge answers for a failed resolve."""
        body = dict(base, **{field: value})
        try:
            request = DiagnosisRequest.from_dict(body)
        except ValueError:
            return
        try:
            nodes = FAMILIES[request.family].node_count(**request.network_kwargs)
        except (TypeError, ValueError):
            nodes = 0
        if nodes > 1024:
            return
        try:
            network, csr = resolve_topology(request.family, request.network_kwargs)
        except (TypeError, ValueError):
            return
        response = run_direct(request, network=network, csr=csr)
        assert isinstance(response, DiagnosisResponse)
        assert response.topology_key == request.topology_key


class TestTenant:
    def test_default_tenant(self):
        from repro.service.requests import DEFAULT_TENANT

        request = DiagnosisRequest.seeded("hypercube", {"dimension": 6}, seed=0)
        assert request.tenant == DEFAULT_TENANT == "default"

    def test_tenant_excluded_from_request_key(self):
        # Two tenants asking the same question share one content address:
        # coalescing and store dedup cross tenant boundaries by design.
        mine = DiagnosisRequest.seeded(
            "hypercube", {"dimension": 6}, seed=0, tenant="mine"
        )
        yours = DiagnosisRequest.seeded(
            "hypercube", {"dimension": 6}, seed=0, tenant="yours"
        )
        assert request_key(mine) == request_key(yours)

    def test_wire_roundtrip_preserves_tenant(self):
        request = DiagnosisRequest.seeded(
            "hypercube", {"dimension": 6}, seed=3, tenant="acme"
        )
        wire = request.to_wire()
        assert wire["tenant"] == "acme"
        assert DiagnosisRequest.from_dict(wire) == request

    def test_default_tenant_omitted_from_wire(self):
        request = DiagnosisRequest.seeded("hypercube", {"dimension": 6}, seed=3)
        assert "tenant" not in request.to_wire()

    def test_from_dict_default_tenant_applies_only_when_unnamed(self):
        unnamed = DiagnosisRequest.from_dict(
            {"family": "hypercube"}, default_tenant="header"
        )
        assert unnamed.tenant == "header"
        named = DiagnosisRequest.from_dict(
            {"family": "hypercube", "tenant": "body"}, default_tenant="header"
        )
        assert named.tenant == "body"  # the body always wins

    def test_describe_prefixes_non_default_tenant(self):
        request = DiagnosisRequest.seeded(
            "star", {"n": 6}, seed=2, tenant="acme"
        )
        assert request.describe().startswith("[acme] ")

    def test_validation(self):
        from repro.service.requests import validate_tenant

        assert validate_tenant("a.b:c@d-e_f") == "a.b:c@d-e_f"
        with pytest.raises(ValueError, match="non-empty"):
            validate_tenant("")
        with pytest.raises(ValueError, match="non-empty"):
            validate_tenant(7)
        with pytest.raises(ValueError, match="exceeds"):
            validate_tenant("x" * 65)
        with pytest.raises(ValueError, match="forbidden"):
            validate_tenant("no spaces")
        with pytest.raises(ValueError, match="forbidden"):
            validate_tenant('quo"te')


class TestResponseCodecs:
    """The direct field codecs stay byte-identical to ``dataclasses.asdict``."""

    RESPONSES = [
        DiagnosisResponse(
            topology_key="hypercube(dimension=6)", syndrome_digest="b3:ab",
            faulty=(3, 9, 40), healthy_root=0, lookups=812, num_probes=2,
            partition_level=1, num_faults_injected=3, source="coalesced",
            batch_size=4, elapsed_seconds=0.0125,
        ),
        DiagnosisResponse(
            topology_key="pancake(n=4)", syndrome_digest="", faulty=(),
            healthy_root=None, lookups=0, num_probes=0, partition_level=None,
            num_faults_injected=14, error="DiagnosisError: no healthy root",
        ),
        DiagnosisResponse(
            topology_key="star(n=5)", syndrome_digest="b3:cd", faulty=(),
            healthy_root=None, lookups=0, num_probes=0, partition_level=None,
        ),
    ]

    @pytest.mark.parametrize("response", RESPONSES, ids=["ok", "error", "none"])
    def test_wire_and_payload_match_asdict(self, response):
        import dataclasses
        import json

        reference = dataclasses.asdict(response)
        assert response.to_wire() == reference
        assert json.dumps(response.to_wire()) == json.dumps(reference)
        for transient in ("source", "batch_size", "elapsed_seconds"):
            reference.pop(transient)
        assert response.to_payload() == json.dumps(reference, sort_keys=True)
        assert DiagnosisResponse.from_wire(response.to_wire()) == response
