"""Request model: keys, digests, JSONL parsing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.service.requests import (
    DiagnosisRequest,
    request_key,
    syndrome_digest,
    topology_key,
)


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
        assert syndrome_digest(b"\x00\x01") in request_key(first)

    def test_digest_is_the_same_for_every_buffer_type(self):
        """The digest hashes a buffer in place; the value depends on the
        bytes only, never on the object holding them."""
        data = bytes(np.random.default_rng(3).integers(0, 2, 4099, dtype=np.uint8))
        expected = hashlib.sha256(data).hexdigest()
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

    def test_describe_is_stable_and_compact(self):
        request = DiagnosisRequest.seeded("star", {"n": 6}, seed=2)
        assert request.describe() == "star[n=6] random/delta random seed=2"


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
