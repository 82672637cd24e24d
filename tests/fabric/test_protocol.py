"""Fabric wire protocol: framing, fault injection, lease/result codecs."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.distributed.events import ChannelConfig, LossModel
from repro.fabric import (
    DATA_PLANE_KINDS,
    MAX_FRAME_BYTES,
    FaultPolicy,
    FrameChannel,
    FrameError,
    read_frame,
    write_frame,
)
from repro.service import (
    DiagnosisRequest,
    decode_lease,
    decode_result,
    encode_lease,
    encode_result,
)
from repro.service.executor import run_batch_local, resolve_topology


async def _stream_pair():
    """A connected (client, server) pair of asyncio stream tuples."""
    accepted: asyncio.Future = asyncio.get_running_loop().create_future()

    async def on_connect(reader, writer):
        accepted.set_result((reader, writer))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = await asyncio.open_connection("127.0.0.1", port)
    serverside = await accepted
    return client, serverside, server


def _run(coro):
    return asyncio.run(coro)


async def _close_all(client, serverside, server):
    for _, writer in (client, serverside):
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    server.close()
    await server.wait_closed()


class TestFraming:
    def test_round_trip(self):
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                frame = {"kind": "hello", "worker": "w1", "n": 7}
                await write_frame(client[1], frame)
                received = await read_frame(serverside[0])
                assert received == frame
            finally:
                await _close_all(client, serverside, server)

        _run(scenario())

    def test_eof_returns_none(self):
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                client[1].close()
                await client[1].wait_closed()
                assert await read_frame(serverside[0]) is None
            finally:
                serverside[1].close()
                server.close()
                await server.wait_closed()

        _run(scenario())

    def test_truncated_body_returns_none(self):
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                # Header promises 100 bytes; only 3 arrive before EOF.
                client[1].write(struct.pack(">I", 100) + b"abc")
                await client[1].drain()
                client[1].close()
                await client[1].wait_closed()
                assert await read_frame(serverside[0]) is None
            finally:
                serverside[1].close()
                server.close()
                await server.wait_closed()

        _run(scenario())

    @pytest.mark.parametrize("body", [
        b"not json at all",
        json.dumps([1, 2, 3]).encode(),       # not an object
        json.dumps({"no": "kind"}).encode(),  # no 'kind'
        json.dumps({"kind": 5}).encode(),     # non-string 'kind'
    ])
    def test_malformed_bodies_raise_frame_error(self, body):
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                client[1].write(struct.pack(">I", len(body)) + body)
                await client[1].drain()
                with pytest.raises(FrameError):
                    await read_frame(serverside[0])
            finally:
                await _close_all(client, serverside, server)

        _run(scenario())

    def test_oversize_length_prefix_rejected(self):
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                client[1].write(struct.pack(">I", MAX_FRAME_BYTES + 1))
                await client[1].drain()
                with pytest.raises(FrameError):
                    await read_frame(serverside[0])
            finally:
                await _close_all(client, serverside, server)

        _run(scenario())


class TestFaultPolicy:
    def test_draw_sequence_matches_loss_model(self):
        """copies() replays the engine's canonical drop-then-duplicate draws."""
        config = ChannelConfig(loss_rate=0.4, duplicate_rate=0.4, seed=11)
        policy = FaultPolicy(config)
        reference = LossModel(config)
        expected = []
        for _ in range(64):
            if reference.dropped():
                expected.append(0)
            else:
                expected.append(2 if reference.duplicated() else 1)
        assert [policy.copies() for _ in range(64)] == expected

    def test_delay_from_latency_spec(self):
        fast = FaultPolicy(ChannelConfig(latency="fixed:1"), delay_unit=0.01)
        slow = FaultPolicy(ChannelConfig(latency="fixed:5"), delay_unit=0.01)
        assert fast.delay_seconds == 0.0
        assert slow.delay_seconds == pytest.approx(0.04)

    def test_negative_delay_unit_rejected(self):
        with pytest.raises(ValueError):
            FaultPolicy(ChannelConfig(), delay_unit=-1.0)


class TestFrameChannel:
    def test_control_plane_is_never_faulted(self):
        """A policy that drops every data frame must not touch heartbeats."""
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                policy = FaultPolicy(
                    ChannelConfig(loss_rate=0.99, seed=3)
                )
                channel = FrameChannel(*client, fault_policy=policy)
                for _ in range(20):
                    await channel.send({"kind": "heartbeat", "worker": "w"})
                for _ in range(20):
                    frame = await read_frame(serverside[0])
                    assert frame == {"kind": "heartbeat", "worker": "w"}
                assert channel.dropped_frames == 0
            finally:
                await _close_all(client, serverside, server)

        _run(scenario())

    def test_data_plane_drop_and_duplicate(self):
        async def scenario():
            client, serverside, server = await _stream_pair()
            try:
                channel = FrameChannel(*client, fault_policy=policy_sent)
                for i in range(40):
                    await channel.send({"kind": "result", "lease": i})
                client[1].close()
                received = []
                while True:
                    frame = await read_frame(serverside[0])
                    if frame is None:
                        break
                    received.append(frame["lease"])
                # Replay the same seeded draws to predict the exact stream.
                reference = FaultPolicy(config)
                expected = []
                for i in range(40):
                    expected.extend([i] * reference.copies())
                assert received == expected
                assert channel.dropped_frames == sum(
                    1 for i in range(40) if expected.count(i) == 0
                )
                assert channel.duplicated_frames == sum(
                    1 for i in range(40) if expected.count(i) == 2
                )
            finally:
                serverside[1].close()
                server.close()
                await server.wait_closed()

        config = ChannelConfig(loss_rate=0.3, duplicate_rate=0.3, seed=7)
        policy_sent = FaultPolicy(config)
        _run(scenario())


class TestLeaseCodecs:
    def _requests(self):
        return [
            DiagnosisRequest.seeded("hypercube", {"dimension": 5}, seed=s)
            for s in range(3)
        ]

    def test_lease_round_trip(self):
        requests = self._requests()
        frame = encode_lease(17, requests)
        assert frame["kind"] == "lease"
        lease_id, decoded = decode_lease(json.loads(json.dumps(frame)))
        assert lease_id == 17
        assert decoded == requests

    def test_result_round_trip_carries_stats(self):
        requests = self._requests()
        network, csr = resolve_topology("hypercube", {"dimension": 5})
        responses, stats = run_batch_local(network, csr, requests)
        frame = encode_result(23, responses, stats)
        assert frame["kind"] == "result"
        lease_id, decoded, decoded_stats = decode_result(
            json.loads(json.dumps(frame))
        )
        assert lease_id == 23
        assert decoded_stats == {
            name: stats[name]
            for name in ("compiles", "kernel_width")
        }
        for sent, received in zip(responses, decoded):
            assert received.faulty == sent.faulty
            assert received.healthy_root == sent.healthy_root
            assert received.lookups == sent.lookups
            assert received.syndrome_digest == sent.syndrome_digest
            assert received.error == sent.error

    @pytest.mark.parametrize("frame, message", [
        ({"kind": "lease"}, "lease id must be an integer"),
        ({"kind": "lease", "lease": "x", "requests": []},
         "lease id must be an integer"),
        ({"kind": "lease", "lease": 1, "requests": []},
         "non-empty 'requests' list"),
        ({"kind": "lease", "lease": 1, "requests": [{"params": {}}]},
         r"lease requests\[0\]"),
        ({"kind": "result", "lease": 1, "responses": [], "stats": {}},
         "result stats"),
        ({"kind": "result", "lease": 1, "responses": [{}],
          "stats": {"compiles": 0, "kernel_width": 0}},
         r"result responses\[0\]"),
        ({"kind": "welcome"}, "not a result frame"),
    ])
    def test_malformed_frames_positional_errors(self, frame, message):
        decoder = decode_lease if frame["kind"] == "lease" else decode_result
        with pytest.raises(ValueError, match=message):
            decoder(frame)

    @pytest.mark.parametrize("field, value", [
        ("placement", "bogus"), ("fault_count", 0),
    ])
    def test_lease_with_a_malformed_request_is_refused(self, field, value):
        frame = encode_lease(3, self._requests())
        frame["requests"][1][field] = value
        with pytest.raises(ValueError, match=rf"lease requests\[1\]: .*{field}"):
            decode_lease(frame)

    def test_oversized_lease_is_refused_without_building(self, monkeypatch):
        """A worker applies the service's node cap before it builds."""
        from repro.fabric.worker import FabricWorker
        from repro.service import executor

        def never(*args, **kwargs):
            raise AssertionError("an oversized topology was built")

        monkeypatch.setattr(executor, "create_network", never)
        sent = []

        class Channel:
            async def send(self, frame):
                sent.append(frame)

        frame = encode_lease(
            5, [DiagnosisRequest.seeded("hypercube", {"dimension": 30})]
        )
        worker = FabricWorker("127.0.0.1", 0, worker_id="w")
        _run(worker._serve_lease(Channel(), frame))
        [error] = sent
        assert error["kind"] == "error" and error["lease"] == 5
        assert "nodes" in error["message"]
        assert worker.leases_served == 0

    def test_data_plane_kinds_cover_the_codecs(self):
        assert encode_lease(1, self._requests())["kind"] in DATA_PLANE_KINDS
        network, csr = resolve_topology("hypercube", {"dimension": 5})
        responses, stats = run_batch_local(network, csr, self._requests()[:1])
        assert encode_result(1, responses, stats)["kind"] in DATA_PLANE_KINDS
