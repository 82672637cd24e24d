"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main
from repro.core.faults import PLACEMENTS
from repro.core.syndrome import FaultyTesterBehavior
from repro.networks import Hypercube


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_diagnose_defaults(self):
        args = build_parser().parse_args(["diagnose"])
        assert args.family == "hypercube"
        assert args.placement == "random"

    def test_param_parsing_errors_surface(self):
        with pytest.raises(SystemExit):
            main(["diagnose", "--family", "unknown_family"])


class TestMalformedParameters:
    """A bad ``--param`` or ``--instance`` is a usage error: one line on
    stderr naming the family's parameters, exit status 2, no traceback."""

    @staticmethod
    def _refused(capsys, argv, *fragments):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro-diagnose: error: ")
        for fragment in fragments:
            assert fragment in err, err

    def test_non_integer_value(self, capsys):
        self._refused(capsys, ["diagnose", "--param", "dimension=abc"],
                      "'dimension=abc'", "hypercube takes dimension=INT")

    def test_pair_without_a_value(self, capsys):
        self._refused(capsys, ["diagnose", "--param", "dimension"],
                      "bad parameter 'dimension'", "hypercube takes dimension=INT")

    def test_unknown_parameter_name(self, capsys):
        self._refused(capsys, ["properties", "--family", "star", "--param", "m=5"],
                      "bad parameter 'm=5'", "star takes n=INT")

    def test_misspelt_instance_parameter(self, capsys):
        self._refused(capsys, ["load", "--instance", "hypercube:dimnsion=8"],
                      "bad instance", "'dimnsion=8'", "hypercube takes dimension=INT")

    def test_missing_required_parameter(self, capsys):
        self._refused(capsys, ["diagnose", "--family", "enhanced_hypercube",
                               "--param", "k=3"],
                      "missing parameter 'dimension'",
                      "enhanced_hypercube takes dimension=INT, k=INT")


class TestOutOfRangeParameters:
    """A well-formed parameter the family refuses (the constructor, or the
    literature's ``δ``, rules the instance out) is a usage error as well:
    one line naming the family and quoting the refusal, exit status 2."""

    _refused = staticmethod(TestMalformedParameters._refused)

    def test_diagnose_constructor_refusal(self, capsys):
        self._refused(capsys, ["diagnose", "--family", "hypercube",
                               "--param", "dimension=0"],
                      "no hypercube instance with dimension=0",
                      "dimension must be >= 1")

    def test_diagnose_instance_without_diagnosability(self, capsys):
        self._refused(capsys, ["diagnose", "--family", "hypercube",
                               "--param", "dimension=3"],
                      "no hypercube instance with dimension=3", "requires n >= 5")

    def test_properties(self, capsys):
        self._refused(capsys, ["properties", "--family", "star", "--param", "n=1"],
                      "no star instance with n=1", "n must be >= 2")

    def test_distributed(self, capsys):
        self._refused(capsys, ["distributed", "--family", "hypercube",
                               "--param", "dimension=0"],
                      "no hypercube instance with dimension=0",
                      "dimension must be >= 1")

    def test_load_instance(self, capsys):
        self._refused(capsys, ["load", "--instance", "hypercube:dimension=0"],
                      "bad instance 'hypercube:dimension=0'",
                      "no hypercube instance with dimension=0",
                      "dimension must be >= 1")


class TestCommands:
    def test_diagnose_hypercube(self, capsys):
        code = main(["diagnose", "--family", "hypercube", "--param", "dimension=7",
                     "--faults", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "correct          : True" in out

    def test_diagnose_clustered_star(self, capsys):
        code = main(["diagnose", "--family", "star", "--param", "n=5",
                     "--placement", "clustered", "--behavior", "mimic"])
        assert code == 0
        assert "diagnosed faults" in capsys.readouterr().out

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("command", ["diagnose", "distributed"])
    def test_every_placement_is_accepted(self, capsys, command, placement):
        code = main([command, "--family", "hypercube", "--param", "dimension=6",
                     "--placement", placement, "--seed", "2"])
        out = capsys.readouterr().out
        cube = Hypercube(6)
        faults = PLACEMENTS[placement](cube, cube.diagnosability(), seed=2)
        assert code == 0
        assert f"injected faults  : {sorted(faults)}" in out

    @pytest.mark.parametrize("command", ["diagnose", "distributed"])
    def test_every_behaviour_is_accepted(self, command):
        for behavior in FaultyTesterBehavior.NAMES:
            args = build_parser().parse_args([command, "--behavior", behavior])
            assert args.behavior == behavior

    def test_diagnose_uses_registry_small_defaults(self, capsys):
        code = main(["diagnose", "--family", "pancake", "--faults", "2"])
        assert code == 0

    def test_distributed_baseline(self, capsys):
        code = main(["distributed", "--family", "hypercube", "--param", "dimension=6",
                     "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "false positives  : []" in out
        assert "gossip" in out

    def test_distributed_lossy_multiroot_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.log"
        code = main(["distributed", "--family", "hypercube", "--param", "dimension=6",
                     "--loss-rate", "0.1", "--roots", "2", "--seed", "4",
                     "--latency", "uniform:1:2", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "drops" in out
        text = trace.read_text()
        assert text.splitlines()[-1].startswith("STATS ")

        from repro.distributed import replay_stats

        assert replay_stats(text).messages > 0

    def test_distributed_rejects_zero_roots(self):
        with pytest.raises(SystemExit, match="at least one root"):
            main(["distributed", "--family", "hypercube", "--param", "dimension=5",
                  "--roots", "0"])

    def test_properties_command(self, capsys):
        code = main(["properties", "--family", "hypercube", "--param", "dimension=6",
                     "--exact-connectivity"])
        out = capsys.readouterr().out
        assert code == 0
        assert "full syndrome table size" in out

    def test_survey_command(self, capsys):
        code = main(["survey", "--size", "small", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Survey" in out
        assert out.count("yes") >= 14


class TestServeCommand:
    def test_demo_mix_serves_and_prints_stats(self, capsys):
        code = main(["serve", "--demo-requests", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "served 6 requests" in out
        assert "worker compiles: 0" in out

    def test_batch_delay_flag_still_parses_but_is_ignored(self, capsys):
        code = main(["serve", "--demo-requests", "2", "--batch-delay-ms", "50"])
        captured = capsys.readouterr()
        assert code == 0
        assert "served 2 requests" in captured.out
        assert "--batch-delay-ms is ignored" in captured.err

    def test_requests_file_with_store_and_stats_json(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"family": "hypercube", "params": {"dimension": 6}, "seed": 1}\n'
            "# a comment and a blank line are skipped\n\n"
            '{"family": "hypercube", "params": {"dimension": 6}, "seed": 1}\n'
        )
        store = tmp_path / "results.db"
        stats_path = tmp_path / "stats.json"
        code = main(["serve", "--requests", str(requests), "--store", str(store),
                     "--stats-json", str(stats_path)])
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["requests"] == 2
        # Second run: everything comes from the persistent store.
        code = main(["serve", "--requests", str(requests), "--store", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 from store" in out

    def test_undiagnosable_request_answers_its_own_line(self, capsys, tmp_path):
        """Q_3 has no diagnosability; its line reports the error and the Q_7
        line beside it is still answered."""
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"family": "hypercube", "params": {"dimension": 3}, "seed": 1}\n'
            '{"family": "hypercube", "params": {"dimension": 7}, "seed": 1}\n'
        )
        code = main(["serve", "--requests", str(requests)])
        lines = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
        assert code == 0 and len(lines) == 2
        assert "ValueError: diagnosability" in lines[0]
        assert "7 faults" in lines[1]

    def test_malformed_request_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"family": "hypercube", "nonsense": 1}\n')
        with pytest.raises(SystemExit, match="unknown request fields"):
            main(["serve", "--requests", str(bad)])
        bad.write_text('{"family": "mesh"}\n')
        with pytest.raises(SystemExit, match="unknown network family"):
            main(["serve", "--requests", str(bad)])
        bad.write_text('{"family": "hypercube", "params": {"dimension": "7"}}\n')
        with pytest.raises(SystemExit, match="must be an integer"):
            main(["serve", "--requests", str(bad)])
        for field in ("family", "placement", "behavior"):
            bad.write_text(
                f'{{"family": "hypercube", "params": {{"dimension": 6}}, '
                f'"{field}": [1]}}\n'
            )
            with pytest.raises(SystemExit, match=re.escape(f"{bad}:1: bad request")):
                main(["serve", "--requests", str(bad)])
        # A wrong param *name* only surfaces when the constructor runs; it
        # must still exit cleanly, not with a raw traceback.
        bad.write_text('{"family": "hypercube", "params": {"dim": 7}}\n')
        with pytest.raises(SystemExit, match="request failed"):
            main(["serve", "--requests", str(bad)])
        # The node cap is the service's admission limit, not a field check.
        bad.write_text('{"family": "hypercube", "params": {"dimension": 30}}\n')
        with pytest.raises(SystemExit, match="request failed: .*nodes"):
            main(["serve", "--requests", str(bad)])
        # A seeded field only a JSON line can misspell is a bad request.
        bad.write_text('{"family": "hypercube", "placement": "ring"}\n')
        with pytest.raises(SystemExit, match=re.escape(f"{bad}:1: bad request")):
            main(["serve", "--requests", str(bad)])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(SystemExit, match="no requests"):
            main(["serve", "--requests", str(empty)])
        with pytest.raises(SystemExit, match="cannot read"):
            main(["serve", "--requests", str(tmp_path / "absent.jsonl")])

    def test_argument_validation(self):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "0"])
        with pytest.raises(SystemExit, match="--cache-capacity"):
            main(["serve", "--cache-capacity", "-1"])
        with pytest.raises(SystemExit, match="--max-batch"):
            main(["serve", "--max-batch", "0"])
        with pytest.raises(SystemExit, match="--batch-delay-ms"):
            main(["serve", "--batch-delay-ms", "-2"])
        with pytest.raises(SystemExit, match="--demo-requests"):
            main(["serve", "--demo-requests", "0"])
        with pytest.raises(SystemExit, match="--max-queue"):
            main(["serve", "--max-queue", "0"])
        with pytest.raises(SystemExit, match="--store-ttl"):
            main(["serve", "--store", "x.db", "--store-ttl", "0"])
        with pytest.raises(SystemExit, match="--store-max-rows"):
            main(["serve", "--store", "x.db", "--store-max-rows", "0"])
        with pytest.raises(SystemExit, match="need --store"):
            main(["serve", "--store-ttl", "60"])
        with pytest.raises(SystemExit, match="need --store"):
            main(["serve", "--store-max-rows", "10"])
        with pytest.raises(SystemExit, match="0..65535"):
            main(["serve", "--http", "70000"])
        with pytest.raises(SystemExit, match="drop --requests"):
            main(["serve", "--http", "0", "--requests", "x.jsonl"])
        with pytest.raises(SystemExit, match="--ready-file"):
            main(["serve", "--ready-file", "/tmp/ready.json"])

    def test_stream_overflowing_its_own_max_queue_exits_cleanly(self):
        with pytest.raises(SystemExit, match="raise --max-queue"):
            main(["serve", "--demo-requests", "8", "--max-queue", "1"])

    def test_store_bounds_apply_to_stream_serving(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                json.dumps({"family": "hypercube",
                            "params": {"dimension": 6}, "seed": seed})
                for seed in range(5)
            )
        )
        store = tmp_path / "results.db"
        code = main(["serve", "--requests", str(requests), "--store", str(store),
                     "--store-max-rows", "2"])
        assert code == 0
        capsys.readouterr()

        from repro.service import ResultStore

        with ResultStore(store) as reopened:
            assert len(reopened) <= 2

    def test_stats_json_write_is_atomic(self, capsys, tmp_path, monkeypatch):
        """A crash mid-dump must never leave truncated JSON behind."""
        import json
        import os

        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"previous": true}')
        real_replace = os.replace
        calls = []

        def tracking_replace(src, dst):
            calls.append((src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", tracking_replace)
        code = main(["serve", "--demo-requests", "2",
                     "--stats-json", str(stats_path)])
        assert code == 0
        assert json.loads(stats_path.read_text())["requests"] == 2
        # The dump went through a same-directory temp file + rename.
        assert len(calls) == 1
        assert os.path.dirname(calls[0][0]) == str(tmp_path)
        assert calls[0][1] == str(stats_path)
        # No temp litter left behind.
        assert os.listdir(tmp_path) == ["stats.json"]

    def test_interrupted_stats_write_leaves_previous_content(self, tmp_path,
                                                             monkeypatch,
                                                             capsys):
        import json
        import os

        stats_path = tmp_path / "stats.json"
        stats_path.write_text('{"previous": true}')

        def exploding_replace(src, dst):
            raise OSError("simulated crash at rename time")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            main(["serve", "--demo-requests", "2",
                  "--stats-json", str(stats_path)])
        monkeypatch.undo()
        assert json.loads(stats_path.read_text()) == {"previous": True}
        assert os.listdir(tmp_path) == ["stats.json"]


class TestLoadCommand:
    def test_verify_reports_no_mismatches(self, capsys):
        code = main(["load", "--clients", "2", "--requests", "3", "--seed-pool", "2",
                     "--instance", "hypercube:dimension=6", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "batched:" in out
        assert "0 mismatches" in out

    def test_expectations_enforced(self, capsys):
        # Single instance + huge seed pool: coalesced batches guaranteed,
        # store hits impossible.
        code = main(["load", "--clients", "3", "--requests", "2",
                     "--seed-pool", "100000", "--instance", "hypercube:dimension=6",
                     "--expect-coalesced", "1"])
        assert code == 0
        code = main(["load", "--clients", "3", "--requests", "2",
                     "--seed-pool", "100000", "--instance", "hypercube:dimension=6",
                     "--expect-store-hits", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_http_load_drives_a_live_server(self, capsys):
        from repro.service import BackgroundHttpServer, DiagnosisService, ResultStore

        with BackgroundHttpServer(
            lambda: DiagnosisService(store=ResultStore())
        ) as server:
            code = main(["load", "--clients", "2", "--requests", "3",
                         "--seed-pool", "2", "--instance", "hypercube:dimension=6",
                         "--http", server.address, "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "http:" in out
        assert "0 mismatches" in out

    def test_http_load_shedding_expectation(self, capsys):
        from repro.service import BackgroundHttpServer, DiagnosisService

        with BackgroundHttpServer(
            lambda: DiagnosisService(max_queue_depth=1)
        ) as server:
            code = main(["load", "--clients", "4", "--requests", "3",
                         "--instance", "hypercube:dimension=6",
                         "--http", server.address, "--verify",
                         "--expect-rejections", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "rejections" in out

    def test_http_load_unreachable_server_exits_cleanly(self):
        # A port from the ephemeral range with nothing listening.
        with pytest.raises(SystemExit, match="failed"):
            main(["load", "--clients", "1", "--requests", "1",
                  "--http", "http://127.0.0.1:1"])

    def test_argument_validation(self, capsys):
        with pytest.raises(SystemExit, match="--clients"):
            main(["load", "--clients", "0"])
        with pytest.raises(SystemExit, match="--requests"):
            main(["load", "--requests", "0"])
        with pytest.raises(SystemExit, match="--seed-pool"):
            main(["load", "--seed-pool", "0"])
        with pytest.raises(SystemExit, match="--workers"):
            main(["load", "--workers", "0"])
        for instance, message in (("mesh:n=3", "unknown network family"),
                                  ("hypercube:dimension", "bad instance")):
            with pytest.raises(SystemExit) as info:
                main(["load", "--instance", instance])
            assert info.value.code == 2 and message in capsys.readouterr().err
        for flag in (["--workers", "2"], ["--store", "x.db"]):
            with pytest.raises(SystemExit, match="drives a remote server"):
                main(["load", "--http", "http://127.0.0.1:1", *flag])
        with pytest.raises(SystemExit, match="needs --http"):
            main(["load", "--expect-rejections", "1"])


class TestServeHttpProcess:
    def test_serve_http_full_lifecycle(self, tmp_path):
        """Real process, real sockets: ready-file handshake, wire load with
        shedding + verification, SIGTERM drain, atomic stats dump."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        ready = tmp_path / "ready.json"
        stats = tmp_path / "stats.json"
        store = tmp_path / "results.db"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--ready-file", str(ready), "--max-queue", "1",
             "--store", str(store),
             "--store-max-rows", "4", "--stats-json", str(stats)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert server.poll() is None, server.stdout.read()
                assert time.monotonic() < deadline, "server never became ready"
                time.sleep(0.05)
            port = json.loads(ready.read_text())["port"]
            code = main(["load", "--http", f"http://127.0.0.1:{port}",
                         "--clients", "4", "--requests", "3",
                         "--instance", "hypercube:dimension=6",
                         "--verify", "--expect-rejections", "1"])
            assert code == 0
        finally:
            server.send_signal(signal.SIGTERM)
            output, _ = server.communicate(timeout=30)
        assert server.returncode == 0, output
        assert "draining" in output
        dumped = json.loads(stats.read_text())
        assert dumped["http"]["shed"] >= 1
        assert dumped["rejected"] == dumped["http"]["shed"]
        assert dumped["store"]["results"] <= 4

        from repro.service import ResultStore

        with ResultStore(store) as reopened:
            assert 0 < len(reopened) <= 4


class TestTenantFlags:
    def test_tenant_weight_parsing(self):
        from repro.cli import _parse_tenant_weights

        assert _parse_tenant_weights([]) is None
        assert _parse_tenant_weights(["hot=3"]) == {"hot": 3}
        assert _parse_tenant_weights(["hot=3", "cold=1"]) == {
            "hot": 3, "cold": 1
        }

    def test_tenant_weight_errors(self):
        from repro.cli import _parse_tenant_weights

        with pytest.raises(SystemExit, match="NAME=W"):
            _parse_tenant_weights(["hot"])
        with pytest.raises(SystemExit, match="positive integer"):
            _parse_tenant_weights(["hot=0"])
        with pytest.raises(SystemExit, match="positive integer"):
            _parse_tenant_weights(["hot=x"])
        with pytest.raises(SystemExit, match="twice"):
            _parse_tenant_weights(["hot=1", "hot=2"])
        with pytest.raises(SystemExit, match="forbidden"):
            _parse_tenant_weights(["bad tenant=1"])

    def test_serve_validates_tenant_flags(self):
        with pytest.raises(SystemExit, match="--max-queue-per-tenant"):
            main(["serve", "--max-queue-per-tenant", "0"])
        with pytest.raises(SystemExit, match="NAME=W"):
            main(["serve", "--tenant-weight", "nonsense"])

    def test_serve_demo_accepts_tenant_flags(self, capsys):
        code = main(["serve", "--demo-requests", "4",
                     "--max-queue-per-tenant", "8",
                     "--tenant-weight", "hot=2"])
        assert code == 0
        assert "served" in capsys.readouterr().out

    def test_load_tenant_flag_reaches_the_stream(self, capsys, tmp_path):
        stats = tmp_path / "stats.json"
        code = main(["load", "--clients", "2", "--requests", "2",
                     "--instance", "hypercube:dimension=6",
                     "--tenant", "acme", "--stats-json", str(stats)])
        assert code == 0
        import json

        payload = json.loads(stats.read_text())
        assert payload["batched"]["stats"]["tenants"]["acme"]["admitted"] == 4

    def test_load_rejects_bad_tenant(self):
        with pytest.raises(SystemExit, match="tenant"):
            main(["load", "--clients", "1", "--requests", "1",
                  "--tenant", "no spaces"])


class TestFairnessCommand:
    _BASE = ["load", "--fairness", "--hot-requests", "8",
             "--cold-tenants", "2", "--cold-requests", "2",
             "--tenant-quota", "2", "--seed-pool", "64",
             "--instance", "hypercube:dimension=6"]

    def test_fairness_run_passes_and_prints_split(self, capsys):
        code = main(list(self._BASE))
        out = capsys.readouterr().out
        assert code == 0, out
        assert "fairness: hot tenant" in out
        assert "completion 100%" in out
        assert "FAIL" not in out

    def test_fairness_stats_json(self, capsys, tmp_path):
        import json

        stats = tmp_path / "fairness.json"
        code = main(list(self._BASE) + ["--stats-json", str(stats)])
        assert code == 0
        payload = json.loads(stats.read_text())
        assert payload["fairness"]["cold_completion"] == 1.0
        assert payload["split"]["hot_served"] + \
            len(payload["split"]["hot_shed_indices"]) == 8
        assert payload["stats"]["tenants"]["hot"]["rejected"] == \
            len(payload["split"]["hot_shed_indices"])

    def test_fairness_conflicts_with_transport_flags(self):
        with pytest.raises(SystemExit, match="drop --http"):
            main(list(self._BASE) + ["--http", ":1"])
        with pytest.raises(SystemExit, match="drop --verify"):
            main(list(self._BASE) + ["--verify"])
        with pytest.raises(SystemExit, match="drop --tenant"):
            main(list(self._BASE) + ["--tenant", "x"])
        with pytest.raises(SystemExit, match="drop --store"):
            main(list(self._BASE) + ["--store", "x.db"])
        for flag in ("--expect-coalesced", "--expect-store-hits",
                     "--expect-rejections"):
            with pytest.raises(SystemExit, match=f"drop {flag}"):
                main(list(self._BASE) + [flag, "999"])

    def test_fairness_validates_counts(self):
        with pytest.raises(SystemExit, match="--hot-requests"):
            main(["load", "--fairness", "--hot-requests", "0"])
        with pytest.raises(SystemExit, match="--tenant-quota"):
            main(["load", "--fairness", "--tenant-quota", "0"])


class TestAtomicWrites:
    def test_write_text_atomic_replaces_and_leaves_no_temp(self, tmp_path):
        """Regression: ``--trace`` wrote through a bare open(path, 'w'), so a
        crash mid-write could leave a torn trace for ``replay_stats``; text
        artifacts now go through the same temp-file + rename path as JSON."""
        from repro.cli import _write_text_atomic

        target = tmp_path / "trace.log"
        target.write_text("old content")
        _write_text_atomic(str(target), "EVENT a\nSTATS {}\n")
        assert target.read_text() == "EVENT a\nSTATS {}\n"
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == [], f"temp files left behind: {leftovers}"

    def test_write_json_atomic_still_round_trips(self, tmp_path):
        import json

        from repro.cli import _write_json_atomic

        target = tmp_path / "stats.json"
        _write_json_atomic(str(target), {"requests": 3, "ok": True})
        assert json.loads(target.read_text()) == {"requests": 3, "ok": True}

    def test_lint_subcommand_forwards_to_analyzer(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        assert "RPR005" in out  # the zombie-worker rule is registered
