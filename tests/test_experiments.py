"""Tests for the experiment runners (``python -m repro.experiments``)."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.runners import run_e1, run_e5, run_e7, run_e8


class TestRunners:
    def test_registry_lists_all_nine(self):
        assert sorted(EXPERIMENTS) == [f"E{i}" for i in range(1, 10)]

    def test_e1_small_scale(self):
        report = run_e1(dimensions=(7, 8))
        assert report.experiment == "E1"
        assert report.claims_verified
        assert len(report.rows) == 2
        assert report.headers[0] == "network"
        assert "n·2^n" in report.notes

    def test_e1_gates_lookups_against_n_2_n(self, monkeypatch):
        """E1's scaling gate reads the deterministic lookup counts: a row
        over n·2^n fails the claim whatever the timings say."""
        import dataclasses

        from repro.experiments.trials import TrialPlan

        run = TrialPlan.run

        def inflated(plan, **kwargs):
            results = run(plan, **kwargs)
            last = results[-1]
            n = dict(last.spec.params)["dimension"]
            return results[:-1] + [dataclasses.replace(last, lookups=n * 2**n + 1)]

        assert "lookups" in run_e1(dimensions=(7, 8)).notes
        monkeypatch.setattr(TrialPlan, "run", inflated)
        assert not run_e1(dimensions=(7, 8)).claims_verified

    def test_e5_lookup_claims(self):
        report = run_e5()
        assert report.claims_verified
        assert all(row[-1] for row in report.rows)  # "within bound" column

    def test_e7_diagnosability_claims(self):
        report = run_e7(families=("hypercube", "star"))
        assert report.claims_verified
        # The exhaustive Petersen row is appended after the families.
        assert report.rows[-1][0].startswith("petersen")

    def test_e8_certificate_finding(self):
        report = run_e8(dimensions=(7, 8))
        assert report.claims_verified
        for row in report.rows:
            assert row[3] is False  # the paper's class never certifies
            assert row[5] == 1      # one escalation suffices

    def test_run_experiment_by_name_case_insensitive(self):
        report = run_experiment("e8", dimensions=(7,))
        assert report.experiment == "E8"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("E42")


class TestReportFormatting:
    def test_text_rendering(self):
        report = run_e8(dimensions=(7,))
        text = report.to_text()
        assert text.startswith("E8:")
        assert "all claims verified" in text

    def test_markdown_rendering(self):
        report = run_e8(dimensions=(7,))
        md = report.to_markdown()
        lines = md.splitlines()
        assert lines[0].startswith("| network |")
        assert lines[1].startswith("| ---")
        assert len(lines) == 2 + len(report.rows)
        assert "| no |" in lines[2]


class TestMainEntryPoint:
    def test_single_experiment(self, capsys):
        code = experiments_main(["E8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "E8:" in out

    def test_markdown_flag(self, capsys):
        code = experiments_main(["E8", "--markdown"])
        out = capsys.readouterr().out
        assert code == 0
        assert "### E8" in out
        assert "| --- |" in out

    def test_one_pool_serves_the_whole_invocation(self, monkeypatch, capsys):
        import repro.experiments.__main__ as entry

        built, shut, tasks = [], [], []

        class CountingPool(entry.WorkerPool):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def submit(self, fn, *args, **kwargs):
                tasks.append(fn.__name__)
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, **kwargs):
                shut.append(self)
                super().shutdown(**kwargs)

        monkeypatch.setattr(entry, "WorkerPool", CountingPool)
        code = experiments_main(["E2", "E9", "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(built) == 1 and built[0].max_workers == 1
        assert shut == built
        assert tasks and set(tasks) == {"_run_chunk"}
        assert "E2:" in out and "E9:" in out


@pytest.mark.slow
class TestRunAll:
    def test_run_all_reports_every_experiment(self):
        reports = run_all(
            e1={"dimensions": (7, 8)},
            e6={"dimensions": (8,)},
            e8={"dimensions": (7, 8)},
            e9={"dimensions": (8,)},
        )
        assert [r.experiment for r in reports] == sorted(EXPERIMENTS)
        assert all(r.claims_verified for r in reports)
