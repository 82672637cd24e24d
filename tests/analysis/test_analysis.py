"""Tests for the analytical formulas and the reporting/fitting helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    fit_against_model,
    fit_power_law,
    format_table,
    set_builder_lookup_bound,
    theorem_time_bound,
)
from repro.core.syndrome import syndrome_table_size
from repro.networks import Hypercube, StarGraph


class TestFormulas:
    def test_lookup_bound_formula(self):
        assert set_builder_lookup_bound(7, 128) == 6 * (3.5 + 127)

    def test_syndrome_table_size_matches_direct_count(self):
        cube = Hypercube(6)
        expected = sum(
            len(cube.neighbors(u)) * (len(cube.neighbors(u)) - 1) // 2
            for u in range(cube.num_nodes)
        )
        assert syndrome_table_size(cube) == expected

    def test_theorem_bound_specialises_per_family(self):
        assert theorem_time_bound(Hypercube(10)) == 10 * 2**10
        star = StarGraph(6)
        assert theorem_time_bound(star) == 5 * 720

    def test_lookup_bound_dominates_measured_lookups(self):
        from repro.core.set_builder import set_builder
        from repro.core.syndrome import TableSyndrome

        cube = Hypercube(9)
        result = set_builder(cube, TableSyndrome.from_faults(cube, ()), 0)
        bound = set_builder_lookup_bound(cube.max_degree, result.size)
        slack = cube.max_degree * (cube.max_degree - 1) / 2  # the root's own tests
        assert result.lookups <= bound + slack


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 3]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len(lines) == 5

    def test_bool_rendering(self):
        text = format_table(["ok"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestScalingFits:
    def test_recovers_known_exponent(self):
        sizes = np.array([10, 20, 40, 80, 160], dtype=float)
        values = 3.0 * sizes**2
        fit = fit_power_law(sizes, values)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert fit.predict(8) == pytest.approx(16, rel=1e-6)

    def test_fit_against_model_linear_when_model_correct(self):
        model = np.array([7 * 2**7, 8 * 2**8, 9 * 2**9, 10 * 2**10], dtype=float)
        measured = 1e-6 * model * 1.05  # proportional up to noise-free constant
        fit = fit_against_model(model, measured)
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])


class TestScalingFitEdgeCases:
    def test_constant_measurements_define_r_squared_one(self):
        # ss_tot == 0: the fit is vacuously perfect rather than dividing by 0.
        fit = fit_power_law([1, 2, 4], [5.0, 5.0, 5.0])
        assert fit.r_squared == 1.0
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)

    def test_float_cells_render_compactly(self):
        text = format_table(["x"], [[1.23456789], [1000000.0]])
        assert "1.235" in text
        assert "1e+06" in text

    def test_fit_against_model_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_against_model([10.0], [1.0])
