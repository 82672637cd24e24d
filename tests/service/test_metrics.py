"""Histogram and service-metrics accounting."""

from __future__ import annotations

import pytest

from repro.service.metrics import Histogram, ServiceMetrics


class TestHistogram:
    def test_count_sum_extremes(self):
        histogram = Histogram()
        for value in (0.001, 0.01, 0.1):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.min == pytest.approx(0.001)
        assert histogram.max == pytest.approx(0.1)
        assert histogram.mean == pytest.approx(0.111 / 3)

    def test_quantiles_bound_observations(self):
        histogram = Histogram()
        values = [i / 1000 for i in range(1, 101)]
        for value in values:
            histogram.record(value)
        # Geometric buckets give ~growth relative error; check sanity bounds.
        assert histogram.quantile(0.0) <= values[5]
        assert histogram.quantile(0.5) == pytest.approx(0.05, rel=0.25)
        assert histogram.quantile(1.0) == pytest.approx(histogram.max)

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}
        assert Histogram().quantile(0.5) == 0.0

    def test_empty_histogram_pins(self):
        """Empty-histogram behavior is part of the stats contract."""
        histogram = Histogram()
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 0.0
        assert histogram.mean == 0.0
        assert histogram.min is None and histogram.max is None

    def test_quantile_zero_pins(self):
        singleton = Histogram()
        singleton.record(0.37)
        # min == max: every quantile clamps to the one observation.
        assert singleton.quantile(0.0) == pytest.approx(0.37)
        assert singleton.quantile(1.0) == pytest.approx(0.37)
        spread = Histogram()
        for value in (0.002, 0.04, 0.9):
            spread.record(value)
        # q=0 lands in the lowest occupied bucket, clamped below by min.
        assert spread.quantile(0.0) >= spread.min
        assert spread.quantile(0.0) <= spread._bucket_upper(spread._bucket(0.002))

    def test_bucket_boundaries_are_stable(self):
        """Regression: values on a bucket's upper bound must land *in* that
        bucket, however the float log quotient rounds."""
        histogram = Histogram(smallest=1e-5, growth=1.2)
        for index in range(1, 120):
            upper = histogram._bucket_upper(index)
            assert histogram._bucket(upper) == index, index
            # Nudging above the bound moves to (exactly) the next bucket.
            assert histogram._bucket(upper * (1 + 1e-12)) == index + 1, index

    def test_bucket_boundaries_stable_across_growth_factors(self):
        for smallest, growth in ((1.0, 1.5), (1e-5, 1.2), (0.5, 2.0), (1e-3, 1.07)):
            histogram = Histogram(smallest=smallest, growth=growth)
            assert histogram._bucket(smallest) == 0
            for index in range(1, 80):
                upper = histogram._bucket_upper(index)
                assert histogram._bucket(upper) == index, (smallest, growth, index)

    def test_bucket_is_monotone_and_brackets_values(self):
        histogram = Histogram(smallest=1e-4, growth=1.3)
        values = [1e-5 * 1.17 ** k for k in range(200)]
        indices = [histogram._bucket(value) for value in values]
        assert indices == sorted(indices)
        for value, index in zip(values, indices):
            assert value <= histogram._bucket_upper(index)
            if index >= 1:
                assert value > histogram._bucket_upper(index - 1)

    def test_summary_scaling(self):
        histogram = Histogram()
        histogram.record(0.5)
        summary = histogram.summary(scale=1e3)
        assert summary["mean"] == pytest.approx(500.0)
        assert summary["p50"] == pytest.approx(500.0, rel=0.25)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            Histogram(smallest=0)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)
        with pytest.raises(ValueError):
            Histogram().record(-1)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestServiceMetrics:
    def test_response_source_accounting(self):
        metrics = ServiceMetrics()
        metrics.record_enqueue(0)
        metrics.record_response("computed", 0.01)
        metrics.record_response("store", 0.001)
        metrics.record_response("coalesced", 0.002, ok=False)
        snapshot = metrics.snapshot()
        assert snapshot["computed"] == 1
        assert snapshot["store_hits"] == 1
        assert snapshot["coalesced_duplicates"] == 1
        assert snapshot["errors"] == 1
        assert snapshot["latency_ms"]["count"] == 3

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            ServiceMetrics().record_response("cache", 0.1)

    def test_rejection_accounting(self):
        metrics = ServiceMetrics()
        metrics.record_enqueue(0)
        metrics.record_rejection(4)
        metrics.record_rejection(5)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 3  # rejections are requests too
        assert snapshot["rejected"] == 2
        # Shed requests still feed the queue-depth telemetry that motivated
        # the admission bound in the first place.
        assert snapshot["queue_depth"]["count"] == 3
        assert snapshot["queue_depth"]["max"] == 5.0

    def test_batch_accounting(self):
        metrics = ServiceMetrics()
        metrics.record_batch(1, compiles=0)
        metrics.record_batch(5, compiles=1)
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["coalesced_batches"] == 1
        assert snapshot["mean_batch_size"] == pytest.approx(3.0)
        assert snapshot["worker_compiles"] == 1

    def test_kernel_width_drives_the_batch_size_histogram(self):
        metrics = ServiceMetrics()
        metrics.record_batch(5, compiles=0, kernel_width=3)
        # a batch whose every syndrome failed to construct: counted as a
        # batch, but no histogram sample (the kernel never ran)
        metrics.record_batch(2, compiles=0, kernel_width=0)
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["coalesced_batches"] == 2
        assert snapshot["batch_size"]["count"] == 1
        assert snapshot["mean_batch_size"] == pytest.approx(3.0)
