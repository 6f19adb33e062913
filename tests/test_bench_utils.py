"""Benchmark-harness utility tests (fitting, reporting, timing)."""

import pytest

from repro.bench import (
    cdf_points,
    extrapolate,
    fit_power_law,
    format_bytes,
    format_seconds,
    time_call,
)
from repro.errors import ValidationError


class TestFitting:
    def test_exact_quadratic(self):
        points = [(n, 0.5 * n * n) for n in (10, 50, 200, 1000)]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.coefficient == pytest.approx(0.5, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_linear(self):
        points = [(n, 3.0 * n) for n in (1, 10, 100)]
        fit = fit_power_law(points)
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_noisy_fit_reasonable(self):
        points = [(10, 105.0), (100, 9_800.0), (1000, 1_020_000.0)]
        fit = fit_power_law(points)
        assert 1.9 <= fit.exponent <= 2.1
        assert fit.r_squared > 0.99

    def test_predict(self):
        fit = fit_power_law([(10, 100.0), (100, 10_000.0)])
        assert fit.predict(1000) == pytest.approx(1_000_000.0, rel=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            fit_power_law([(10, 1.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            fit_power_law([(10, 0.0), (20, 1.0)])

    def test_degenerate_same_n(self):
        with pytest.raises(ValidationError):
            fit_power_law([(10, 1.0), (10, 2.0)])

    def test_anchored_extrapolation(self):
        points = [(10, 200.0), (20, 800.0)]  # t = 2n²
        assert extrapolate(points, 100, exponent=2.0) == pytest.approx(
            20_000.0, rel=1e-6
        )

    def test_free_extrapolation(self):
        points = [(10, 100.0), (100, 10_000.0)]
        assert extrapolate(points, 50) == pytest.approx(2_500.0, rel=1e-6)

    def test_describe_format(self):
        fit = fit_power_law([(10, 100.0), (100, 10_000.0)])
        assert "n^" in fit.describe()


class TestReporting:
    def test_format_seconds_ranges(self):
        assert "µs" in format_seconds(5e-6)
        assert "ms" in format_seconds(0.005)
        assert format_seconds(2.5) == "2.50 s"
        assert "min" in format_seconds(600)
        assert "h" in format_seconds(10_000)

    def test_format_bytes_ranges(self):
        assert format_bytes(100) == "100 B"
        assert format_bytes(2048) == "2.0 KB"
        assert "MB" in format_bytes(5 * 1024 * 1024)
        assert "GB" in format_bytes(3 * 1024 ** 3)

    def test_cdf_points(self):
        samples = list(range(1, 101))
        points = cdf_points(samples, steps=4)
        assert points[-1] == (100, 1.0)
        assert points[0][1] == 0.25
        assert points[0][0] == 25

    def test_cdf_empty(self):
        assert cdf_points([]) == []


class TestTiming:
    def test_time_call(self):
        result, elapsed = time_call(sum, range(1000))
        assert result == 499500
        assert elapsed >= 0
