"""The stdlib sampling profiler: span attribution, output formats."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.errors import ValidationError
from repro.obs.profile import DEFAULT_HZ, SamplingProfiler, _frame_functions
from repro.obs.spans import Tracer


def _burn(seconds: float) -> int:
    """A busy loop the sampler can catch in the act."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(50))
    return acc


class TestSamplingProfiler:
    def test_samples_attribute_to_active_span(self):
        tr = Tracer(enabled=True)
        profiler = SamplingProfiler(hz=250, tracer=tr)
        with profiler:
            with tr.span("hot.section"):
                _burn(0.25)
        assert profiler.sample_count > 0
        span_names = {span for span, _ in profiler.counts()}
        assert "hot.section" in span_names
        # Per-span counters mirror the attribution.
        snapshot = profiler.registry.snapshot()
        assert snapshot["profile.span.hot.section"] > 0
        assert snapshot["profile.samples"] == profiler.sample_count
        assert snapshot["profile.hz"] == 250

    def test_samples_outside_spans_fall_back(self):
        profiler = SamplingProfiler(hz=250, tracer=Tracer(enabled=True))
        with profiler:
            _burn(0.2)
        assert profiler.sample_count > 0
        assert {span for span, _ in profiler.counts()} == {"(no span)"}

    def test_collapsed_folded_stack_format(self):
        tr = Tracer(enabled=True)
        profiler = SamplingProfiler(hz=250, tracer=tr)
        with profiler:
            with tr.span("fold.me"):
                _burn(0.2)
        lines = profiler.collapsed()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert stack  # "span;outer;...;inner"
        assert any(line.startswith("fold.me;") for line in lines)

    def test_report_lines_and_top(self):
        tr = Tracer(enabled=True)
        profiler = SamplingProfiler(hz=250, tracer=tr)
        with profiler:
            with tr.span("ranked"):
                _burn(0.2)
        top = profiler.top(3)
        assert top and top[0][2] >= top[-1][2]
        lines = profiler.report_lines()
        assert "samples at 250 Hz" in lines[0]
        assert any("ranked" in line for line in lines[1:])

    def test_no_samples_report(self):
        profiler = SamplingProfiler(hz=50)
        assert "no samples" in profiler.report_lines()[0]

    def test_reset_clears_everything(self):
        tr = Tracer(enabled=True)
        profiler = SamplingProfiler(hz=250, tracer=tr)
        with profiler:
            _burn(0.1)
        assert profiler.sample_count > 0
        profiler.reset()
        assert profiler.sample_count == 0
        assert profiler.counts() == {}
        assert profiler.collapsed() == []

    def test_lifecycle_guards(self):
        profiler = SamplingProfiler(hz=50)
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()
        profiler.stop()
        profiler.stop()  # idempotent
        with pytest.raises(ValidationError):
            SamplingProfiler(hz=0)

    def test_profile_helper_uses_global_tracer(self):
        tr = obs.tracer()
        tr.reset()
        obs.enable()
        try:
            with obs.profile(hz=250) as profiler:
                with obs.span("global.hot"):
                    _burn(0.2)
        finally:
            obs.disable()
            tr.reset()
        assert profiler.hz == 250
        assert "global.hot" in {span for span, _ in profiler.counts()}

    def test_default_hz_is_prime(self):
        n = DEFAULT_HZ
        assert n >= 2
        assert all(n % k for k in range(2, int(n ** 0.5) + 1))


class TestFrameFunctions:
    def test_skips_scaffolding_modules(self):
        import sys

        frame = sys._getframe()
        labels = _frame_functions(frame, limit=5)
        assert labels
        assert all(not label.startswith("threading.")
                   for label in labels)
        assert labels[0].endswith("test_skips_scaffolding_modules")
