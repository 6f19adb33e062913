"""Adaptive partition sizing tests (future-work extension)."""

import math

import pytest

from repro.core.adaptive import (
    AdaptiveAdministrator,
    AdaptivePolicy,
    CoefficientFit,
    fit_linear_cost,
)
from repro.errors import ParameterError
from tests.conftest import make_system


class TestPolicyMath:
    def test_more_revocations_grow_partitions(self):
        policy = AdaptivePolicy(min_capacity=1, max_capacity=10**6)
        low = policy.optimal_capacity(10_000, revocation_rate=0.01,
                                      decrypt_rate=1.0)
        high = policy.optimal_capacity(10_000, revocation_rate=1.0,
                                       decrypt_rate=1.0)
        assert high > low

    def test_more_decrypts_shrink_partitions(self):
        policy = AdaptivePolicy(min_capacity=1, max_capacity=10**6)
        few = policy.optimal_capacity(10_000, 1.0, decrypt_rate=0.1)
        many = policy.optimal_capacity(10_000, 1.0, decrypt_rate=100.0)
        assert many < few

    def test_cube_root_closed_form(self):
        policy = AdaptivePolicy(c_rekey=1.0, c_decrypt=1.0,
                                min_capacity=1, max_capacity=10**9)
        # m* = cbrt(r·n/(2·d)) with unit coefficients.
        m = policy.optimal_capacity(2_000, 1.0, 1.0)
        assert m == round((2_000 / 2) ** (1 / 3))

    def test_clamping(self):
        policy = AdaptivePolicy(min_capacity=10, max_capacity=100)
        assert policy.optimal_capacity(10, 0.001, 1000.0) == 10
        assert policy.optimal_capacity(10**6, 1000.0, 0.001) == 100

    def test_degenerate_rates(self):
        policy = AdaptivePolicy(min_capacity=4, max_capacity=100)
        assert policy.optimal_capacity(50, 0.0, 1.0) == 4
        assert policy.optimal_capacity(50, 1.0, 0.0) == 50

    def test_invalid_inputs(self):
        policy = AdaptivePolicy()
        with pytest.raises(ParameterError):
            policy.optimal_capacity(0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            policy.optimal_capacity(10, -1.0, 1.0)

    def test_hysteresis(self):
        policy = AdaptivePolicy(hysteresis=2.0)
        assert not policy.should_repartition(100, 150)
        assert policy.should_repartition(100, 300)
        assert policy.should_repartition(100, 40)

    def test_hysteresis_boundary_exactly_at_factor(self):
        # The band is closed: exactly hysteresis× (or 1/hysteresis×)
        # does NOT trigger — only strict drift past the band does.
        policy = AdaptivePolicy(hysteresis=1.5)
        assert not policy.should_repartition(100, 150)   # exactly 1.5×
        assert policy.should_repartition(100, 151)
        assert not policy.should_repartition(150, 100)   # exactly 1/1.5
        assert policy.should_repartition(151, 100)

    def test_min_equals_max_capacity_pins_the_optimum(self):
        policy = AdaptivePolicy(min_capacity=32, max_capacity=32)
        # Whatever the workload mix says, the clamp wins — and a pinned
        # capacity can never drift past the hysteresis band.
        for rev, dec in [(0.001, 1000.0), (1000.0, 0.001),
                         (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]:
            optimal = policy.optimal_capacity(10_000, rev, dec)
            assert optimal == 32
            assert not policy.should_repartition(32, optimal)

    def test_recommendation_stable_under_noisy_rates(self):
        # ±20% noise on both rates moves the cube-root optimum by at
        # most (1.2/0.8)^(1/3) ≈ 1.14× — inside the default 1.5×
        # hysteresis band, so a converged group must never thrash.
        policy = AdaptivePolicy(min_capacity=1, max_capacity=10**6)
        base = policy.optimal_capacity(100_000, 0.35, 2.0)
        for rev_noise in (0.8, 0.9, 1.0, 1.1, 1.2):
            for dec_noise in (0.8, 0.9, 1.0, 1.1, 1.2):
                noisy = policy.optimal_capacity(
                    100_000, 0.35 * rev_noise, 2.0 * dec_noise)
                assert not policy.should_repartition(base, noisy)


class TestCalibration:
    def test_fit_recovers_a_linear_cost(self):
        fit = fit_linear_cost([(1.0, 0.012), (2.0, 0.022),
                               (4.0, 0.042), (8.0, 0.082)])
        assert fit.coefficient == pytest.approx(0.01)
        assert fit.intercept == pytest.approx(0.002)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)
        assert "4 samples" in fit.describe()

    def test_fit_clamps_negative_slope(self):
        fit = fit_linear_cost([(1.0, 0.05), (2.0, 0.04), (3.0, 0.03)])
        assert fit.coefficient == 0.0

    def test_fit_rejects_degenerate_samples(self):
        with pytest.raises(ParameterError):
            fit_linear_cost([(1.0, 0.5)])
        with pytest.raises(ParameterError):
            fit_linear_cost([(2.0, 0.5), (2.0, 0.6)])

    def test_calibrated_policy_uses_measured_coefficients(self):
        rekey = fit_linear_cost([(1.0, 0.011), (2.0, 0.021)])
        decrypt = fit_linear_cost([(64.0, 0.001), (256.0, 0.004)])
        policy = AdaptivePolicy.calibrated(rekey, decrypt,
                                           min_capacity=1,
                                           max_capacity=10**9)
        assert policy.c_rekey == rekey.coefficient
        assert policy.c_decrypt == decrypt.coefficient
        expected = round((0.35 * policy.c_rekey * 10_000
                          / (2 * 2.0 * policy.c_decrypt)) ** (1 / 3))
        assert policy.optimal_capacity(10_000, 0.35, 2.0) == expected

    def test_calibrated_rejects_zero_slope(self):
        flat = fit_linear_cost([(1.0, 0.5), (2.0, 0.5)])
        steep = fit_linear_cost([(1.0, 0.1), (2.0, 0.2)])
        with pytest.raises(ParameterError):
            AdaptivePolicy.calibrated(flat, steep)
        with pytest.raises(ParameterError):
            AdaptivePolicy.calibrated(steep, flat)

    def test_cutoff_curve_against_sqrt_rule(self):
        policy = AdaptivePolicy(min_capacity=1, max_capacity=10**9)
        curve = policy.cutoff_curve([10_000, 100_000, 1_000_000],
                                    revocation_rate=0.35,
                                    decrypt_rate=2.0)
        assert [p.group_size for p in curve] == [10_000, 100_000,
                                                 1_000_000]
        for point in curve:
            assert point.sqrt_rule == round(math.sqrt(point.group_size))
            assert point.optimal == policy.optimal_capacity(
                point.group_size, 0.35, 2.0)
            assert point.ratio == pytest.approx(
                point.optimal / point.sqrt_rule)
        # m* grows as cbrt(n): the ratio to sqrt(n) must fall with n.
        assert curve[0].ratio > curve[1].ratio > curve[2].ratio


class TestAdaptiveAdministrator:
    def test_resize_triggered_by_decrypt_heavy_workload(self):
        system = make_system("adaptive", capacity=8, system_bound=16,
                             auto_repartition=False)
        policy = AdaptivePolicy(min_capacity=2, max_capacity=16,
                                hysteresis=1.2)
        adaptive = AdaptiveAdministrator(system.admin, policy,
                                         review_every=4)
        adaptive.create_group("g", [f"u{i}" for i in range(8)])
        # Decrypt-heavy workload: the optimum collapses to min capacity.
        adaptive.record_decrypt("g", count=400)
        for i in range(4):
            adaptive.add_user("g", f"extra{i}")
        assert adaptive.resizes >= 1
        state = system.admin.group_state("g")
        assert state.table.capacity < 8
        # Group still functional after the resize.
        client = system.make_client("g", "u0")
        client.sync()
        client.current_group_key()

    def test_no_resize_without_signal(self):
        system = make_system("adaptive2", capacity=4, system_bound=16,
                             auto_repartition=False)
        policy = AdaptivePolicy(min_capacity=2, max_capacity=16,
                                hysteresis=100.0)  # effectively frozen
        adaptive = AdaptiveAdministrator(system.admin, policy,
                                         review_every=2)
        adaptive.create_group("g", ["a", "b", "c"])
        adaptive.add_user("g", "d")
        adaptive.add_user("g", "e")
        assert adaptive.resizes == 0

    def test_review_interval_respected(self):
        system = make_system("adaptive3", capacity=4, system_bound=16,
                             auto_repartition=False)
        adaptive = AdaptiveAdministrator(system.admin, review_every=1000)
        adaptive.create_group("g", ["a", "b"])
        adaptive.record_decrypt("g", count=10)
        adaptive.add_user("g", "c")
        assert adaptive.resizes == 0

    def test_invalid_review_interval(self):
        system = make_system("adaptive4")
        with pytest.raises(ParameterError):
            AdaptiveAdministrator(system.admin, review_every=0)

    def test_trajectory_records_every_review(self):
        system = make_system("adaptive5", capacity=8, system_bound=16,
                             auto_repartition=False)
        policy = AdaptivePolicy(min_capacity=2, max_capacity=16,
                                hysteresis=1.2)
        adaptive = AdaptiveAdministrator(system.admin, policy,
                                         review_every=4)
        adaptive.create_group("g", [f"u{i}" for i in range(8)])
        adaptive.record_decrypt("g", count=400)
        for i in range(4):
            adaptive.add_user("g", f"extra{i}")
        assert len(adaptive.trajectory) == 1
        point = adaptive.trajectory[0]
        assert point.group_id == "g"
        assert point.current_capacity == 8
        assert point.repartitioned
        assert point.optimal_capacity == system.admin.group_state(
            "g").table.capacity
        summary = point.summary()
        assert summary["group"] == "g" and summary["repartitioned"]

    def test_trajectory_includes_non_repartitioning_reviews(self):
        system = make_system("adaptive6", capacity=4, system_bound=16,
                             auto_repartition=False)
        policy = AdaptivePolicy(min_capacity=2, max_capacity=16,
                                hysteresis=100.0)  # never triggers
        adaptive = AdaptiveAdministrator(system.admin, policy,
                                         review_every=2)
        adaptive.create_group("g", ["a", "b", "c"])
        adaptive.add_user("g", "d")
        adaptive.add_user("g", "e")
        assert adaptive.resizes == 0
        assert len(adaptive.trajectory) == 1
        assert not adaptive.trajectory[0].repartitioned

    def test_trajectory_is_bounded(self):
        system = make_system("adaptive7", capacity=4, system_bound=16,
                             auto_repartition=False)
        adaptive = AdaptiveAdministrator(system.admin, review_every=1)
        adaptive.MAX_TRAJECTORY = 3
        adaptive.create_group("g", ["a", "b", "c", "d"])
        for i in range(6):
            adaptive.add_user("g", f"n{i}")
        assert len(adaptive.trajectory) == 3
        # FIFO: the retained points are the most recent reviews.
        assert adaptive.trajectory[-1].group_size == 10
