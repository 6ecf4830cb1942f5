import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import powergram.gramian
from oracles import (
    bare_system,
    kron_lyapunov_solve,
    random_connected_network,
    rk4_steer,
)
from powergram import (
    GramianMetric,
    NotPositiveDefiniteError,
    NumericalError,
    build_reduced_system,
    damping_ratio,
    damping_report,
    default_horizon,
    gramian_finite,
    gramian_infinite,
    matrix_exponential,
    metric_value,
    minimum_energy_cost,
    minimum_energy_input,
    sample_energy_costs,
    slowest_oscillatory_mode,
)

SCALAR = bare_system([[-1.0]], [[1.0]])


class TestMetricValue:
    def test_identity(self):
        assert metric_value(np.eye(3), GramianMetric.TRACE) == 3.0
        assert metric_value(np.eye(3), GramianMetric.LOG_DET) == 0.0
        assert metric_value(np.eye(3), GramianMetric.NEG_TRACE_INV) == -3.0

    def test_diagonal(self):
        W = np.diag([2.0, 0.5])
        assert metric_value(W, GramianMetric.TRACE) == 2.5
        assert metric_value(W, GramianMetric.LOG_DET) == pytest.approx(0.0, abs=1e-15)
        assert metric_value(W, GramianMetric.NEG_TRACE_INV) == pytest.approx(-2.5)

    def test_trace_tolerates_indefinite_but_others_do_not(self):
        W = np.diag([1.0, -1.0])
        assert metric_value(W, GramianMetric.TRACE) == 0.0
        for kind in (GramianMetric.LOG_DET, GramianMetric.NEG_TRACE_INV):
            with pytest.raises(NotPositiveDefiniteError):
                metric_value(W, kind)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_explicit_inverse_formulas(self, seed):
        # Reference: Cholesky, then the full inverse, its trace and the
        # factor's log-diagonal, over condition numbers up to 1e10.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        spectrum = np.geomspace(1.0, 10.0 ** -rng.uniform(0, 10), n)
        W = (U * (spectrum * 10.0 ** rng.uniform(-3, 3))) @ U.T
        W = 0.5 * (W + W.T)
        c, lower = sla.cho_factor(W, lower=True)
        logdet = 2.0 * float(np.sum(np.log(np.diag(c))))
        W_inv = sla.cho_solve((c, lower), np.eye(n))
        neg_trace_inv = -float(np.trace(0.5 * (W_inv + W_inv.T)))
        assert metric_value(W, GramianMetric.LOG_DET) == pytest.approx(
            logdet, rel=1e-12, abs=1e-12
        )
        assert metric_value(W, GramianMetric.NEG_TRACE_INV) == pytest.approx(
            neg_trace_inv, rel=1e-12
        )

    @pytest.mark.parametrize(
        "W, error",
        [
            (np.diag([1.0, 0.0]), NotPositiveDefiniteError),
            (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPositiveDefiniteError),
            (np.array([[2.0, 0.5], [0.0, 2.0]]), ValueError),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError),
            (np.eye(3)[:2], ValueError),
        ],
    )
    def test_determinant_metrics_reject_bad_gramians(self, W, error):
        for kind in (GramianMetric.LOG_DET, GramianMetric.NEG_TRACE_INV):
            with pytest.raises(error):
                metric_value(W, kind)

    def test_parse(self):
        assert GramianMetric.parse("trace") is GramianMetric.TRACE
        assert GramianMetric.parse("logdet") is GramianMetric.LOG_DET
        assert GramianMetric.parse("neg-trace-inv") is GramianMetric.NEG_TRACE_INV
        with pytest.raises(ValueError, match="unknown metric"):
            GramianMetric.parse("det")


class TestGramianInfinite:
    def test_scalar_closed_form(self):
        res = gramian_infinite(SCALAR)
        assert res.W == pytest.approx(np.array([[0.5]]))
        assert res.horizon == math.inf
        assert res.controllable

    def test_diagonal_closed_form(self):
        res = gramian_infinite(bare_system(-np.eye(2), np.eye(2)))
        assert np.allclose(res.W, 0.5 * np.eye(2), atol=1e-14)

    def test_nine_bus_gramian_is_positive_definite(self, ieee9_sys):
        res = gramian_infinite(ieee9_sys)
        assert res.controllable
        assert np.min(np.linalg.eigvalsh(res.W)) > 0
        # Independent dense solve of the same equation.
        W_ref = kron_lyapunov_solve(ieee9_sys.A, ieee9_sys.B @ ieee9_sys.B.T)
        assert np.linalg.norm(res.W - W_ref) <= 1e-8 * np.linalg.norm(W_ref)
        for kind in GramianMetric:
            assert math.isfinite(res.metric(kind))


class TestGramianFinite:
    def test_scalar_closed_form(self):
        # W(t) = (1 - e^{-2t})/2 for a = -1, b = 1.
        res = gramian_finite(SCALAR, 1.0)
        assert res.W == pytest.approx(np.array([[(1.0 - math.exp(-2.0)) / 2.0]]))
        assert res.horizon == 1.0

    def test_converges_to_infinite_horizon(self, ieee9_sys):
        W_inf = gramian_infinite(ieee9_sys).W
        W_big = gramian_finite(ieee9_sys, 2000.0).W
        assert np.max(np.abs(W_big - W_inf)) <= 1e-8 * np.max(np.abs(W_inf))

    def test_monotone_in_horizon(self, ieee9_sys):
        W1 = gramian_finite(ieee9_sys, 5.0).W
        W2 = gramian_finite(ieee9_sys, 15.0).W
        scale = np.max(np.abs(W2))
        assert np.min(np.linalg.eigvalsh(W2 - W1)) >= -1e-9 * scale

    def test_dominated_by_infinite_horizon(self, ieee9_sys):
        t_f = default_horizon(ieee9_sys)
        W = gramian_finite(ieee9_sys, t_f).W
        W_inf = gramian_infinite(ieee9_sys).W
        assert np.min(np.linalg.eigvalsh(W_inf - W)) >= -1e-9 * np.max(np.abs(W_inf))

    def test_ordering_check_scales_with_the_gramian(self):
        # max|W(inf)| is about 1.9e3 here; the roundoff violation of about
        # 2.8e-9 (1.5e-12 relative) must not read as an inconsistent solve.
        net = random_connected_network(np.random.default_rng(2), 40)
        sys = build_reduced_system(net)
        W_inf = gramian_infinite(sys).W
        W = gramian_finite(sys, 12.0).W
        gap = np.min(np.linalg.eigvalsh(W_inf - W))
        assert gap >= -1e-11 * np.max(np.abs(W_inf))

    def test_gramian_above_infinite_horizon_raises(self, monkeypatch):
        net = random_connected_network(np.random.default_rng(3), 5)
        sys = build_reduced_system(net)
        gramian_infinite(sys)  # kept on the system, so the patch below misses it
        real = powergram.gramian._schur_lyapunov
        monkeypatch.setattr(
            powergram.gramian, "_schur_lyapunov", lambda S, Q: 1.01 * real(S, Q)
        )
        with pytest.raises(NumericalError, match="ordering violated"):
            gramian_finite(sys, 2000.0)

    def test_last_horizon_is_kept(self, ieee9_sys):
        first = gramian_finite(ieee9_sys, 3.0)
        assert gramian_finite(ieee9_sys, 3.0) is first
        assert not first.W.flags.writeable
        other = gramian_finite(ieee9_sys, 4.0)
        assert other is not first
        assert gramian_finite(ieee9_sys, 4.0) is other

    def test_infinite_horizon_delegates(self, ieee9_sys):
        res = gramian_finite(ieee9_sys, math.inf)
        assert res.horizon == math.inf
        assert np.array_equal(res.W, gramian_infinite(ieee9_sys).W)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            gramian_finite(SCALAR, 0.0)
        with pytest.raises(ValueError):
            gramian_finite(SCALAR, -1.0)


def test_default_horizon_is_decay_time(ieee9_sys):
    t_f = default_horizon(ieee9_sys)
    abscissa = np.max(np.linalg.eigvals(ieee9_sys.A).real)
    assert t_f == pytest.approx(-1.0 / abscissa)
    assert t_f > 0


class TestMinimumEnergy:
    def test_scalar_infinite_horizon(self):
        # J = x0^2 / W = 1 / 0.5 = 2.
        assert minimum_energy_cost(SCALAR, np.array([1.0]), math.inf) == pytest.approx(2.0)

    def test_zero_state_costs_nothing(self, ieee9_sys):
        x0 = np.zeros(ieee9_sys.order)
        assert minimum_energy_cost(ieee9_sys, x0, 10.0) == 0.0

    def test_longer_horizons_are_cheaper(self, ieee9_sys):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(ieee9_sys.order)
        j_short = minimum_energy_cost(ieee9_sys, x0, 5.0)
        j_long = minimum_energy_cost(ieee9_sys, x0, 50.0)
        j_best = minimum_energy_cost(ieee9_sys, x0, math.inf)
        assert j_best <= j_long + 1e-9 * abs(j_long)
        assert j_long <= j_short + 1e-9 * abs(j_short)

    def test_shape_validation(self, ieee9_sys):
        with pytest.raises(ValueError):
            minimum_energy_cost(ieee9_sys, np.ones(3), 1.0)
        with pytest.raises(ValueError):
            minimum_energy_input(ieee9_sys, np.ones(ieee9_sys.order), math.inf, 0.0)
        with pytest.raises(ValueError):
            minimum_energy_input(
                ieee9_sys, np.ones(ieee9_sys.order), 1.0, np.array([0.0, 2.0])
            )

    def test_scalar_input_closed_form(self):
        # u(t) = -e^{-(tf - t)} W(tf)^{-1} e^{-tf} x0 for a = -1, b = 1.
        t_f, x0 = 1.0, np.array([3.0])
        W = (1.0 - math.exp(-2.0 * t_f)) / 2.0
        for t in (0.0, 0.4, 1.0):
            expected = -math.exp(-(t_f - t)) / W * math.exp(-t_f) * 3.0
            u = minimum_energy_input(SCALAR, x0, t_f, t)
            assert u == pytest.approx(np.array([expected]), rel=1e-12)

    def test_input_energy_matches_gramian_form(self):
        # The to-origin steering law spends z0^T W^{-1} z0 with
        # z0 = e^{A t_f} x0; check by integrating |u|^2 on a fine grid.
        t_f = 1.0
        x0 = np.array([3.0])
        grid = np.linspace(0.0, t_f, 4001)
        u = minimum_energy_input(SCALAR, x0, t_f, grid)
        energy = np.trapezoid((u**2).sum(axis=1), grid)
        z0 = matrix_exponential(SCALAR.A, t_f) @ x0
        expected = minimum_energy_cost(SCALAR, z0, t_f)
        assert energy == pytest.approx(expected, rel=1e-6)

    def test_steering_reaches_origin_rk4(self, ieee9_sys):
        # Drive a random state to zero and integrate the loop numerically:
        # the endpoint must be tiny in absolute terms and vastly smaller
        # than what free decay achieves over the same window.
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal(ieee9_sys.order)
        t_f = default_horizon(ieee9_sys)
        steps = 2000
        grid = np.linspace(0.0, t_f, 2 * steps + 1)
        U = minimum_energy_input(ieee9_sys, x0, t_f, grid)
        x_end = rk4_steer(ieee9_sys, x0, t_f, U, steps)
        x_free = matrix_exponential(ieee9_sys.A, t_f) @ x0
        norm0 = np.linalg.norm(x0)
        assert np.linalg.norm(x_end) <= 1e-4 * norm0
        assert np.linalg.norm(x_free) / np.linalg.norm(x_end) >= 1e4


class TestSampledEnergy:
    def test_reproducible_and_positive(self, ieee9_sys):
        a = sample_energy_costs(ieee9_sys, 10.0, 50, seed=123)
        b = sample_energy_costs(ieee9_sys, 10.0, 50, seed=123)
        assert np.array_equal(a, b)
        assert a.shape == (50,)
        assert np.all(a > 0)

    def test_mean_estimates_trace_inverse(self, ieee9_sys):
        t_f = default_horizon(ieee9_sys)
        js = sample_energy_costs(ieee9_sys, t_f, 2000, seed=7)
        expected = -metric_value(
            gramian_finite(ieee9_sys, t_f).W, GramianMetric.NEG_TRACE_INV
        )
        stderr = js.std(ddof=1) / math.sqrt(js.size)
        assert abs(js.mean() - expected) <= 3.0 * stderr

    def test_sample_count_validated(self, ieee9_sys):
        with pytest.raises(ValueError):
            sample_energy_costs(ieee9_sys, 1.0, 0)


class TestDamping:
    def test_real_pole_is_critically_damped(self):
        assert damping_ratio(complex(-1.0, 0.0)) == 100.0
        assert damping_ratio(complex(2.0, 0.0)) == -100.0

    def test_conjugate_pair_closed_form(self):
        # zeta = 100/sqrt(2) for poles at -1 +- 1j.
        z = damping_ratio(complex(-1.0, 1.0))
        assert z == pytest.approx(100.0 / math.sqrt(2.0), rel=1e-12)
        assert damping_ratio(complex(-1.0, -1.0)) == z

    def test_zero_pole_rejected(self):
        with pytest.raises(ValueError):
            damping_ratio(0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-10.0, max_value=-0.01),
        st.floats(min_value=0.01, max_value=10.0),
        st.integers(min_value=-8, max_value=8),
    )
    def test_scale_invariance(self, re, im, exponent):
        # Exact under power-of-two scaling (float multiplication by 2^k
        # only shifts exponents), tight for any other positive factor.
        p = complex(re, im)
        c = 2.0**exponent
        assert damping_ratio(c * p) == damping_ratio(p)
        assert damping_ratio(1.7 * p) == pytest.approx(damping_ratio(p), rel=1e-12)

    def test_report_sorts_slow_modes_first(self):
        A = np.diag([-10.0, -0.1]).astype(float)
        A2 = np.zeros((4, 4))
        A2[:2, :2] = [[-0.2, -3.0], [3.0, -0.2]]   # fast oscillation
        A2[2:, 2:] = [[-0.1, -0.5], [0.5, -0.1]]   # slow oscillation
        report = damping_report(A2)
        assert [abs(p.imag) for p, _ in report] == sorted(
            abs(p.imag) for p, _ in report
        )
        assert abs(report[0][0].imag) == pytest.approx(0.5, rel=1e-12)
        report_real = damping_report(A)
        assert report_real[0][0] == pytest.approx(-0.1)

    def test_marginal_zero_mode_is_omitted(self, toy2):
        # Unreduced swing dynamics keep the average-angle zero pole.
        n = toy2.N
        A_full = np.zeros((2 * n, 2 * n))
        A_full[:n, n:] = np.eye(n)
        A_full[n:, :n] = -toy2.L / toy2.M[:, None]
        A_full[n:, n:] = -np.diag(toy2.D / toy2.M)
        report = damping_report(A_full)
        assert len(report) == 2 * n - 1
        assert all(abs(p) > 1e-10 for p, _ in report)

    def test_slowest_oscillatory_mode_prefers_oscillations(self, ieee9_sys):
        report = damping_report(ieee9_sys.A)
        pole, zeta = slowest_oscillatory_mode(report)
        assert pole.imag > 0
        oscillatory = [p for p, _ in report if p.imag > 0]
        assert abs(pole.real) == min(abs(p.real) for p in oscillatory)
        assert 0 < zeta < 100

    def test_slowest_mode_falls_back_to_real_poles(self):
        report = damping_report(np.diag([-3.0, -0.5]))
        pole, zeta = slowest_oscillatory_mode(report)
        assert pole == pytest.approx(-0.5)
        assert zeta == 100.0
        with pytest.raises(ValueError):
            slowest_oscillatory_mode([])
