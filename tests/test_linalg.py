import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kron_lyapunov_solve, random_hurwitz
from powergram import (
    GramianMetric,
    NotPositiveDefiniteError,
    NumericalError,
    StabilityError,
    matrix_exponential,
    metric_value,
    solve_lyapunov,
    symmetrize,
)
from powergram.centrality import _gradient_weights

seed_ints = st.integers(min_value=0, max_value=2**32 - 1)


def test_symmetrize_is_symmetric_and_idempotent():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5))
    S = symmetrize(A)
    assert np.array_equal(S, S.T)
    assert np.array_equal(symmetrize(S), S)


def test_square_input_required():
    with pytest.raises(ValueError, match="square"):
        solve_lyapunov(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        solve_lyapunov(np.array([[np.nan, 0.0], [0.0, -1.0]]), np.eye(2))


def test_lyapunov_scalar_closed_form():
    # a x + x a + q = 0 with a = -1, q = 1 has x = 1/2.
    X = solve_lyapunov(np.array([[-1.0]]), np.array([[1.0]]))
    assert X == pytest.approx(np.array([[0.5]]))


def test_lyapunov_diagonal_closed_form():
    # Diagonal A decouples: x_kk = q_kk / (2 |a_k|).
    A = np.diag([-1.0, -4.0])
    Q = np.diag([2.0, 2.0])
    X = solve_lyapunov(A, Q)
    assert np.allclose(X, np.diag([1.0, 0.25]), atol=1e-14)


def test_lyapunov_identity_forcing():
    A = -np.eye(3)
    X = solve_lyapunov(A, np.eye(3))
    assert np.allclose(X, 0.5 * np.eye(3), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed_ints)
def test_lyapunov_matches_kron_vectorization(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, max(1, n // 2)))
    Q = B @ B.T
    X = solve_lyapunov(A, Q)
    X_ref = kron_lyapunov_solve(A, Q)
    assert np.linalg.norm(X - X_ref) <= 1e-8 * max(1.0, np.linalg.norm(X_ref))
    # Residual of the defining equation.
    R = A @ X + X @ A.T + Q
    scale = 2 * np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(Q)
    assert np.linalg.norm(R) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(seed_ints)
def test_lyapunov_psd_forcing_gives_psd_solution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, 1))
    X = solve_lyapunov(A, B @ B.T)
    assert np.array_equal(X, X.T)
    assert np.min(np.linalg.eigvalsh(X)) >= -1e-10 * max(1.0, np.linalg.norm(X))


def test_lyapunov_rejects_non_hurwitz():
    with pytest.raises(StabilityError):
        solve_lyapunov(np.array([[0.0]]), np.array([[1.0]]))
    with pytest.raises(StabilityError):
        solve_lyapunov(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40, 79])
def test_lyapunov_matches_scipy_solver(n):
    # scipy's own Bartels-Stewart solver as the oracle, over the state
    # orders of the nine-bus case (5) and the synthetic networks (up to 79).
    rng = np.random.default_rng(1000 + n)
    A = random_hurwitz(rng, n)
    B = rng.standard_normal((n, max(1, n // 3)))
    Q = B @ B.T
    X = solve_lyapunov(A, Q)
    X_ref = sla.solve_continuous_lyapunov(A, -Q)
    assert np.linalg.norm(X - X_ref) <= 1e-10 * np.linalg.norm(X_ref)
    R = A @ X + X @ A.T + Q
    scale = 2 * np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(Q)
    assert np.linalg.norm(R) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(40))
def test_lyapunov_stability_verdict_matches_eigvals(seed):
    # The Hurwitz test reads the Schur form's eigenvalues; it must agree
    # with eigvals whenever the abscissa is clear of roundoff.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) - rng.uniform(-0.5, 0.5)) * np.eye(n)
    alpha = float(np.max(np.linalg.eigvals(A).real))
    if abs(alpha) <= 1e-6:
        pytest.skip("abscissa within roundoff of the axis")
    if alpha >= 0.0:
        with pytest.raises(StabilityError):
            solve_lyapunov(A, np.eye(n))
    else:
        assert np.all(np.isfinite(solve_lyapunov(A, np.eye(n))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lyapunov_rejects_non_finite_state_matrix(bad):
    A = -np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_lyapunov(A, np.eye(3))


def test_lyapunov_rejects_asymmetric_forcing():
    A = -np.eye(2)
    Q = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        solve_lyapunov(A, Q)


def test_lyapunov_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve_lyapunov(-np.eye(2), np.eye(3))


def test_expm_zero_and_diagonal():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))
    E = matrix_exponential(np.diag([1.0, -2.0]), t=0.5)
    assert np.allclose(E, np.diag([np.exp(0.5), np.exp(-1.0)]), rtol=1e-14)


def test_expm_nilpotent_closed_form():
    # exp of a strictly upper triangular 2x2 truncates after the linear term.
    N = np.array([[0.0, 3.0], [0.0, 0.0]])
    assert np.allclose(
        matrix_exponential(N, t=2.0),
        np.array([[1.0, 6.0], [0.0, 1.0]]),
        rtol=0.0,
        atol=1e-13,
    )


@settings(max_examples=20, deadline=None)
@given(seed_ints)
def test_expm_semigroup_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    s, t = rng.uniform(0.1, 1.5, size=2)
    lhs = matrix_exponential(A, s + t)
    rhs = matrix_exponential(A, s) @ matrix_exponential(A, t)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_expm_overflow_reported():
    with pytest.raises(NumericalError):
        matrix_exponential(np.array([[1000.0]]), t=1000.0)


# The ECM's adjoint right-hand side is the only place an SPD inverse is
# formed: W^-1 for logdet and W^-2 for neg-trace-inv, from W's Cholesky
# factor.
def test_spd_inverse_identity():
    for metric in GramianMetric:
        assert np.array_equal(_gradient_weights(np.eye(4), metric), np.eye(4))
    assert metric_value(np.eye(4), GramianMetric.LOG_DET) == 0.0


def test_spd_inverse_diagonal():
    W = np.diag([2.0, 0.5])
    W_inv = _gradient_weights(W, GramianMetric.LOG_DET)
    assert np.allclose(W_inv, np.diag([0.5, 2.0]), atol=1e-15)
    W_inv2 = _gradient_weights(W, GramianMetric.NEG_TRACE_INV)
    assert np.allclose(W_inv2, np.diag([0.25, 4.0]), atol=1e-15)
    assert metric_value(W, GramianMetric.LOG_DET) == pytest.approx(
        np.log(2.0) + np.log(0.5), abs=1e-15
    )


@settings(max_examples=25, deadline=None)
@given(seed_ints)
def test_spd_inverse_matches_generic_routines(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    R = rng.standard_normal((n, n))
    W = R @ R.T + n * np.eye(n)
    W_inv = _gradient_weights(W, GramianMetric.LOG_DET)
    assert np.linalg.norm(W @ W_inv - np.eye(n)) <= 1e-9
    W_inv2 = _gradient_weights(W, GramianMetric.NEG_TRACE_INV)
    assert np.linalg.norm(W @ W @ W_inv2 - np.eye(n)) <= 1e-9
    sign, ref = np.linalg.slogdet(W)
    assert sign == 1.0
    assert metric_value(W, GramianMetric.LOG_DET) == pytest.approx(
        ref, rel=1e-12, abs=1e-12
    )


def test_spd_inverse_rejects_indefinite():
    for metric in (GramianMetric.LOG_DET, GramianMetric.NEG_TRACE_INV):
        with pytest.raises(NotPositiveDefiniteError):
            _gradient_weights(np.diag([1.0, -1.0]), metric)
        with pytest.raises(NotPositiveDefiniteError):
            _gradient_weights(np.zeros((2, 2)), metric)


def test_spd_inverse_rejects_asymmetric():
    for metric in (GramianMetric.LOG_DET, GramianMetric.NEG_TRACE_INV):
        with pytest.raises(ValueError):
            _gradient_weights(np.array([[1.0, 0.3], [0.0, 1.0]]), metric)
