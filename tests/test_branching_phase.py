import numpy as np
import pytest

from seedbank import psi, validate_distribution
from seedbank.errors import ValidationError
from conftest import random_simplex
from oracles import (
    BranchingSpec,
    BudgetExceeded,
    conditional_tail,
    frobenius_eigenvectors,
    mean_matrix,
    simulate_branching,
    survival_constant,
)


def test_mean_matrix_examples():
    spec = BranchingSpec(validate_distribution([0.5, 0.5]), poisson_scale=10.0)
    np.testing.assert_allclose(mean_matrix(spec), [[0.5, 5.0], [0.1, 0.0]])
    spec = BranchingSpec(validate_distribution([1.0, 0.0]))
    m = mean_matrix(spec)
    assert m[0, 0] == 1.0
    assert np.all(m[0, 1:] == 0.0)


def loop_mean_matrix(spec):
    """Per-element reference for ``mean_matrix``."""
    b, k, m_scale = spec.d.array, spec.d.k, spec.poisson_scale
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = b[0]
    mat[0, 1:] = m_scale * b[1:]
    mat[1, 0] = 1.0 / m_scale
    for i in range(2, k + 1):
        mat[i, i - 1] = 1.0
    return mat


def test_mean_matrix_matches_per_element_loop():
    rng = np.random.default_rng(31)
    for k in range(1, 7):
        for _ in range(10):
            spec = BranchingSpec(random_simplex(rng, k),
                                 poisson_scale=float(rng.uniform(1.5, 50.0)))
            assert mean_matrix(spec).tobytes() == loop_mean_matrix(spec).tobytes()


def test_spectral_radius_is_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.integers(1, 7)
        spec = BranchingSpec(random_simplex(rng, k), poisson_scale=rng.uniform(2.0, 50.0))
        radius = np.max(np.abs(np.linalg.eigvals(mean_matrix(spec))))
        assert abs(radius - 1.0) < 1e-10


def test_frobenius_eigenvectors():
    spec = BranchingSpec(validate_distribution([0.5, 0.5]), poisson_scale=10.0)
    u, v = frobenius_eigenvectors(spec)
    np.testing.assert_allclose(u, [10.0 / 11.0, 1.0 / 11.0])
    # u right, v left eigenvector of the mean matrix at eigenvalue 1
    m = mean_matrix(spec)
    np.testing.assert_allclose(m @ u, u, atol=1e-14)
    np.testing.assert_allclose(v @ m, v, atol=1e-14)
    assert abs(u.sum() - 1.0) < 1e-14
    assert abs(u @ v - 1.0) < 1e-14

    rng = np.random.default_rng(11)
    for _ in range(20):
        k = rng.integers(1, 6)
        d = random_simplex(rng, k)
        spec = BranchingSpec(d, poisson_scale=rng.uniform(1.5, 30.0))
        u, v = frobenius_eigenvectors(spec)
        m = mean_matrix(spec)
        np.testing.assert_allclose(m @ u, u, atol=1e-12)
        np.testing.assert_allclose(v @ m, v, atol=1e-12)
        assert abs(u @ v - 1.0) < 1e-12
        assert abs(u[0] * v[0] - 1.0 / (d.mean_time + 1.0)) < 1e-12


def test_u0_v0_no_dormancy():
    spec = BranchingSpec(validate_distribution([1.0, 0.0]))
    u, v = frobenius_eigenvectors(spec)
    assert abs(u[0] * v[0] - 1.0) < 1e-14


def test_survival_constant():
    assert survival_constant(validate_distribution([1.0, 0.0])) == 2.0
    assert survival_constant(validate_distribution([0.5, 0.5])) == pytest.approx(3.0)
    assert survival_constant(validate_distribution([0.6, 0.2, 0.2])) == pytest.approx(3.2)


def test_conditional_tail():
    d = validate_distribution([0.5, 0.5])
    assert conditional_tail(d, 0.0) == pytest.approx(1.0)
    d0 = validate_distribution([1.0, 0.0])
    assert conditional_tail(d0, 0.3) == pytest.approx(np.exp(-0.6))
    db1 = validate_distribution([0.2, 0.6, 0.2])  # B = 1
    assert conditional_tail(db1, 0.5) == pytest.approx(np.exp(-4.0))


def test_psi_values():
    assert psi(0.0, 0.37) == pytest.approx(0.37, abs=1e-14)
    assert psi(2.5, 0.0) == 0.0
    assert abs(psi(1.0, 0.01) - 1.2438e-3) < 1e-7


def test_psi_monotonicity():
    ys = np.linspace(0.01, 1.0, 25)
    bs = np.linspace(0.0, 4.0, 25)
    for big_b in bs:
        vals = psi(big_b, ys)
        assert np.all(np.diff(vals) > 0)
    for y in ys:
        vals = psi(bs, y)
        assert np.all(np.diff(vals) < 0)


def test_psi_correspondence_identity():
    # (B+1)(e^{-2 psi(y1) (B+1)^2} - e^{-2 psi(y2) (B+1)^2}) = e^{-2 y1} - e^{-2 y2}
    rng = np.random.default_rng(5)
    for _ in range(50):
        big_b = rng.uniform(0.0, 3.0)
        y1, y2 = np.sort(rng.uniform(0.0, 1.0, 2))
        lhs = (big_b + 1.0) * (
            np.exp(-2.0 * psi(big_b, y1) * (big_b + 1.0) ** 2)
            - np.exp(-2.0 * psi(big_b, y2) * (big_b + 1.0) ** 2)
        )
        rhs = np.exp(-2.0 * y1) - np.exp(-2.0 * y2)
        assert abs(lhs - rhs) < 1e-12


def test_simulate_branching_validation():
    spec = BranchingSpec(validate_distribution([0.5, 0.5]))
    with pytest.raises(BudgetExceeded):
        simulate_branching(spec, horizon_t=50, replicates=0, seed=1)
    with pytest.raises(ValidationError):
        simulate_branching(spec, horizon_t=5, replicates=100, seed=1)
    with pytest.raises(BudgetExceeded):
        simulate_branching(spec, horizon_t=100, replicates=5000, seed=1, budget=100)


def test_simulate_branching_deterministic():
    spec = BranchingSpec(validate_distribution([0.6, 0.2, 0.2]))
    run1 = simulate_branching(spec, horizon_t=60, replicates=2000, seed=9)
    run2 = simulate_branching(spec, horizon_t=60, replicates=2000, seed=9)
    np.testing.assert_array_equal(run1.t_p_alive, run2.t_p_alive)
    np.testing.assert_array_equal(run1.tail_samples, run2.tail_samples)


def test_simulate_branching_survival_trend():
    # t * P(alive) approaches 2(B+1) from above; the deviation at t=200
    # should not exceed the deviation at t=50 beyond Monte Carlo noise
    d = validate_distribution([0.5, 0.5])
    spec = BranchingSpec(d)
    run = simulate_branching(spec, horizon_t=200, replicates=60_000, seed=123)
    target = survival_constant(d)
    dev = np.abs(run.t_p_alive - target)
    slack = 3.0 * (run.std_err[0] + run.std_err[-1])
    assert dev[-1] <= dev[0] + slack
    assert abs(run.t_p_alive[-1] - target) < 4.0 * run.std_err[-1] + 0.15
