import math

import numpy as np
import pytest

from seedbank import (
    FlowKind,
    build_flow,
    definiteness_of,
    delta_matrix,
    diagonal_chart,
    drift_k1_closed,
    eigvecs_on_gamma,
    fd_hessians,
    fd_jacobian,
    hessians_on_gamma,
    jacobian_on_gamma,
    null_eigenpair,
    phi0_derivatives,
    project_to_manifold,
    projections,
    reduce_point,
    solve_theta,
    spectrum_gate,
    theta_g_closed,
    theta_integral,
    validate_distribution,
)
from seedbank.errors import (
    DomainViolation,
    MultipleNullEigenvalues,
    NoNullEigenvalue,
    SingularSystem,
    SpectrumViolation,
)
from seedbank.manifold_reduction import lyapunov_rhs
from conftest import random_simplex


def tail_vector(d, x0):
    tails = np.cumsum(d.array[::-1])[::-1][1:]
    den = d.mean_time * (1.0 - x0) + 1.0
    return np.concatenate([[1.0], tails * (1.0 - x0)]) / den


def test_fd_jacobian_and_hessians():
    def f(x):
        return np.array([x[0] ** 2 + x[0] * x[1], np.sin(x[1])])

    x = np.array([0.3, 0.7])
    jac = fd_jacobian(f, x)
    np.testing.assert_allclose(
        jac, [[2 * 0.3 + 0.7, 0.3], [0.0, np.cos(0.7)]], atol=1e-8
    )
    hess = fd_hessians(f, x)
    np.testing.assert_allclose(hess[0], [[2.0, 1.0], [1.0, 0.0]], atol=1e-6)
    np.testing.assert_allclose(hess[1], [[0.0, 0.0], [0.0, -np.sin(0.7)]], atol=1e-6)


def test_null_eigenpair_k1_example():
    jac = np.array([[-0.5, 0.5], [1.0, -1.0]])
    u, v = null_eigenpair(jac)
    np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(v, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_null_eigenpair_rank_one_kernel():
    # identity minus a rank-one with kernel e1
    j = np.diag([0.0, -1.0, -0.5])
    u, v = null_eigenpair(j)
    np.testing.assert_allclose(u, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(v @ u, 1.0)


def test_null_eigenpair_failures():
    with pytest.raises(NoNullEigenvalue):
        null_eigenpair(np.diag([-1.0, -2.0]))
    with pytest.raises(MultipleNullEigenvalues):
        null_eigenpair(np.zeros((2, 2)))


def test_null_eigenpair_matches_closed_form_k4():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = random_simplex(rng, 4)
        x0 = rng.uniform(0.0, 0.99)
        kind = FlowKind("constant", d)
        jac = jacobian_on_gamma(kind, x0)
        u, v = null_eigenpair(jac)
        np.testing.assert_allclose(u, np.ones(5), atol=1e-9)
        np.testing.assert_allclose(v, tail_vector(d, x0), atol=1e-9)


def test_spectrum_gate():
    eigvals = spectrum_gate(np.array([[-0.5, 0.5], [1.0, -1.0]]))
    np.testing.assert_allclose(sorted(eigvals.real), [-1.5, 0.0], atol=1e-12)
    with pytest.raises(SpectrumViolation):
        spectrum_gate(np.eye(3))
    # fast flow, K=2: one null plus 2K strictly stable eigenvalues
    d = validate_distribution([0.5, 0.3, 0.2])
    jac = jacobian_on_gamma(FlowKind("fast_env", d), 0.4)
    eigvals = spectrum_gate(jac)
    assert eigvals.size == 5
    assert np.sum(np.abs(eigvals) < 1e-8) == 1


def test_projections():
    u = np.array([1.0, 1.0])
    v = np.array([2.0 / 3.0, 1.0 / 3.0])
    p_c, p_s = projections(u, v)
    np.testing.assert_allclose(p_c @ p_c, p_c, atol=1e-14)
    np.testing.assert_allclose(p_s @ p_s, p_s, atol=1e-14)
    np.testing.assert_allclose(p_c + p_s, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(p_c @ u, u, atol=1e-14)
    np.testing.assert_allclose(v @ p_s, np.zeros(2), atol=1e-14)


def test_solve_theta_zero_hessians():
    d = validate_distribution([0.5, 0.5])
    kind = FlowKind("constant", d)
    jac = jacobian_on_gamma(kind, 0.3)
    u, v = eigvecs_on_gamma(kind, 0.3)
    _, p_s = projections(u, v)
    zeros = [np.zeros((2, 2))] * 2
    np.testing.assert_allclose(solve_theta(jac, zeros, v, p_s, u), np.zeros((2, 2)))
    np.testing.assert_allclose(theta_integral(jac, zeros, v, p_s), np.zeros((2, 2)))


def test_solve_theta_matches_closed_form():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        for _ in range(5):
            d = random_simplex(rng, k)
            x0 = rng.uniform(0.0, 1.0)
            kind = FlowKind("linearized", d)
            jac = jacobian_on_gamma(kind, x0)
            u, v = eigvecs_on_gamma(kind, x0)
            _, p_s = projections(u, v)
            theta = solve_theta(jac, hessians_on_gamma(kind, x0), v, p_s, u)
            np.testing.assert_allclose(theta, theta_g_closed(d, x0), atol=1e-9)
            np.testing.assert_allclose(theta @ u, np.zeros(k + 1), atol=1e-9)


def lstsq_theta(j, hessians, v, p_s, u):
    """Dense least-squares oracle for Theta: the free entries of a symmetric
    matrix, with the constraint rows Theta u = 0 appended (O(dim^6))."""
    n = j.shape[0]
    rhs_mat = lyapunov_rhs(hessians, v, p_s)
    pairs = [(a, c) for a in range(n) for c in range(a, n)]
    a_mat = np.zeros((n * n + n, len(pairs)))
    for k, (a, c) in enumerate(pairs):
        basis = np.zeros((n, n))
        basis[a, c] = 1.0
        basis[c, a] = 1.0
        a_mat[: n * n, k] = (j.T @ basis + basis @ j).ravel()
        a_mat[n * n :, k] = basis @ u
    rhs = np.concatenate([rhs_mat.ravel(), np.zeros(n)])
    sol, _, rank, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    assert rank == len(pairs)
    theta = np.zeros((n, n))
    for k, (a, c) in enumerate(pairs):
        theta[a, c] = sol[k]
        theta[c, a] = sol[k]
    return theta


@pytest.mark.parametrize("k", [5, 20])
def test_deflated_solve_matches_lstsq_and_quadrature(k):
    d = random_simplex(np.random.default_rng(100 + k), k)
    kind = FlowKind("constant", d)
    for x0 in (0.1, 0.5, 0.9):
        jac = jacobian_on_gamma(kind, x0)
        u, v = eigvecs_on_gamma(kind, x0)
        _, p_s = projections(u, v)
        hess = hessians_on_gamma(kind, x0)
        theta = solve_theta(jac, hess, v, p_s, u)
        scale = np.max(np.abs(theta))
        for want in (lstsq_theta(jac, hess, v, p_s, u), theta_integral(jac, hess, v, p_s)):
            assert np.max(np.abs(theta - want)) <= 1e-8 * scale
        assert np.max(np.abs(theta @ u)) <= 1e-12 * scale


def test_solve_theta_second_null_eigenvalue_raises():
    # two uncoupled blocks, each with a null eigenvalue: the deflated block
    # keeps one of them, so the Lyapunov operator is singular
    jac = np.zeros((3, 3))
    jac[:2, :2] = [[-0.5, 0.5], [1.0, -1.0]]
    u, v = null_eigenpair(jac[:2, :2])
    u, v = np.append(u, 0.0), np.append(v, 0.0)
    _, p_s = projections(u, v)
    rng = np.random.default_rng(37)
    for hess in ([np.zeros((3, 3))] * 3,
                 [m + m.T for m in rng.standard_normal((3, 3, 3))]):
        with pytest.raises(SingularSystem):
            solve_theta(jac, hess, v, p_s, u)


def test_solve_theta_inconsistent_rhs_raises():
    # an unprojected right-hand side does not vanish along u, so no Theta
    # with Theta u = 0 solves the equation
    d = validate_distribution([0.5, 0.3, 0.2])
    kind = FlowKind("constant", d)
    jac = jacobian_on_gamma(kind, 0.4)
    u, v = eigvecs_on_gamma(kind, 0.4)
    with pytest.raises(SingularSystem):
        solve_theta(jac, hessians_on_gamma(kind, 0.4), v, np.eye(3), u)


def test_theta_integral_cross_pipeline():
    rng = np.random.default_rng(23)
    for k in (1, 2, 3, 4):
        for _ in range(20):
            d = random_simplex(rng, k)
            x0 = rng.uniform(0.0, 0.98)
            kind = FlowKind("constant", d)
            jac = jacobian_on_gamma(kind, x0)
            u, v = eigvecs_on_gamma(kind, x0)
            _, p_s = projections(u, v)
            hess = hessians_on_gamma(kind, x0)
            direct = solve_theta(jac, hess, v, p_s, u)
            quad = theta_integral(jac, hess, v, p_s)
            assert np.max(np.abs(direct - quad)) < 1e-7


def test_semidefiniteness_transfer():
    # whenever the Lyapunov right-hand side is pos-semidef, theta is
    # neg-semidef, and vice versa
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = rng.integers(1, 5)
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.0, 1.0)
        for tag in ("constant", "linearized"):
            kind = FlowKind(tag, d)
            jac = jacobian_on_gamma(kind, x0)
            u, v = eigvecs_on_gamma(kind, x0)
            _, p_s = projections(u, v)
            hess = hessians_on_gamma(kind, x0)
            rhs = lyapunov_rhs(hess, v, p_s)
            theta = solve_theta(jac, hess, v, p_s, u)
            rhs_class = definiteness_of(rhs)
            theta_class = definiteness_of(theta)
            if rhs_class.is_psd:
                assert theta_class.is_nsd
            if rhs_class.is_nsd:
                assert theta_class.is_psd


def test_definiteness_labels():
    assert definiteness_of(np.eye(3)).is_psd
    assert definiteness_of(np.diag([1.0, -1.0])).label == "indefinite"
    delta, _ = delta_matrix(validate_distribution([0.5, 0.3, 0.2]))
    assert definiteness_of(delta).is_nsd


def test_phi0_derivative_closed_forms():
    rng = np.random.default_rng(31)
    for _ in range(10):
        k = rng.integers(1, 5)
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.0, 0.99)
        kind = FlowKind("constant", d)
        chart = diagonal_chart(k + 1)
        jac = jacobian_on_gamma(kind, x0)
        u, v = eigvecs_on_gamma(kind, x0)
        _, p_s = projections(u, v)
        theta = solve_theta(jac, hessians_on_gamma(kind, x0), v, p_s, u)
        grad, _ = phi0_derivatives(chart, x0, lambda s: tail_vector(d, s), theta)
        den = d.mean_time * (1.0 - x0) + 1.0
        assert abs(grad[0] - 1.0 / den) < 1e-10
        tails = np.cumsum(d.array[::-1])[::-1][1:]
        np.testing.assert_allclose(grad[1:], tails * (1.0 - x0) / den, atol=1e-10)
        # normalizations on the diagonal chart
        gp = chart.gamma_prime(x0)
        assert abs(v @ gp - 1.0) < 1e-12
        assert abs(u @ v - 1.0) < 1e-12
        assert abs(grad @ gp - 1.0) < 1e-10


def test_phi0_hess_k1_matches_drift():
    d = validate_distribution([0.5, 0.5])
    kind = FlowKind("constant", d)
    chart = diagonal_chart(2)
    for x0 in (0.1, 0.45, 0.8):
        jac = jacobian_on_gamma(kind, x0)
        u, v = eigvecs_on_gamma(kind, x0)
        _, p_s = projections(u, v)
        theta = solve_theta(jac, hessians_on_gamma(kind, x0), v, p_s, u)
        _, hess = phi0_derivatives(chart, x0, lambda s: tail_vector(d, s), theta)
        assert abs(hess[0, 0] - drift_k1_closed(0.5, x0)) < 1e-8


def test_project_to_manifold_fixed_points():
    d = validate_distribution([0.6, 0.2, 0.2])
    flow = build_flow(FlowKind("constant", d))
    x = np.full(3, 0.35)
    np.testing.assert_allclose(project_to_manifold(flow, x), x, atol=1e-8)
    with pytest.raises(DomainViolation):
        project_to_manifold(flow, np.array([1.5, 0.0, 0.0]))
    # a NaN coordinate is outside the box too
    for bad in ([math.nan, 0.35, 0.35], [0.35, 0.35, math.nan]):
        with pytest.raises(DomainViolation):
            flow(np.array(bad))


def characteristics_invariant(b0, x0, x1):
    # conserved quantity of the K=1 flow along trajectories
    q = 1.0 - b0
    return (q * x1 + b0) / (1.0 - x0) - q * np.log(1.0 - x0)


def test_project_to_manifold_characteristics_example():
    d = validate_distribution([0.5, 0.5])
    flow = build_flow(FlowKind("constant", d))
    start = np.array([0.2, 0.4])
    limit = project_to_manifold(flow, start, tol=1e-12)
    assert abs(limit[0] - limit[1]) < 1e-9
    lhs = characteristics_invariant(0.5, start[0], start[1])
    rhs = characteristics_invariant(0.5, limit[0], limit[0])
    assert abs(lhs - rhs) < 1e-8


def test_phi0_grad_matches_projection_finite_differences():
    d = validate_distribution([0.5, 0.3, 0.2])
    kind = FlowKind("constant", d)
    flow = build_flow(kind)
    chart = diagonal_chart(3)
    x0 = 0.4
    result = reduce_point(flow, chart, x0)
    point = chart.gamma(x0)
    step = 1e-5
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        up = project_to_manifold(flow, point + e, tol=1e-12)[0]
        dn = project_to_manifold(flow, point - e, tol=1e-12)[0]
        fd = (up - dn) / (2 * step)
        assert abs(fd - result.phi0_grad[i]) < 1e-5


def test_phi0_hess00_matches_projection_finite_differences():
    d = validate_distribution([0.5, 0.5])
    kind = FlowKind("constant", d)
    flow = build_flow(kind)
    chart = diagonal_chart(2)
    x0 = 0.4
    result = reduce_point(flow, chart, x0)
    point = chart.gamma(x0)
    step = 1e-4
    e = np.array([step, 0.0])
    up = project_to_manifold(flow, point + e, tol=1e-12)[0]
    mid = project_to_manifold(flow, point, tol=1e-12)[0]
    dn = project_to_manifold(flow, point - e, tol=1e-12)[0]
    fd2 = (up - 2 * mid + dn) / step**2
    assert abs(fd2 - result.phi0_hess[0, 0]) < 1e-3


def test_reduce_point_consistency():
    d = validate_distribution([0.6, 0.2, 0.2])
    kind = FlowKind("constant", d)
    flow = build_flow(kind)
    chart = diagonal_chart(3)
    result = reduce_point(flow, chart, 0.25)
    u, v = eigvecs_on_gamma(kind, 0.25)
    np.testing.assert_allclose(result.u, u, atol=1e-7)
    np.testing.assert_allclose(result.v, v, atol=1e-7)
    np.testing.assert_allclose(result.theta @ result.u, np.zeros(3), atol=1e-8)
    payload = result.to_dict()
    assert set(payload) == {
        "point", "u", "v", "p_c", "p_s", "theta", "phi0_grad", "phi0_hess",
    }
