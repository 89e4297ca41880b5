"""End-to-end acceptance checks tying the analytic layer, the reduction
engine, the branching and diffusion phases, and the discrete simulators
together at fixed tolerances.

One check (`test_acceptance_08c_decline_curve_exceeds_neutral`) is expected to
fail: the claimed behaviour is numerically unattainable (see the decline-gain
analysis in the fixation curve: a population shrinking to 70% of its size
boosts fixation by at most xi_inf^(-B/(B+1)), which never compensates the
dormancy penalty at this amplitude).  It is kept as written rather than
loosened.
"""

import math
import time

import numpy as np
import pytest

from seedbank import (
    FastEnvSpec,
    FlowKind,
    build_flow,
    diagonal_chart,
    drift_bound,
    drift_k1_closed,
    drift_k2_closed,
    drift_second_derivative,
    eigvecs_on_gamma,
    g_function,
    h_function,
    hessians_on_gamma,
    jacobian_on_gamma,
    kolmogorov_fixation,
    manifold_chart,
    phi0_derivatives,
    projections,
    psi,
    scale_fixation,
    sde_constant,
    solve_theta,
    theta_integral,
    validate_distribution,
)
from seedbank.wf_simulators import run_fixation
from conftest import generation, random_simplex
from oracles import (
    BranchingSpec,
    fast_second_derivatives_k1,
    left_eigvec_prime,
    mean_matrix,
    project_to_manifold,
    psi_cap,
    scale_closed_form,
    simulate_branching,
    theta_g_closed,
)


def test_acceptance_01_theta_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for k in range(1, 7):
        for _ in range(20):
            d = random_simplex(rng, k)
            x0 = rng.uniform(0.0, 1.0)
            kind = FlowKind("linearized", d)
            jac = jacobian_on_gamma(kind, x0)
            u, v = eigvecs_on_gamma(kind, x0)
            _, p_s = projections(u, v)
            theta = solve_theta(jac, hessians_on_gamma(kind, x0), v, p_s, u)
            assert np.max(np.abs(theta - theta_g_closed(d, x0))) < 1e-9
    assert time.monotonic() - t0 < 5.0


def test_acceptance_02_integral_formula():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    for k in (1, 2, 3):
        for _ in range(10):
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
    assert time.monotonic() - t0 < 30.0


def test_acceptance_03_drift_closed_forms():
    rng = np.random.default_rng(103)
    for _ in range(50):
        x0 = rng.uniform(0.0, 1.0)
        b0 = rng.uniform(0.05, 1.0)
        d1 = validate_distribution([b0, 1.0 - b0])
        assert abs(drift_second_derivative(d1, x0) - drift_k1_closed(b0, x0)) < 1e-9
        d2 = random_simplex(rng, 2)
        assert abs(drift_second_derivative(d2, x0) - drift_k2_closed(d2, x0)) < 1e-9
        # upper bound holds everywhere sampled
        for d in (d1, d2):
            assert drift_second_derivative(d, x0) <= drift_bound(d.mean_time, x0) + 1e-12
    # equals twice the mean germination time at x0 = 1, any supported depth
    for k in range(1, 7):
        d = random_simplex(rng, k)
        assert abs(drift_second_derivative(d, 1.0) - 2.0 * d.mean_time) < 1e-9
    # strictly increasing in x0
    for k in (1, 2, 4):
        d = random_simplex(rng, k)
        grid = np.linspace(0.0, 1.0, 100)
        vals = [drift_second_derivative(d, x) for x in grid]
        assert np.all(np.diff(vals) > 0)


def characteristics_invariant(b0, x0, x1):
    q = 1.0 - b0
    return (q * x1 + b0) / (1.0 - x0) - q * np.log(1.0 - x0)


def test_acceptance_04_characteristics_oracle():
    rng = np.random.default_rng(104)
    for _ in range(50):
        b0 = rng.uniform(0.1, 0.95)
        d = validate_distribution([b0, 1.0 - b0])
        flow = build_flow(FlowKind("constant", d))
        start = rng.uniform(0.02, 0.9, size=2)
        limit = project_to_manifold(flow, start, tol=1e-10)
        assert abs(limit[0] - limit[1]) < 1e-9
        lhs = characteristics_invariant(b0, start[0], start[1])
        rhs = characteristics_invariant(b0, limit[0], limit[0])
        assert abs(lhs - rhs) < 1e-8

    # finite-difference curvature of the projection map matches the drift
    b0 = 0.5
    d = validate_distribution([b0, 1.0 - b0])
    flow = build_flow(FlowKind("constant", d))
    h = 1e-3
    for x0 in (0.2, 0.5, 0.8):
        point = np.array([x0, x0])
        vals = []
        for eps in (-h, 0.0, h):
            shifted = point + np.array([eps, 0.0])
            vals.append(project_to_manifold(flow, shifted, tol=1e-12)[0])
        fd = (vals[2] - 2.0 * vals[1] + vals[0]) / h**2
        assert abs(fd - drift_k1_closed(b0, x0)) < 1e-3


def test_acceptance_05_branching_constants():
    rng = np.random.default_rng(105)
    for _ in range(100):
        k = rng.integers(1, 7)
        spec = BranchingSpec(random_simplex(rng, k),
                             poisson_scale=rng.uniform(1.5, 50.0))
        radius = np.max(np.abs(np.linalg.eigvals(mean_matrix(spec))))
        assert abs(radius - 1.0) < 1e-10

    t0 = time.monotonic()
    for b in [(1.0, 0.0), (0.5, 0.5), (0.6, 0.2, 0.2)]:
        d = validate_distribution(list(b))
        run = simulate_branching(BranchingSpec(d), horizon_t=200,
                                 replicates=200_000, seed=2, budget=int(5e9))
        i = list(run.times).index(200)
        want = 2.0 * (d.mean_time + 1.0)
        assert abs(run.t_p_alive[i] - want) < 3.0 * run.std_err[i]
    assert time.monotonic() - t0 < 120.0


def test_acceptance_06_psi_analytics():
    ys = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(psi(0.0, ys), ys, atol=1e-12)

    rng = np.random.default_rng(106)
    for _ in range(50):
        big_b = rng.uniform(0.0, 3.0)
        y1, y2 = rng.uniform(0.0, 1.0, 2)
        lhs = (big_b + 1.0) * (
            np.exp(-2.0 * psi(big_b, y1) * (big_b + 1.0) ** 2)
            - np.exp(-2.0 * psi(big_b, y2) * (big_b + 1.0) ** 2)
        )
        rhs = np.exp(-2.0 * y1) - np.exp(-2.0 * y2)
        assert abs(lhs - rhs) < 1e-12

    bs = np.linspace(0.05, 4.0, 40)
    for y in (0.05, 0.3, 0.7):
        vals = psi_cap(bs, y)
        assert np.all(vals < y)
        assert np.all(np.diff(vals) < 0)

    # quadrature scale function of the bounding diffusion vs closed form
    for big_b in (0.3, 1.0, 2.5):
        def mu(x, b=big_b):
            return 0.5 * x * (1.0 - x) * drift_bound(b, x)

        def sig(x, b=big_b):
            return math.sqrt(x * (1.0 - x)) / (b * (1.0 - x) + 1.0)

        for v in (0.1, 0.5, 0.9):
            got = scale_fixation(mu, sig, v)
            want = scale_closed_form(big_b, v) / scale_closed_form(big_b, 1.0)
            assert abs(got - want) < 1e-9


def test_acceptance_07_diffusion_vs_discrete():
    t0 = time.monotonic()
    d = validate_distribution([0.5, 0.5])
    est = run_fixation("constant", d, 300, 0.2, 20_000, 500_000, seed=8)
    spec = sde_constant(d)
    want = scale_fixation(
        lambda x: spec.drift(np.array([x]))[0],
        lambda x: spec.diffusion(np.array([x]))[0, 0],
        0.2,
    )
    assert est.censored_count == 0
    assert abs(est.p_hat - want) < 3.0 * est.std_err
    assert time.monotonic() - t0 < 300.0


def test_acceptance_08a_autonomous_limit_and_neutral():
    d = validate_distribution([0.5, 0.5])
    spec = sde_constant(d)
    for start in (0.1, 0.4, 0.8):
        pde = kolmogorov_fixation(d, {"r": 20.0, "xi_inf": 1.0}, start)
        ref = scale_fixation(
            lambda x: spec.drift(np.array([x]))[0],
            lambda x: spec.diffusion(np.array([x]))[0, 0],
            start,
        )
        assert abs(pde - ref) < 1e-3

    neutral = validate_distribution([1.0, 0.0])
    for r, xi_inf in [(20.0, 0.7), (20.0, 1.2), (5.0, 0.9)]:
        got = kolmogorov_fixation(neutral, {"r": r, "xi_inf": xi_inf}, 0.01)
        assert abs(got - 0.01) < 1e-6


def fixation_curve(xi_inf, b0s, y=0.01, r=20.0):
    vals = []
    for b0 in b0s:
        d = validate_distribution([b0, 1.0 - b0])
        start = psi(d.mean_time, y)
        vals.append(kolmogorov_fixation(d, {"r": r, "xi_inf": xi_inf}, start))
    return np.array(vals)


def test_acceptance_08b_growth_curve_below_neutral():
    b0s = np.linspace(0.3, 0.95, 6)
    t0 = time.monotonic()
    curve = fixation_curve(1.2, b0s)
    assert np.all(curve < 0.01)
    assert time.monotonic() - t0 < 120.0


def test_acceptance_08c_decline_curve_exceeds_neutral():
    # EXPECTED FAILURE: a decline to 70% of carrying capacity cannot lift the
    # curve above the neutral level 0.01 anywhere; the multiplicative gain from
    # the decline is bounded by xi_inf^(-B/(B+1)) and would need xi_inf below
    # about 0.13 to beat the dormancy penalty.  The check is kept as stated.
    b0s = np.linspace(0.5, 0.95, 6)
    t0 = time.monotonic()
    curve = fixation_curve(0.7, b0s)
    assert time.monotonic() - t0 < 120.0
    assert np.any(curve > 0.01)


def fast_pipeline_k1(b0, x0):
    d = validate_distribution([b0, 1.0 - b0])
    kind = FlowKind("fast_env", d)
    chart = manifold_chart(kind)
    jac = jacobian_on_gamma(kind, x0)
    u, v = eigvecs_on_gamma(kind, x0)
    _, p_s = projections(u, v)
    theta = solve_theta(jac, hessians_on_gamma(kind, x0), v, p_s, u)
    _, hess = phi0_derivatives(
        chart, x0, lambda s: eigvecs_on_gamma(kind, s)[1], theta,
        v_prime_fn=lambda s: left_eigvec_prime(kind, s),
    )
    return hess


def test_acceptance_09_fast_environment():
    # corner value of the extra-drift factor (exact closed form, consistent
    # with the generic reduction below)
    assert abs(h_function(0.0, 0.0) - 5.0 / 6.0) < 1e-14
    xs = np.linspace(0.0, 1.0, 101)
    grid = np.array([[h_function(x, b) for b in xs] for x in xs])
    assert np.all(grid >= -1e-12)

    rng = np.random.default_rng(109)
    for _ in range(50):
        b0 = rng.uniform(0.05, 1.0)
        x0 = rng.uniform(0.02, 0.95)
        hess = fast_pipeline_k1(b0, x0)
        d2_xu, d2_uu = fast_second_derivatives_k1(b0, x0)
        assert abs(hess[0, 2] - d2_xu) < 1e-8
        assert abs(hess[2, 2] - d2_uu) < 1e-8

    # one-step conditional mean of the discrete fast-environment chain
    d = validate_distribution([0.7, 0.3])
    fenv = FastEnvSpec(p=0.3, s=1.0)
    n_pop = 400
    s_n = fenv.s_of_N(n_pop)
    reps = 10**6
    x = np.tile(np.array([160, 120], dtype=np.int64), (reps, 1))
    # the dormant generation's weight 1 + s_N (mark +1) in front of the
    # weights register, which the fresh mark's weight ages
    weights = np.tile([1.0 + s_n, 1.0], (reps, 1))
    draw_rng = np.random.default_rng(9)
    fresh = fenv.sample_marks(draw_rng, reps)
    new = generation(x, d, n_pop, n_pop, draw_rng, weights, 1.0 + s_n * fresh)
    delta = (new[:, 0] - x[:, 0]) / n_pop

    xf = x[0] / n_pop
    ups = s_n  # one dormant generation carrying mark +1
    s_weighted = d.b[1] * (1.0 + ups) * xf[1]
    a_front = 1.0 - (1.0 - d.b[0]) * xf[0]
    h_tilde = a_front + s_weighted
    target = (
        2.0 * fenv.p * s_n**2 * (1.0 - xf[0]) * a_front * s_weighted
        / ((h_tilde**2 - s_n**2 * a_front**2) * h_tilde)
        + (1.0 - xf[0]) * (s_weighted - (1.0 - d.b[0]) * xf[0]) / h_tilde
    )
    se = delta.std() / math.sqrt(reps)
    assert abs(delta.mean() - target) < 4.0 * se


def test_acceptance_10_g_sign_pattern():
    rng = np.random.default_rng(110)
    for _ in range(20):
        d = random_simplex(rng, rng.integers(1, 4))
        xi = rng.uniform(0.3, 2.0)
        assert abs(g_function(d, 0.0, xi)) < 1e-12
        assert abs(g_function(d, 1.0, xi)) < 1e-12

    for xi_min in (0.5, 0.8):
        rho_c = (4.0 + xi_min) / (4.0 + 3.0 * xi_min)
        b_c = 2.0 / xi_min
        # small mean dormancy time: positive below the critical proportion
        small = validate_distribution([0.95, 0.05])
        assert small.mean_time < b_c
        for rho in np.linspace(0.05, rho_c - 0.05, 12):
            for xi in (xi_min, 1.2, 2.0):
                assert g_function(small, rho, xi) > 0
        # mean dormancy time beyond the critical value: negative near fixation
        big = validate_distribution([0.1, 0.0, 0.0, 0.0, 0.0, 0.9])  # B = 4.5
        assert big.mean_time > b_c
        for rho in np.linspace(0.93, 0.99, 5):
            assert g_function(big, rho, xi_min) < 0
