import numpy as np
import pytest

from seedbank import (
    FlowKind,
    SlowEnvSpec,
    build_flow,
    delta_matrix,
    drift_bound,
    drift_k1_closed,
    drift_k2_closed,
    drift_second_derivative,
    eigvecs_on_gamma,
    fd_hessians,
    fd_jacobian,
    h_function,
    hessians_on_gamma,
    jacobian_on_gamma,
    manifold_chart,
    null_eigenpair,
    phi0_derivatives,
    projections,
    reduce_point,
    solve_theta,
    validate_distribution,
)
from seedbank import manifold_reduction, seedbank_flows
from seedbank.core_model import Banks, GerminationDistribution
from seedbank.errors import SingularSystem, UnsupportedK, ValidationError
from seedbank.diffusion_limits import drift_factor_fn
from seedbank.manifold_reduction import theta_integral
from seedbank.seedbank_flows import batched_drift_fn
from seedbank.wf_simulators import _probability
from conftest import random_simplex, stack
from oracles import (fast_second_derivatives_k1, left_eigvec_prime, theta_fast_closed_k1,
                     theta_g_closed)


def slow_spec():
    return SlowEnvSpec(0.2, 2.0, alpha=lambda x: 0.0, eta=lambda x: 0.0)


def test_flow_kind_validation():
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        FlowKind("bogus", d)
    assert FlowKind("constant", d).dim == 2
    assert FlowKind("slow_env", d).dim == 3
    assert FlowKind("fast_env", d).dim == 3
    # the per-point oracle takes one bank; a stack once failed on a bare
    # broadcast ValueError
    with pytest.raises(ValidationError, match="takes one bank; drift_factor_fn"):
        drift_second_derivative(Banks([[0.5, 0.25, 0.25], [0.3, 0.4, 0.3]]), 0.3)


def test_flows_vanish_on_manifold():
    rng = np.random.default_rng(2)
    for k in (1, 2, 3):
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.0, 1.0)
        for tag in ("constant", "linearized"):
            flow = build_flow(FlowKind(tag, d))
            np.testing.assert_allclose(flow(np.full(k + 1, x0)), 0.0, atol=1e-14)
        flow = build_flow(FlowKind("fast_env", d))
        state = np.concatenate([np.full(k + 1, x0), np.zeros(k)])
        np.testing.assert_allclose(flow(state), 0.0, atol=1e-14)
        flow = build_flow(FlowKind("slow_env", d, env=slow_spec()))
        xi = rng.uniform(max(0.2, x0), 2.0)
        state = np.concatenate([np.full(k + 1, x0), [xi]])
        np.testing.assert_allclose(flow(state), 0.0, atol=1e-14)


def test_constant_flow_example():
    d = validate_distribution([0.5, 0.5])
    flow = build_flow(FlowKind("constant", d))
    out = flow(np.array([0.0, 1.0]))
    assert out[0] == pytest.approx(1.0 / 3.0)
    assert out[1] == pytest.approx(-1.0)


def test_slow_env_scaling_identity():
    # the slow-environment field is a time change of the constant one
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = rng.integers(1, 4)
        d = random_simplex(rng, k)
        const = build_flow(FlowKind("constant", d))
        slow = build_flow(FlowKind("slow_env", d, env=slow_spec()))
        xi = rng.uniform(0.5, 2.0)
        x = rng.uniform(0.0, min(xi, 1.0), k + 1)
        x[0] = min(x[0], xi)
        got = slow(np.concatenate([x, [xi]]))
        want = xi * const(x / xi)
        np.testing.assert_allclose(got[: k + 1], want, atol=1e-12)
        assert got[k + 1] == 0.0


def test_one_field_identities():
    # one field serves every tag: at zero marks fast_env is constant and at
    # xi = 1 slow_env is constant, bit for bit, and the mutant row is the
    # chain's mean step xi p - x0, p the success probability of a generation
    rng = np.random.default_rng(31)
    n_states = 2000
    fast_same = slow_same = 0
    worst_const = worst_slow = 0.0
    for _ in range(n_states):
        k = int(rng.integers(1, 6))
        d = random_simplex(rng, k)
        b = d.array
        x = rng.uniform(0.0, 1.0, k + 1)
        const = build_flow(FlowKind("constant", d))(x)
        fast = build_flow(FlowKind("fast_env", d))(np.concatenate([x, np.zeros(k)]))
        slow = build_flow(FlowKind("slow_env", d, env=slow_spec()))
        at_one = slow(np.concatenate([x, [1.0]]))
        fast_same += np.array_equal(fast, np.concatenate([const, np.zeros(k)]))
        slow_same += np.array_equal(at_one, np.concatenate([const, [0.0]]))
        step = _probability(b[0], x[0], 1.0 - x[0], None, b[1:] @ x[1:]) - x[0]
        worst_const = max(worst_const, abs(const[0] - step))
        xi = rng.uniform(0.2, 2.0)
        y = rng.uniform(0.0, xi, k + 1)
        step = xi * _probability(b[0], y[0], xi - y[0], None, b[1:] @ y[1:]) - y[0]
        worst_slow = max(worst_slow, abs(slow(np.concatenate([y, [xi]]))[0] - step))
    assert (fast_same, slow_same) == (n_states, n_states)
    assert worst_const <= 1e-15 and worst_slow <= 1e-15, (worst_const, worst_slow)


def test_jacobian_examples():
    d = validate_distribution([0.5, 0.5])
    kind = FlowKind("constant", d)
    np.testing.assert_allclose(
        jacobian_on_gamma(kind, 0.0), [[-0.5, 0.5], [1.0, -1.0]]
    )
    np.testing.assert_allclose(jacobian_on_gamma(kind, 1.0)[0], [0.0, 0.0])
    fast = jacobian_on_gamma(FlowKind("fast_env", d), 0.3)
    assert fast[0, -1] == pytest.approx(0.5 * 0.3 * 0.7)


def test_closed_jacobians_match_finite_differences():
    rng = np.random.default_rng(13)
    for k in (1, 2, 3):
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.05, 0.95)
        for tag in ("constant", "linearized", "fast_env"):
            kind = FlowKind(tag, d)
            flow = build_flow(kind)
            point = manifold_chart(kind).gamma(x0)
            fd = fd_jacobian(flow.func, point)
            np.testing.assert_allclose(jacobian_on_gamma(kind, x0), fd, atol=1e-7)


def test_closed_hessians_match_finite_differences():
    rng = np.random.default_rng(19)
    for k in (1, 2, 3):
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.05, 0.95)
        for tag in ("constant", "linearized", "fast_env"):
            kind = FlowKind(tag, d)
            flow = build_flow(kind)
            point = manifold_chart(kind).gamma(x0)
            fd = fd_hessians(flow.func, point)
            closed = hessians_on_gamma(kind, x0)
            for a, b in zip(closed, fd):
                np.testing.assert_allclose(a, b, atol=5e-6)


def loop_jacobian_on_gamma(kind, x0):
    """Per-element reference for ``jacobian_on_gamma``."""
    b, k = kind.d.array, kind.d.k
    one_minus = 1.0 - x0
    core = np.zeros((k + 1, k + 1))
    core[0, 0] = -(1.0 - b[0]) * one_minus
    core[0, 1:] = b[1:] * one_minus
    for i in range(1, k + 1):
        core[i, i - 1] = 1.0
        core[i, i] = -1.0
    if kind.tag != "fast_env":
        return core
    jac = np.zeros((2 * k + 1, 2 * k + 1))
    jac[: k + 1, : k + 1] = core
    jac[0, k + 1 :] = b[1:] * x0 * one_minus
    for i in range(k):
        jac[k + 1 + i, k + 1 + i] = -1.0
        if i >= 1:
            jac[k + 1 + i, k + i] = 1.0
    return jac


def loop_fast_env_hessian(kind, x0):
    """Per-element reference for the first fast_env Hessian of
    ``hessians_on_gamma``; its top-left block is the constant flow's."""
    b, k = kind.d.array, kind.d.k
    x, one_minus = x0, 1.0 - x0
    h = np.zeros((2 * k + 1, 2 * k + 1))
    h[: k + 1, : k + 1] = hessians_on_gamma(FlowKind("constant", kind.d), x0)[0]
    x0_mark = 2.0 * b[1:] * (1.0 - b[0]) * x * one_minus - b[1:] * x
    h[0, k + 1 :] = x0_mark
    h[k + 1 :, 0] = x0_mark
    for i in range(1, k + 1):
        for j in range(k):
            val = -2.0 * b[i] * b[j + 1] * x * one_minus
            if i == j + 1:
                val += b[i] * one_minus
            h[i, k + 1 + j] = val
            h[k + 1 + j, i] = val
    h[k + 1 :, k + 1 :] = -2.0 * np.outer(b[1:], b[1:]) * x**2 * one_minus
    return h


def test_manifold_derivatives_match_per_element_loops():
    # bit for bit, signed zeros included (x0 = 0 gives -0.0 entries)
    rng = np.random.default_rng(29)
    for k in range(1, 7):
        for _ in range(10):
            d = random_simplex(rng, k)
            for x0 in (0.0, 1.0, float(rng.random())):
                for tag in ("constant", "linearized", "fast_env"):
                    kind = FlowKind(tag, d)
                    assert (jacobian_on_gamma(kind, x0).tobytes()
                            == loop_jacobian_on_gamma(kind, x0).tobytes()), (tag, d, x0)
                hess = hessians_on_gamma(FlowKind("fast_env", d), x0)
                want = loop_fast_env_hessian(FlowKind("fast_env", d), x0)
                assert hess[0].tobytes() == want.tobytes(), (d, x0)
                assert len(hess) == 2 * k + 1 and not any(h.any() for h in hess[1:])


def test_eigvecs_examples():
    d = validate_distribution([0.5, 0.5])
    u, v = eigvecs_on_gamma(FlowKind("constant", d), 0.0)
    np.testing.assert_allclose(u, [1.0, 1.0])
    np.testing.assert_allclose(v, [2.0 / 3.0, 1.0 / 3.0])
    u, v = eigvecs_on_gamma(FlowKind("fast_env", d), 0.3)
    np.testing.assert_allclose(u, [1.0, 1.0, 0.0])
    # (u, v) is a null pair of the closed Jacobian with <u, v> = 1
    jac = jacobian_on_gamma(FlowKind("fast_env", d), 0.3)
    np.testing.assert_allclose(jac @ u, np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(v @ jac, np.zeros(3), atol=1e-14)
    assert abs(u @ v - 1.0) < 1e-14


def test_left_eigvec_prime_matches_finite_differences():
    rng = np.random.default_rng(37)
    for k in (1, 2, 3):
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.1, 0.9)
        for tag in ("constant", "fast_env"):
            kind = FlowKind(tag, d)
            step = 1e-6
            fd = (
                eigvecs_on_gamma(kind, x0 + step)[1]
                - eigvecs_on_gamma(kind, x0 - step)[1]
            ) / (2 * step)
            np.testing.assert_allclose(left_eigvec_prime(kind, x0), fd, atol=1e-7)


def test_theta_g_closed_examples():
    d = validate_distribution([0.5, 0.5])
    np.testing.assert_allclose(theta_g_closed(d, 1.0), np.zeros((2, 2)))
    theta = theta_g_closed(d, 0.0)
    assert theta[0, 0] == pytest.approx(-2.0 / 27.0)
    rng = np.random.default_rng(41)
    for _ in range(10):
        k = rng.integers(1, 6)
        d = random_simplex(rng, k)
        theta = theta_g_closed(d, rng.uniform(0.0, 1.0))
        np.testing.assert_allclose(theta @ np.ones(k + 1), 0.0, atol=1e-12)


def test_delta_matrix():
    d = validate_distribution([0.5, 0.5])
    delta, spectrum = delta_matrix(d)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(delta)), sorted(spectrum),
                               atol=1e-12)
    assert spectrum[-1] == pytest.approx(-0.5)
    np.testing.assert_allclose(delta @ np.ones(2), 0.0, atol=1e-14)
    delta0, _ = delta_matrix(validate_distribution([1.0, 0.0]))
    np.testing.assert_allclose(delta0, np.zeros((2, 2)))
    # the full Hessian equals the linearized one plus 2 (1 - x0) Delta
    rng = np.random.default_rng(43)
    for _ in range(10):
        k = rng.integers(1, 5)
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.0, 1.0)
        delta, _ = delta_matrix(d)
        full = hessians_on_gamma(FlowKind("constant", d), x0)[0]
        lin = hessians_on_gamma(FlowKind("linearized", d), x0)[0]
        np.testing.assert_allclose(full, lin + 2.0 * (1.0 - x0) * delta, atol=1e-12)


def test_drift_closed_forms():
    rng = np.random.default_rng(47)
    for _ in range(20):
        b0 = rng.uniform(0.05, 1.0)
        x0 = rng.uniform(0.0, 1.0)
        d = validate_distribution([b0, 1.0 - b0])
        assert abs(drift_second_derivative(d, x0) - drift_k1_closed(b0, x0)) < 1e-10
    for _ in range(20):
        d = random_simplex(rng, 2)
        x0 = rng.uniform(0.0, 1.0)
        assert abs(drift_second_derivative(d, x0) - drift_k2_closed(d, x0)) < 1e-10


def test_drift_boundary_and_bound():
    rng = np.random.default_rng(53)
    for k in range(1, 7):
        d = random_simplex(rng, k)
        big_b = d.mean_time
        assert abs(drift_second_derivative(d, 1.0) - 2.0 * big_b) < 1e-9
        assert drift_bound(big_b, 1.0) == pytest.approx(2.0 * big_b)
        for x0 in rng.uniform(0.0, 1.0, 10):
            val = drift_second_derivative(d, x0)
            assert val <= drift_bound(big_b, x0) + 1e-12
    assert drift_bound(0.0, 0.5) == 0.0
    assert drift_bound(1.0, 0.0) == pytest.approx(0.375)


def test_lyapunov_drift_matches_generic_solve_deep():
    # the once-per-distribution deflation equals the generic solve of the
    # defect system, and scalar and array evaluation agree exactly
    rng = np.random.default_rng(59)
    xs = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    for k in (3, 5, 20):
        d = random_simplex(rng, k)
        kind = FlowKind("constant", d)
        delta, _ = delta_matrix(d)
        got = drift_second_derivative(d, xs)
        for x0, val in zip(xs, got):
            jac = jacobian_on_gamma(kind, x0)
            u, v = eigvecs_on_gamma(kind, x0)
            _, p_s = projections(u, v)
            hess = [2.0 * (1.0 - x0) * delta] + [np.zeros_like(delta)] * k
            want = drift_bound(d.mean_time, x0) - solve_theta(jac, hess, v, p_s, u)[0, 0]
            assert abs(val - want) <= 1e-10 * max(1.0, abs(want))
            assert val == drift_second_derivative(d, x0)


def test_drift_factor_accepts_arrays():
    rng = np.random.default_rng(61)
    xs = np.linspace(0.0, 1.0, 101)
    for k in (1, 2, 4, 6):
        d = random_simplex(rng, k)
        phi2 = drift_factor_fn(d)
        got = phi2(xs)
        each = np.array([phi2(float(x)) for x in xs])
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, each, rtol=1e-14, atol=0.0)
        grid = phi2(xs.reshape(1, 101, 1))
        assert grid.shape == (1, 101, 1)
        np.testing.assert_allclose(grid.ravel(), each, rtol=1e-14, atol=0.0)
        assert np.ndim(phi2(0.3)) == 0
    assert phi2(np.array([])).shape == (0,)


def even_bank(k, b0):
    """Depth-k bank with b0 now and the rest split evenly over 1..k."""
    return validate_distribution([b0] + [(1.0 - b0) / k] * k)


def phi2_oracle(d, x0):
    """phi''(x0) with Theta from the theta_integral quadrature, not a solve."""
    kind = FlowKind("constant", d)
    u, v = eigvecs_on_gamma(kind, x0)
    _, p_s = projections(u, v)
    delta, _ = delta_matrix(d)
    hess = [2.0 * (1.0 - x0) * delta] + [np.zeros_like(delta)] * d.k
    theta = theta_integral(jacobian_on_gamma(kind, x0), hess, v, p_s)
    return drift_bound(d.mean_time, x0) - theta[0, 0]


@pytest.mark.parametrize("d, xs", [
    (even_bank(5, 0.05), (0.0, 0.37, 0.95)),
    (random_simplex(np.random.default_rng(5), 5), (0.0, 0.37, 0.95)),
    (even_bank(20, 0.02), (0.0, 0.37, 0.95)),
    (random_simplex(np.random.default_rng(20), 20), (0.0, 0.37)),
    (even_bank(50, 0.05), (0.0, 0.37)),  # B = 24.2
], ids=["K5-b0.05", "K5-random", "K20-b0.02", "K20-random", "K50-b0.05"])
def test_batched_drift_matches_theta_integral(d, xs):
    got = batched_drift_fn(d)(np.array(xs))
    for x0, val in zip(xs, got):
        want = phi2_oracle(d, x0)
        assert abs(val - want) <= 1e-8 * max(1.0, abs(want))


def test_batched_drift_matches_direct_solve():
    rng = np.random.default_rng(67)
    xs = np.linspace(0.0, 1.0, 201)
    for d in (random_simplex(rng, 3), random_simplex(rng, 5), even_bank(5, 0.05),
              random_simplex(rng, 20), even_bank(20, 0.02)):
        got = batched_drift_fn(d)(xs)
        want = drift_second_derivative(d, xs)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        assert got[-1] == pytest.approx(2.0 * d.mean_time, rel=1e-15)


def test_batched_drift_residual_check_catches_bad_base_solve(monkeypatch):
    # a base solve off by 1e-6 violates the full equation wherever its
    # coefficient c = 2 (1 - x0) / (B (1 - x0) + 1) is non-zero
    d = random_simplex(np.random.default_rng(73), 5)
    solve = seedbank_flows.solve_lyapunov_schur

    def off(t, z, q):
        return solve(t, z, q) + 1e-6

    monkeypatch.setattr(seedbank_flows, "solve_lyapunov_schur", off)
    phi2 = batched_drift_fn(d)
    with pytest.raises(SingularSystem):
        phi2(np.array([0.2, 0.5]))
    with pytest.raises(SingularSystem):
        phi2(0.9)
    assert phi2(1.0) == drift_bound(d.mean_time, 1.0)  # c = s = 0: nothing to check
    # a stack whose last bank's base solves alone are off: the whole call fails
    banks = stack([random_simplex(np.random.default_rng(74), 5), d])
    calls = []

    def last_off(t, z, q):
        calls.append(None)
        return solve(t, z, q) + (1e-6 if len(calls) > 6 else 0.0)

    monkeypatch.setattr(seedbank_flows, "solve_lyapunov_schur", last_off)
    phi2 = batched_drift_fn(banks)
    assert len(calls) == 12
    with pytest.raises(SingularSystem):
        phi2(np.array([0.2, 0.5]))
    with pytest.raises(SingularSystem):
        phi2(0.9)


def test_batched_drift_residual_check_catches_bad_capacitance_solve(monkeypatch):
    d = random_simplex(np.random.default_rng(79), 5)
    phi2 = batched_drift_fn(d)
    stack_phi2 = batched_drift_fn(stack([random_simplex(np.random.default_rng(80), 5), d]))
    phi2(0.5)  # sound before the mutation
    stack_phi2(0.5)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
    with pytest.raises(SingularSystem):
        phi2(0.5)

    def last_off(a, b):
        # the last bank's systems alone are off
        q = solve(a, b)
        q[-1] *= 1.0 + 1e-6
        return q

    monkeypatch.setattr(np.linalg, "solve", last_off)
    with pytest.raises(SingularSystem):
        stack_phi2(np.array([0.2, 0.5]))

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SingularSystem):
        phi2(0.5)
    with pytest.raises(SingularSystem):
        stack_phi2(0.5)


def test_batched_drift_failed_factorisations_are_typed(monkeypatch):
    # the Schur helpers look the routines up on the package's LAPACK handle
    # (manifold_reduction._lapack()) at call time, so patching its attributes
    # reaches them
    lapack = manifold_reduction._lapack()
    d = random_simplex(np.random.default_rng(83), 4)
    banks = stack([random_simplex(np.random.default_rng(84), 4), d])
    gees, trsyl = lapack.dgees, lapack.dtrsyl
    calls = []

    def failed_gees(*args, **kwargs):
        return gees(*args, **kwargs)[:-1] + (1,)

    def failed_trsyl(*args, **kwargs):
        return trsyl(*args, **kwargs)[:-1] + (1,)

    def last_failed_trsyl(*args, **kwargs):
        # the last bank's last base solve alone fails
        calls.append(None)
        return (failed_trsyl if len(calls) == 10 else trsyl)(*args, **kwargs)

    monkeypatch.setattr(lapack, "dgees", failed_gees)
    for bank in (d, banks):
        with pytest.raises(SingularSystem):
            batched_drift_fn(bank)
    monkeypatch.setattr(lapack, "dgees", gees)
    monkeypatch.setattr(lapack, "dtrsyl", failed_trsyl)
    with pytest.raises(SingularSystem):
        batched_drift_fn(d)
    monkeypatch.setattr(lapack, "dtrsyl", last_failed_trsyl)
    with pytest.raises(SingularSystem):
        batched_drift_fn(banks)
    assert len(calls) == 10


def test_deep_stack_drift_is_one_factorisation(monkeypatch):
    # a 5-bank stack at K = 5 takes one Schur factorisation and builds no bank
    # per row; its rows are the banks' own calls
    rng = np.random.default_rng(85)
    ds = [random_simplex(rng, 5) for _ in range(5)]
    banks = stack(ds)
    xs = np.linspace(0.0, 1.0, 7)
    want = [drift_factor_fn(d)(xs) for d in ds]
    counts = {"gees": 0, "banks": 0}
    lapack = manifold_reduction._lapack()
    gees, post_init = lapack.dgees, GerminationDistribution.__post_init__

    def counted_gees(*args, **kwargs):
        counts["gees"] += 1
        return gees(*args, **kwargs)

    def counted_post_init(self):
        counts["banks"] += 1
        post_init(self)

    monkeypatch.setattr(lapack, "dgees", counted_gees)
    monkeypatch.setattr(GerminationDistribution, "__post_init__", counted_post_init)
    got = drift_factor_fn(banks)(xs)
    assert counts == {"gees": 1, "banks": 0}
    assert got.tobytes() == np.array(want).tobytes()


def test_drift_strictly_increasing():
    d = validate_distribution([0.4, 0.3, 0.3])
    xs = np.linspace(0.0, 1.0, 100)
    vals = np.array([drift_second_derivative(d, x) for x in xs])
    assert np.all(np.diff(vals) > 0)


def test_drift_positive_for_k1():
    for b0 in (0.2, 0.5, 0.9):
        for x0 in np.linspace(0.01, 0.99, 20):
            assert drift_k1_closed(b0, x0) > 0


def fast_pipeline_k1(b0, x0):
    """Generic-engine fast-regime reduction for K = 1 with analytic derivatives."""
    d = validate_distribution([b0, 1.0 - b0])
    kind = FlowKind("fast_env", d)
    flow = build_flow(kind)
    flow.jac = lambda s: jacobian_on_gamma(kind, s[0])
    flow.hess = lambda s: hessians_on_gamma(kind, s[0])
    chart = manifold_chart(kind)
    jac = jacobian_on_gamma(kind, x0)
    u, v = eigvecs_on_gamma(kind, x0)
    _, p_s = projections(u, v)
    theta = solve_theta(jac, hessians_on_gamma(kind, x0), v, p_s, u)
    grad, hess = phi0_derivatives(
        chart, x0, lambda s: eigvecs_on_gamma(kind, s)[1], theta,
        v_prime_fn=lambda s: left_eigvec_prime(kind, s),
    )
    return theta, hess


def test_fast_second_derivatives_examples():
    a, b = fast_second_derivatives_k1(1.0, 0.4)
    assert a == 0.0 == b
    _, b = fast_second_derivatives_k1(0.3, 1.0)
    assert b == 0.0
    theta, hess = fast_pipeline_k1(0.5, 0.3)
    d2_xu, d2_uu = fast_second_derivatives_k1(0.5, 0.3)
    assert abs(hess[0, 2] - d2_xu) < 1e-8
    assert abs(hess[2, 2] - d2_uu) < 1e-8
    th_xu, th_uu = theta_fast_closed_k1(0.5, 0.3)
    assert abs(theta[0, 2] - th_xu) < 1e-10
    assert abs(theta[2, 2] - th_uu) < 1e-10


def test_fast_theta_top_left_block_is_constant_theta():
    rng = np.random.default_rng(59)
    for k in (1, 2):
        d = random_simplex(rng, k)
        x0 = rng.uniform(0.05, 0.95)
        fast = FlowKind("fast_env", d)
        jac = jacobian_on_gamma(fast, x0)
        u, v = eigvecs_on_gamma(fast, x0)
        _, p_s = projections(u, v)
        theta_fast = solve_theta(jac, hessians_on_gamma(fast, x0), v, p_s, u)
        const = FlowKind("constant", d)
        jac_c = jacobian_on_gamma(const, x0)
        u_c, v_c = eigvecs_on_gamma(const, x0)
        _, p_s_c = projections(u_c, v_c)
        theta_c = solve_theta(jac_c, hessians_on_gamma(const, x0), v_c, p_s_c, u_c)
        np.testing.assert_allclose(theta_fast[: k + 1, : k + 1], theta_c, atol=1e-9)


def test_h_function():
    assert abs(h_function(0.0, 0.0) - 5.0 / 6.0) < 1e-14
    xs = np.linspace(0.0, 1.0, 101)
    for x0 in xs:
        assert h_function(x0, 1.0) == pytest.approx(0.0, abs=1e-14)
    grid = np.array([[h_function(x, b) for b in xs] for x in xs])
    assert np.all(grid >= -1e-12)
    assert grid.max() <= 5.0 / 6.0 + 1e-12


def test_manifold_chart_unsupported():
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(UnsupportedK):
        manifold_chart(FlowKind("slow_env", d, env=slow_spec()))
    with pytest.raises(UnsupportedK):
        jacobian_on_gamma(FlowKind("slow_env", d, env=slow_spec()), 0.3)
    with pytest.raises(UnsupportedK):
        drift_k2_closed(d, 0.3)

