import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.chebyshev import chebint
from scipy.integrate import solve_ivp

from seedbank import (
    FastEnvSpec,
    SlowEnvSpec,
    drift_bound,
    g_function,
    h_function,
    kolmogorov_fixation,
    psi,
    run_fixation,
    sample_absorption,
    scale_fixation,
    sde_constant,
    validate_distribution,
)
from seedbank import Banks, diffusion_limits, manifold_reduction
from seedbank.diffusion_limits import (
    PDE_DT,
    PDE_NODES,
    _bounding_fixation,
    _cheb_integral,
    _pde_operator_rows,
    _settle_steps,
    _slow_factors,
    constant_coefficients_vec,
    drift_factor_fn,
    fast_coefficients_vec,
    logistic_xi,
    slow_coefficients_vec,
)
from seedbank.errors import (
    DegenerateDiffusion,
    NoConvergence,
    NumericalError,
    SingularSystem,
    StepSizeInvalid,
    UnsupportedK,
    ValidationError,
)
from conftest import random_simplex, stack
from oracles import psi_cap, scale_closed_form


def bounded_env(xi_min=0.5, xi_max=2.0, eta_amp=0.2):
    return SlowEnvSpec(
        xi_min,
        xi_max,
        alpha=lambda x: (1.0 - x),
        eta=lambda x: eta_amp * (x - xi_min) * (xi_max - x),
    )


def test_sde_constant_neutral():
    spec = sde_constant(validate_distribution([1.0, 0.0]))
    for x in (0.2, 0.5, 0.8):
        assert spec.drift(np.array([x]))[0] == 0.0
        assert spec.diffusion(np.array([x]))[0, 0] == pytest.approx(math.sqrt(x * (1 - x)))


def test_sde_constant_boundaries_and_sign():
    spec = sde_constant(validate_distribution([0.5, 0.5]))
    for x in (0.0, 1.0):
        assert spec.drift(np.array([x]))[0] == pytest.approx(0.0, abs=1e-14)
        assert spec.diffusion(np.array([x]))[0, 0] == 0.0
    for x in np.linspace(0.05, 0.95, 10):
        assert spec.drift(np.array([x]))[0] > 0.0


def test_slow_env_reduces_to_constant():
    d = validate_distribution([0.5, 0.5])
    env = SlowEnvSpec(0.5, 2.0, alpha=lambda x: 0.0, eta=lambda x: 0.0)
    slow_drift, slow_diff = slow_coefficients_vec(d, env)
    const_drift, const_diff = constant_coefficients_vec(d)
    for rho in np.linspace(0.05, 0.95, 7):
        g0, g_env, _ = slow_diff(rho, 1.0)
        np.testing.assert_allclose(slow_drift(rho, 1.0)[0], const_drift(rho), atol=1e-14)
        np.testing.assert_allclose(g0, const_diff(rho), atol=1e-14)
        assert g_env == 0.0


def test_slow_env_deterministic_drift_term():
    d = validate_distribution([0.7, 0.3])
    env = bounded_env(eta_amp=0.0)
    drift_vec, _ = slow_coefficients_vec(d, env)
    big_b = d.mean_time
    phi2 = drift_factor_fn(d)
    for rho, xi in [(0.3, 0.8), (0.6, 1.5)]:
        den = big_b * (1.0 - rho) + 1.0
        want = (
            0.5 * phi2(rho) * rho * (1.0 - rho) / xi
            - big_b * rho * (1.0 - rho) * env.alpha(xi) / (den * xi)
        )
        assert abs(drift_vec(rho, xi)[0] - want) < 1e-14


def count_form(d, env, x0, xi):
    """Drift (mu_x, alpha) and diffusion matrix of the slow environment's
    diffusion in the count variable x0 = rho0 xi, with den = B (xi - x0) + xi."""
    phi2 = drift_factor_fn(d)(min(max(x0 / xi, 0.0), 1.0))
    big_b = d.mean_time
    den = big_b * (xi - x0) + xi
    e, alpha = env.eta(xi), env.alpha(xi)
    mu_x = (
        0.5 * phi2 * (x0 * (xi - x0) + e**2 * x0**2 / xi) / xi**2
        + x0 * alpha / den
        - big_b * x0**2 * e**2 / (xi * den**2)
    )
    g0 = math.sqrt(max(xi * x0 * (xi - x0), 0.0)) / den
    return np.array([mu_x, alpha]), np.array([[g0, x0 * e / den], [0.0, e]])


def test_count_to_proportion_ito_consistency():
    # applying the Ito change of variables rho = x0 / xi to the count-variable
    # coefficients reproduces the proportion-variable coefficients
    rng = np.random.default_rng(71)
    for _ in range(20):
        k = rng.integers(1, 4)
        d = random_simplex(rng, k)
        env = bounded_env()
        drift_vec, diff_vec = slow_coefficients_vec(d, env)
        xi = rng.uniform(0.6, 1.9)
        rho = rng.uniform(0.05, 0.95)
        x0 = rho * xi
        (mu_x, alpha), sig = count_form(d, env, x0, xi)
        eta = sig[1, 1]
        # d rho = dx0/xi - x0 dxi/xi^2 - d<x0, xi>/xi^2 + x0 d<xi>/xi^3
        cross = sig[0, 1] * eta  # only the W_env column couples x0 and xi
        mu_rho = mu_x / xi - x0 * alpha / xi**2 - cross / xi**2 + x0 * eta**2 / xi**3
        g0 = sig[0, 0] / xi
        g_env = sig[0, 1] / xi - x0 * eta / xi**2
        want_mu, _ = drift_vec(rho, xi)
        want_g0, want_g_env, _ = diff_vec(rho, xi)
        assert abs(mu_rho - want_mu) < 1e-9
        assert abs(g0 - want_g0) < 1e-9
        assert abs(g_env - want_g_env) < 1e-9


def test_sde_fast_env():
    d = validate_distribution([0.5, 0.5])
    base_drift, base_diff = constant_coefficients_vec(d)
    quiet_drift, _ = fast_coefficients_vec(d, FastEnvSpec(p=0.0, s=1.0))
    noisy_drift, noisy_diff = fast_coefficients_vec(d, FastEnvSpec(p=0.25, s=2.0))
    for x in np.linspace(0.0, 1.0, 11):
        assert quiet_drift(x) == pytest.approx(base_drift(x), abs=1e-14)
        assert noisy_drift(x) >= base_drift(x) - 1e-14
        assert noisy_diff(x) == base_diff(x)
    none_drift, _ = fast_coefficients_vec(validate_distribution([1.0, 0.0]),
                                          FastEnvSpec(p=0.25, s=2.0))
    for x in np.linspace(0.0, 1.0, 11):
        assert none_drift(x) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(UnsupportedK):
        fast_coefficients_vec(validate_distribution([0.5, 0.3, 0.2]),
                              FastEnvSpec(p=0.25, s=1.0))


@pytest.mark.parametrize(
    "b, env",
    [
        ([0.5, 0.5], None),
        ([0.5, 0.3, 0.2], None),
        ([0.3, 0.2, 0.2, 0.1, 0.1, 0.1], None),
        ([0.5, 0.5], FastEnvSpec(p=0.25, s=1.0)),
        ([0.7, 0.3], FastEnvSpec(p=0.1, s=2.0)),
        ([0.5, 0.5], bounded_env()),
        ([0.3, 0.2, 0.2, 0.1, 0.1, 0.1], bounded_env(eta_amp=0.5)),
    ],
    ids=["constant-K1", "constant-K2", "constant-K5", "fast-p0.25-s1", "fast-p0.1-s2",
         "slow-K1", "slow-K5"],
)
def test_coefficient_pair_matches_spec(b, env):
    d = validate_distribution(b)
    if isinstance(env, SlowEnvSpec):
        check_slow_pair(d, env)
        return
    xs = np.linspace(0.0, 1.0, 41)
    if env is None:
        # sde_constant, the SdeSpec view of the pair, gives its values exactly
        spec, (drift_vec, diff_vec) = sde_constant(d), constant_coefficients_vec(d)
        for x in xs:
            assert spec.drift(np.array([x]))[0] == drift_vec(x)
            assert spec.diffusion(np.array([x]))[0, 0] == diff_vec(x)
    else:
        drift_vec, diff_vec = fast_coefficients_vec(d, env)
    # array input: one value per state, each bit for bit the scalar one
    drift_arr, diff_arr = drift_vec(xs), diff_vec(xs)
    assert drift_arr.shape == diff_arr.shape == xs.shape
    np.testing.assert_array_equal(drift_arr, [drift_vec(x) for x in xs])
    np.testing.assert_array_equal(diff_arr, [diff_vec(x) for x in xs])
    assert diff_arr[0] == diff_arr[-1] == 0.0
    # x (1 - x) < 0 just outside [0, 1] is clamped, not a NaN
    np.testing.assert_array_equal(diff_vec(np.array([-0.1, 1.1])), 0.0)


def check_slow_pair(d, env):
    """The 2-D form of the array checks above, on a (rho0, xi) grid."""
    drift_vec, diff_vec = slow_coefficients_vec(d, env)
    rhos, xis = np.meshgrid(np.linspace(0.0, 1.0, 21),
                            np.linspace(env.xi_min, env.xi_max, 7))
    states = list(zip(rhos.ravel(), xis.ravel()))
    # array input: every entry bit for bit the scalar one
    for vec in (drift_vec, diff_vec):
        scalar = np.array([vec(rho, xi) for rho, xi in states])
        for i, entry in enumerate(vec(rhos, xis)):
            assert entry.shape == rhos.shape
            np.testing.assert_array_equal(entry.ravel(), scalar[:, i])
    # rho0 just outside [0, 1] is clamped to the edge, not a NaN
    for vec in (drift_vec, diff_vec):
        outside = np.array(vec(np.array([-0.1, 1.1]), np.ones(2)))
        assert np.all(np.isfinite(outside))
        np.testing.assert_array_equal(outside, vec(np.array([0.0, 1.0]), np.ones(2)))


def test_scale_fixation_basics():
    # zero drift: S is linear, so the fixation probability equals the start
    got = scale_fixation(lambda x: 0.0, lambda x: math.sqrt(x * (1 - x)), 0.37)
    assert abs(got - 0.37) < 1e-9
    with pytest.raises(DegenerateDiffusion):
        scale_fixation(lambda x: 1.0, lambda x: 0.0, 0.5)


def test_scale_closed_form_quadrature():
    # bounding diffusion: drift (x(1-x)/2) drift_bound, noise of the model
    from seedbank import drift_bound

    for big_b in (0.3, 1.0, 2.5):
        def mu(x, b=big_b):
            return 0.5 * x * (1 - x) * drift_bound(b, x)

        def sig(x, b=big_b):
            return math.sqrt(x * (1 - x)) / (b * (1 - x) + 1.0)

        for v in (0.1, 0.5, 0.9):
            got = scale_fixation(mu, sig, v)
            want = scale_closed_form(big_b, v) / scale_closed_form(big_b, 1.0)
            assert abs(got - want) < 1e-9


def test_fixation_below_cap_k2():
    d = validate_distribution([0.5, 0.3, 0.2])
    start = psi(d.mean_time, 0.01)
    fix = scale_fixation(*constant_coefficients_vec(d), start)
    assert fix <= psi_cap(d.mean_time, 0.01)


def rk45_scale_fixation(drift_fn, diff_fn, start):
    """Reference scale-function solve: integrates the joint ODE
    dI/dw = 2 mu / sigma^2, dS/dw = exp(-I) from 0 with RK45, then returns
    S(start)/S(1)."""

    def rhs(w, y):
        z = min(max(w, 1e-12), 1.0 - 1e-12)
        sig = diff_fn(z)
        s2 = sig * sig
        if not s2 > 0:
            raise DegenerateDiffusion(f"diffusion vanishes at interior point {z}")
        return [2.0 * drift_fn(z) / s2, math.exp(-y[0])]

    sol = solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0], method="RK45",
                    rtol=1e-11, atol=1e-13, dense_output=True)
    if not sol.success:
        raise NoConvergence(f"scale-function integration failed: {sol.message}")
    s_start = sol.sol(float(start))[1]
    s_one = sol.y[1, -1]
    if not s_one > 0:
        raise DegenerateDiffusion("scale function is degenerate on [0, 1]")
    return float(s_start / s_one)


def bank_with_b0(rng, k, b0):
    """Germination distribution with the given b0 and a random dormant split."""
    return validate_distribution(np.concatenate([[b0], (1.0 - b0) * rng.dirichlet(np.ones(k))]))


def assert_matches_rk45(pair, big_b):
    for start in (psi(big_b, 0.01), 0.2, 0.9):
        got = scale_fixation(*pair, start)
        want = rk45_scale_fixation(*pair, start)
        assert abs(got - want) < 1e-9, (start, got, want)


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_scale_fixation_matches_rk45_constant(k):
    rng = np.random.default_rng(40 + k)
    for b0 in (rng.uniform(0.04, 0.06), rng.uniform(0.88, 0.92)):
        d = bank_with_b0(rng, k, b0)
        assert_matches_rk45(constant_coefficients_vec(d), d.mean_time)


@pytest.mark.parametrize("p, s", [(0.25, 1.0), (0.1, 2.0)])
def test_scale_fixation_matches_rk45_fast(p, s):
    for b0 in (0.05, 0.5, 0.9):
        d = validate_distribution([b0, 1.0 - b0])
        assert_matches_rk45(fast_coefficients_vec(d, FastEnvSpec(p=p, s=s)), d.mean_time)


@pytest.mark.parametrize("start", [-0.2, 1.5, math.nan, math.inf,
                                   np.array([0.2, 1.2]), np.array([0.2, math.nan])])
def test_scale_fixation_rejects_start_outside_unit_interval(start):
    pair = constant_coefficients_vec(validate_distribution([0.5, 0.5]))
    with pytest.raises(ValidationError):
        scale_fixation(*pair, start)


def test_scale_fixation_failures_are_typed():
    diff_vec = constant_coefficients_vec(validate_distribution([0.5, 0.5]))[1]
    # a kink at 1/2: the Chebyshev series never resolves
    with pytest.raises(NoConvergence):
        scale_fixation(lambda x: 50.0 * np.abs(x - 0.5) * x * (1.0 - x), diff_vec, 0.3)
    # infinite drift at one node
    with pytest.raises(NumericalError):
        scale_fixation(lambda x: np.where(x == x.max(), np.inf, 0.0), diff_vec, 0.3)
    with pytest.raises(NumericalError):
        scale_fixation(lambda x: 0.0, lambda x: math.nan, 0.3)


def test_scale_fixation_array_start_and_scalar_callables():
    d = validate_distribution([0.5, 0.3, 0.2])
    pair = constant_coefficients_vec(d)
    starts = [0.0, psi(d.mean_time, 0.01), 0.2, 0.5, 0.9, 1.0]
    got = scale_fixation(*pair, np.array(starts))
    scalar = [scale_fixation(*pair, v) for v in starts]
    assert all(type(v) is float for v in scalar)
    assert got.shape == (len(starts),)
    assert np.array_equal(got, scalar)
    assert scalar[0] == 0.0 and scalar[-1] == 1.0
    # callables that take only scalars, by raising TypeError (math.sqrt) or
    # ValueError (a comparison), or by ignoring the shape, are evaluated node
    # by node with the same result
    drift_vec, diff_vec = pair
    assert scale_fixation(
        lambda x: float(drift_vec(x)) if x <= 1.0 else math.nan,
        lambda x: math.sqrt(x * (1.0 - x)) / (d.mean_time * (1.0 - x) + 1.0),
        0.2,
    ) == pytest.approx(scalar[2], abs=1e-14)


# K = 1, 2, 5 and 4; the last bank resolves at degree 64, the others at 32
# one depth (K = 4), as a stack has; the last needs degree 64, the rest 32
BATCH_BANKS = [[0.5, 0.2, 0.15, 0.1, 0.05], [0.3, 0.3, 0.2, 0.1, 0.1],
               [0.4, 0.2, 0.15, 0.15, 0.1], [0.05, 0.05, 0.05, 0.05, 0.8]]


def degrees_of(drift_vec, diff_vec, start):
    """scale_fixation's result and the node counts its drift was called on."""
    sizes = []

    def drift(x):
        sizes.append(x.size)
        return drift_vec(x)

    return scale_fixation(drift, diff_vec, start), sizes


def test_scale_fixation_batch_matches_single_calls():
    ds = [validate_distribution(b) for b in BATCH_BANKS]
    starts = np.array([0.0, psi(ds[1].mean_time, 0.01), 0.3, 1.0])
    single = []
    for d, s in zip(ds, starts):
        value, sizes = degrees_of(*constant_coefficients_vec(d), s)
        single.append(value)
        assert sizes == ([32, 64] if d is ds[-1] else [32])
        # a batch of one is an array of one
        batch_of_one = scale_fixation(*constant_coefficients_vec(stack([d])), s)
        assert batch_of_one.shape == (1,) and batch_of_one[0] == value
    assert single[0] == 0.0 and single[-1] == 1.0
    batch, sizes = degrees_of(*constant_coefficients_vec(stack(ds)), starts)
    assert sizes == [32, 64]  # the rows resolved at 32 sit out at 64
    assert isinstance(batch, np.ndarray) and batch.shape == (len(ds),)
    np.testing.assert_array_equal(batch, single)
    np.testing.assert_array_equal(
        scale_fixation(*constant_coefficients_vec(stack(ds[::-1])), starts[::-1]),
        batch[::-1])
    # the rows of the batch pair are the single pairs' values
    x = np.linspace(0.0, 1.0, 9)
    for fn, rows in zip(constant_coefficients_vec(stack(ds)),
                        zip(*(constant_coefficients_vec(d) for d in ds))):
        np.testing.assert_array_equal(fn(x), [row(x) for row in rows])


def test_scale_fixation_batch_scalar_start_broadcasts():
    ds = [validate_distribution(b) for b in BATCH_BANKS]
    pair = constant_coefficients_vec(stack(ds))
    got = scale_fixation(*pair, 0.2)
    np.testing.assert_array_equal(got, scale_fixation(*pair, np.full(len(ds), 0.2)))
    np.testing.assert_array_equal(
        got, [scale_fixation(*constant_coefficients_vec(d), 0.2) for d in ds])


def test_scale_fixation_batch_validation():
    ds = [validate_distribution(b) for b in BATCH_BANKS]
    drift_vec, diff_vec = constant_coefficients_vec(stack(ds))
    for start in (np.full(len(ds) + 1, 0.2), np.full((len(ds), 1), 0.2), [0.2, 0.3]):
        with pytest.raises(ValidationError, match="start"):
            scale_fixation(drift_vec, diff_vec, start)
    with pytest.raises(ValidationError):  # one row per diffusion from both
        scale_fixation(drift_vec, constant_coefficients_vec(ds[0])[1], 0.2)
    with pytest.raises(ValidationError):  # a stack has at least one bank
        Banks(np.empty((0, 2)))


def test_scale_fixation_batch_failures_are_typed():
    ds = [validate_distribution(b) for b in BATCH_BANKS[:3]]
    drift_vec, diff_vec = constant_coefficients_vec(stack(ds))

    def with_row(row):
        def drift(x):
            out = drift_vec(x)
            out[1] = row(x)
            return out
        return drift

    # one row infinite at one node
    with pytest.raises(NumericalError):
        scale_fixation(with_row(lambda x: np.where(x == x.max(), np.inf, 0.0)), diff_vec, 0.3)
    # one row with a kink at 1/2: its series never resolves
    with pytest.raises(NoConvergence):
        scale_fixation(with_row(lambda x: 50.0 * np.abs(x - 0.5) * x * (1.0 - x)),
                       diff_vec, 0.3)
    # a row resolved at degree 32 is not checked again at 64, where another
    # row still runs: its non-finite values there raise nothing
    deep = validate_distribution(BATCH_BANKS[-1])
    pair = constant_coefficients_vec(stack([ds[0], deep]))

    def drift(x):
        out = pair[0](x)
        if x.size > 32:
            out[0] = np.nan
        return out

    np.testing.assert_array_equal(
        scale_fixation(drift, pair[1], 0.3),
        [scale_fixation(*constant_coefficients_vec(d), 0.3) for d in (ds[0], deep)])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def k2_bank(b0, q):
    return validate_distribution([b0, q * (1.0 - b0), (1.0 - q) * (1.0 - b0)])


def k1_bank(b0):
    return validate_distribution([b0, 1.0 - b0])


# a probability in (0, 1] or [0, 1], its ends drawn as often as the rest
b0s = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
fractions = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
# K = 2 banks as the fixation heatmap builds them: q = 0 gives b1 = 0, q = 1 b2 = 0
k2_banks = st.builds(k2_bank, b0s, fractions)
k1_banks = st.builds(k1_bank, b0s)
nodes = st.lists(fractions, min_size=1, max_size=40).map(np.array)
# a float pow and an array multiply round (1 - b0)**2 of the first and B**2 of
# the second (a README heatmap cell) apart, with glibc's pow: about 1 in 1,000
# squares does, so a closed form that went back to ** would rarely be drawn
SQUARES_APART = [k1_bank(0.0523), k2_bank(0.42, 0.7959183673469387)]


@settings(max_examples=60, deadline=None)
@example([SQUARES_APART[0]], np.linspace(0.0, 1.0, 101))
@example([SQUARES_APART[1]], np.linspace(0.0, 1.0, 101))
@given(st.one_of(st.lists(k1_banks, min_size=1, max_size=12),
                 st.lists(k2_banks, min_size=1, max_size=12)), nodes)
def test_closed_drift_batch_rows_are_single_calls(ds, x):
    # one closed-form evaluation on columns of [B, b0, ..., bK], each row bit
    # for bit the bank's own drift factor on the array and on each scalar
    rows = drift_factor_fn(stack(ds))(x)
    assert_same_bits(rows, [drift_factor_fn(d)(x) for d in ds])
    assert_same_bits(rows, [[drift_factor_fn(d)(v) for v in x.tolist()] for d in ds])
    # a scalar gives an (M, 1) column
    v = float(x[0])
    assert_same_bits(drift_factor_fn(stack(ds))(v), [[drift_factor_fn(d)(v)] for d in ds])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 5), st.integers(0, 2**32 - 1), nodes)
def test_deep_drift_stack_rows_are_single_calls(k, m, seed, x):
    # a stack at K >= 3: one batched solve, each row bit for bit the bank's own
    # call, with the closed forms' shapes: (M, n) for n points, (M, 1) for a scalar
    rng = np.random.default_rng(seed)
    ds = [random_simplex(rng, k) for _ in range(m)]
    phi2 = drift_factor_fn(stack(ds))
    assert_same_bits(phi2(x), [drift_factor_fn(d)(x) for d in ds])
    v = float(x[0])
    assert_same_bits(phi2(v), [[drift_factor_fn(d)(v)] for d in ds])


@pytest.mark.parametrize("k", [3, 4, 5, 10, 20])
def test_deep_drift_stack_rows_are_single_calls_at_depth(k):
    # zero entries, b0 = 1 and b0 near 0 among the rows, on 199 nodes and a scalar
    rng = np.random.default_rng(k)
    ds = [random_simplex(rng, k) for _ in range(3)]
    ds += [validate_distribution([1.0] + [0.0] * k),
           validate_distribution([1e-3] + [0.999 / (k - 1)] * (k - 1) + [0.0])]
    phi2 = drift_factor_fn(stack(ds))
    for x in (np.linspace(0.0, 1.0, 199), 0.37):
        assert_same_bits(phi2(x), [np.reshape(drift_factor_fn(d)(x), -1) for d in ds])


@pytest.mark.parametrize("k", [3, 5])
def test_deep_stack_g_and_constant_pair_are_single_calls(k):
    # g and the constant pair of a stack: one row per bank, bit for bit its
    # own, an (M, 1) column for a scalar, and drift and diffusion of one shape
    rng = np.random.default_rng(41 + k)
    ds = [random_simplex(rng, k) for _ in range(3)]
    banks = stack(ds)
    pairs = [constant_coefficients_vec(d) for d in ds]
    for x in (0.3, np.linspace(0.0, 1.0, 21)):
        want_shape = (3, np.size(x))
        g = g_function(banks, x, 1.0)
        assert g.shape == want_shape
        assert_same_bits(g, [np.reshape(g_function(d, x, 1.0), -1) for d in ds])
        for i, fn in enumerate(constant_coefficients_vec(banks)):
            assert fn(x).shape == want_shape
            assert_same_bits(fn(x), [np.reshape(pair[i](x), -1) for pair in pairs])
    starts = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(
        scale_fixation(*constant_coefficients_vec(banks), starts),
        [scale_fixation(*pair, s) for pair, s in zip(pairs, starts.tolist())])


def test_fast_pair_of_a_stack_is_single_pairs():
    # the rows of a K = 1 stack's fast pair are the single pairs, bit for bit,
    # and a batch scale solve gives the single solves; deeper stacks are refused
    fenv = FastEnvSpec(p=0.25, s=1.5)
    ds = [k1_bank(b0) for b0 in (0.2, 0.5, 1.0)]
    pair = fast_coefficients_vec(stack(ds), fenv)
    singles = [fast_coefficients_vec(d, fenv) for d in ds]
    for x in (0.3, np.linspace(0.0, 1.0, 11)):
        for i, fn in enumerate(pair):
            assert_same_bits(fn(x), [np.reshape(single[i](x), -1) for single in singles])
    starts = np.array([0.1, 0.2, 0.3])
    np.testing.assert_array_equal(
        scale_fixation(*pair, starts),
        [scale_fixation(*single, s) for single, s in zip(singles, starts.tolist())])
    with pytest.raises(UnsupportedK):
        fast_coefficients_vec(stack([k2_bank(0.5, 0.5), k2_bank(0.3, 0.2)]), fenv)


@pytest.mark.parametrize("eta_amp", [0.0, 0.5], ids=["eta0", "eta"])
def test_slow_pair_of_a_stack_is_single_pairs(eta_amp):
    # every bank-dependent entry of a stack's slow pair has one row per bank,
    # bit for bit that bank's own pair (B was once read as the stack's (M,)
    # mean times, which paired bank j's B with point j)
    env = bounded_env(eta_amp=eta_amp)
    ds = [validate_distribution(b) for b in
          ([0.5, 0.25, 0.25], [0.3, 0.4, 0.3], [0.6, 0.1, 0.3])]
    pair = slow_coefficients_vec(stack(ds), env)
    singles = [slow_coefficients_vec(d, env) for d in ds]
    for rho, xi in ((0.3, 0.8), (np.array([0.2, 0.5, 0.8]), np.ones(3)),
                    (np.linspace(-0.1, 1.1, 13), np.linspace(0.5, 2.0, 13))):
        for i, fn in enumerate(pair):
            for j, entry in enumerate(fn(rho, xi)):
                want = [np.reshape(single[i](rho, xi)[j], -1) for single in singles]
                if np.ndim(entry) == 2:
                    assert_same_bits(entry, want)
                else:  # alpha and eta: xi alone, the shape of xi
                    for w in want:
                        assert_same_bits(np.reshape(entry, -1), w)


def test_closed_forms_round_alike_on_scalars_and_arrays():
    # sums, products and quotients, no powers: each value of an array call is
    # bit for bit the scalar call's (a float's ** is a C pow, an array's a
    # multiply, and once moved 51 of the default g-plot's 1,206 cells)
    rng = np.random.default_rng(97)
    big_b = rng.uniform(0.0, 3.0, 2000)
    x0, y, b0 = rng.uniform(0.0, 1.0, (3, 2000))
    b0[0] = 1.0
    for fn, args in ((drift_bound, (big_b, x0)), (psi, (big_b, y)),
                     (_bounding_fixation, (big_b, y)), (h_function, (x0, b0))):
        assert_same_bits(fn(*args), [fn(*v) for v in zip(*(a.tolist() for a in args))])
    # the g-plot's default banks (1 - 2B/3, B/3, B/3), and random K = 1, 2
    rhos = np.linspace(0.0, 1.0, 201)
    banks = [validate_distribution([1.0 - 2.0 * big_b / 3.0, big_b / 3.0, big_b / 3.0])
             for big_b in (0.1, 0.5, 1.0)]
    for d in banks + [random_simplex(rng, k) for k in (1, 1, 2, 2)]:
        for xi in (0.8, 1.2):
            assert_same_bits(g_function(d, rhos, xi),
                             [g_function(d, rho, xi) for rho in rhos.tolist()])


def test_cheb_integral_matches_numpy_chebint():
    # bit for bit, across degrees and coefficient magnitudes spanning 13 decades
    rng = np.random.default_rng(29)
    for n in (3, 4, 5, 32, 97, 256, 1024):
        for _ in range(20):
            c = rng.standard_normal(n) * 10.0 ** rng.uniform(-10.0, 3.0, n)
            np.testing.assert_array_equal(_cheb_integral(c), chebint(c, lbnd=-1))


def test_psi_cap_properties():
    ys = np.linspace(0.05, 0.95, 10)
    for y in ys:
        bs = np.linspace(0.1, 5.0, 30)
        vals = psi_cap(bs, y)
        assert np.all(vals < y)
        assert np.all(np.diff(vals) < 0)
    assert abs(psi_cap(1e-8, 0.3) - 0.3) < 1e-6
    assert psi_cap(1e3, 0.01) < 1e-3


def test_monte_carlo_matches_scale_function():
    d = validate_distribution([0.5, 0.5])
    drift_vec, diff_vec = constant_coefficients_vec(d)
    start = 0.3
    reps = 100_000
    fixed, lost, censored = sample_absorption(
        drift_vec, diff_vec, start, dt=5e-4, seed=17, replicates=reps, max_time=60.0
    )
    assert censored < reps // 100
    p_hat = fixed / (reps - censored)
    se = math.sqrt(p_hat * (1 - p_hat) / (reps - censored))
    want = scale_fixation(
        lambda x: drift_vec(np.array([x]))[0],
        lambda x: diff_vec(np.array([x]))[0],
        start,
    )
    assert abs(p_hat - want) < 3 * se + 0.004


@pytest.mark.parametrize("max_time, counts", [(1.0, (11, 95, 294)), (20.0, (144, 256, 0))],
                         ids=["censored", "all-absorbed"])
def test_sample_absorption_pinned_counts(max_time, counts):
    # (fixed, lost, censored) captured from the implementation that kept every
    # replicate in place behind an activity mask; dropping absorbed rows in
    # order must leave the draws, and so the counts, unchanged
    drift_vec, diff_vec = constant_coefficients_vec(validate_distribution([0.5, 0.5]))
    got = sample_absorption(drift_vec, diff_vec, 0.3, dt=5e-3, seed=1, replicates=400,
                            max_time=max_time)
    assert got == counts


def test_sample_absorption_pinned_counts_deep_bank():
    # K = 5 (phi'' from the batched Lyapunov solve), every replicate absorbed:
    # the step loop's tail, with few live rows, pinned draw for draw
    drift_vec, diff_vec = constant_coefficients_vec(
        validate_distribution([0.4, 0.2, 0.15, 0.1, 0.1, 0.05]))
    got = sample_absorption(drift_vec, diff_vec, 0.3, dt=5e-3, seed=3, replicates=200,
                            max_time=200.0)
    assert got == (97, 103, 0)


def test_sample_absorption_pinned_counts_fast_pair():
    # the fast regime's pair (h from its closed form), every replicate
    # absorbed, pinned at the array-only step loop
    pair = fast_coefficients_vec(validate_distribution([0.5, 0.5]),
                                 FastEnvSpec(p=0.25, s=1.0))
    got = sample_absorption(*pair, 0.3, dt=5e-3, seed=1, replicates=400, max_time=20.0)
    assert got == (164, 236, 0)


def loop_sample_absorption(drift_vec, diff_vec, start, dt, seed, replicates, max_time):
    """The step loop with every step on an array of the live replicates (the
    reference for the Python-float tail)."""
    rng = np.random.default_rng(seed)
    y = np.full(replicates, float(start))
    fixed = lost = 0
    sqrt_dt = math.sqrt(dt)
    for _ in range(int(round(max_time / dt))):
        if not y.size:
            break
        y = y + drift_vec(y) * dt + diff_vec(y) * sqrt_dt * rng.standard_normal(y.size)
        hit_lost = y < 1e-9
        hit_fixed = y > 1.0 - 1e-9
        done = hit_lost | hit_fixed
        if done.any():
            lost += int(np.count_nonzero(hit_lost))
            fixed += int(np.count_nonzero(hit_fixed))
            y = y[~done]
    return fixed, lost, y.size


def recorded(pair):
    """The pair, with the drift writing down every state it is called on, in
    order, and the list it writes to."""
    drift_vec, diff_vec = pair
    seen = []

    def drift(y):
        seen.extend(np.reshape(y, -1).tolist())
        return drift_vec(y)

    return (drift, diff_vec), seen


TAIL_PAIRS = {
    "constant-K1": lambda: constant_coefficients_vec(validate_distribution([0.5, 0.5])),
    "constant-K1-b0.05": lambda: constant_coefficients_vec(
        validate_distribution([0.05, 0.95])),
    "constant-K2": lambda: constant_coefficients_vec(
        validate_distribution([0.5, 0.3, 0.2])),
    "constant-K5": lambda: constant_coefficients_vec(
        validate_distribution([0.4, 0.2, 0.15, 0.1, 0.1, 0.05])),
    "fast": lambda: fast_coefficients_vec(validate_distribution([0.5, 0.5]),
                                          FastEnvSpec(p=0.25, s=1.0)),
    "lambda": lambda: (lambda x: 0.2 * x * (1.0 - x),
                       lambda x: np.sqrt(np.maximum(x * (1.0 - x), 0.0))),
}


@pytest.mark.parametrize("name", list(TAIL_PAIRS))
def test_sample_absorption_tail_matches_array_loop(name):
    # once TAIL_REPLICATES or fewer are live the replicates step as Python
    # floats: every state, and so the counts, bit for bit those of the array
    # loop, from below, at and above the threshold, absorbed or censored
    # (also inside the tail), over several seeds
    pair = TAIL_PAIRS[name]()
    tail = diffusion_limits.TAIL_REPLICATES
    seeds = (1, 2) if name in ("constant-K5", "fast") else (1, 2, 3)  # the costly pairs
    cases = [(start, seed, reps, max_time)
             for seed in seeds
             for reps in (1, tail, tail + 1, 12)
             for start, max_time in ((0.3, 200.0), (0.05, 0.4), (0.9, 0.6))]
    counts = []
    for start, seed, reps, max_time in cases:
        (got_pair, got_seen), (want_pair, want_seen) = recorded(pair), recorded(pair)
        args = (start, 5e-3, seed, reps, max_time)
        got = sample_absorption(*got_pair, *args)
        assert got == loop_sample_absorption(*want_pair, *args)
        assert got_seen == want_seen
        counts.append(got)
    # some runs end censored inside the tail, and some absorb every replicate
    assert any(0 < censored <= tail for _, _, censored in counts)
    assert any(censored == 0 for _, _, censored in counts)


def test_sample_absorption_input_checks():
    drift_vec, diff_vec = constant_coefficients_vec(validate_distribution([0.5, 0.5]))
    good = dict(start=0.3, dt=5e-3, seed=1, replicates=100, max_time=1.0)
    for bad in (dict(replicates=0), dict(replicates=2.5), dict(replicates=True),
                dict(max_time=math.nan), dict(max_time=-1.0), dict(max_time=math.inf),
                dict(start=1.5), dict(start=-0.1), dict(start=math.nan)):
        with pytest.raises(ValidationError):
            sample_absorption(drift_vec, diff_vec, **{**good, **bad})
    # a step that is not positive, or past the horizon (dt = 5 and inf once
    # returned every replicate censored)
    for dt in (math.nan, 0.0, -1e-3, 5.0, math.inf):
        with pytest.raises(StepSizeInvalid):
            sample_absorption(drift_vec, diff_vec, **{**good, "dt": dt})
    # the master seed is checked as run_fixation checks it (-1 was numpy's
    # ValueError, 1.5 a TypeError, and True ran as seed 1)
    for seed in (-1, 2**64, 1.5, True, "1", None):
        with pytest.raises(ValidationError, match="seed"):
            sample_absorption(drift_vec, diff_vec, **{**good, "seed": seed})


@pytest.mark.parametrize("b, wf_seed, em_seed", [
    ([0.5] + [0.1] * 5, 201, 101),
    ([0.05] + [0.19] * 5, 202, 102),
], ids=["K5-b0.5", "K5-b0.05"])
def test_deep_bank_three_way_cross_check(b, wf_seed, em_seed):
    # K = 5, N = 200, start 0.2: the discrete chain, Euler-Maruyama on the
    # constant pair and the scale function agree within 4 se + 5/N (the
    # chain's O(1/N) bias) plus 0.01 for the Euler-Maruyama dt bias.  Replicate
    # counts and seeds were fixed before the first run.
    d = validate_distribution(b)
    n_pop, start = 200, 0.2
    drift_vec, diff_vec = constant_coefficients_vec(d)
    pred = scale_fixation(drift_vec, diff_vec, start)

    est = run_fixation("constant", d, n_pop, start, 4096, 10**6, wf_seed)
    assert est.censored_count == 0
    fixed, lost, censored = sample_absorption(drift_vec, diff_vec, start, dt=5e-3,
                                              seed=em_seed, replicates=800,
                                              max_time=200.0)
    assert censored == 0
    p_em = fixed / (fixed + lost)
    se_em = math.sqrt(p_em * (1.0 - p_em) / (fixed + lost))

    assert abs(est.p_hat - pred) <= 4.0 * est.std_err + 5.0 / n_pop
    assert abs(p_em - pred) <= 4.0 * se_em + 0.01
    assert (abs(est.p_hat - p_em)
            <= 4.0 * math.hypot(est.std_err, se_em) + 5.0 / n_pop + 0.01)


def test_neutral_martingale_monte_carlo():
    drift_vec = lambda x: np.zeros_like(x)
    diff_vec = lambda x: np.sqrt(np.maximum(x * (1 - x), 0.0))
    reps = 100_000
    fixed, lost, censored = sample_absorption(
        drift_vec, diff_vec, 0.3, dt=5e-4, seed=19, replicates=reps, max_time=60.0
    )
    p_hat = fixed / (reps - censored)
    se = math.sqrt(p_hat * (1 - p_hat) / (reps - censored))
    assert abs(p_hat - 0.3) < 3 * se + 0.004


def test_g_function_zeros_and_signs():
    xi_min = 0.8
    rho_c = (4.0 + xi_min) / (4.0 + 3.0 * xi_min)
    b_c = 2.0 / xi_min
    rng = np.random.default_rng(73)
    for _ in range(10):
        d = random_simplex(rng, 2)
        xi = rng.uniform(xi_min, 2.0)
        assert abs(g_function(d, 0.0, xi)) < 1e-12
        assert abs(g_function(d, 1.0, xi)) < 1e-12
    # small B: fluctuations favour dormancy below the critical proportion
    small = validate_distribution([0.95, 0.05])
    for rho in np.linspace(0.05, rho_c - 0.05, 12):
        for xi in (xi_min, 1.2, 2.0):
            assert g_function(small, rho, xi) > 0
    # large B: fluctuations favour the wild type near fixation of the mutant
    big = validate_distribution([0.1, 0.0, 0.0, 0.9])  # B = 2.7 > B_c = 2.5
    assert big.mean_time > b_c
    for rho in np.linspace(0.93, 0.99, 5):
        assert g_function(big, rho, xi_min) < 0


def test_g_function_broadcasts_over_xi():
    # an (m, 1) xi against n rho0 gives the m single-xi rows bit for bit
    rhos = np.linspace(0.0, 1.0, 21)
    xis = np.array([0.8, 1.0, 1.7])
    for d in (validate_distribution([0.5, 0.3, 0.2]),
              random_simplex(np.random.default_rng(89), 5)):
        table = g_function(d, rhos, xis[:, None])
        assert table.shape == (3, 21)
        for xi, row in zip(xis, table):
            np.testing.assert_array_equal(row, g_function(d, rhos, float(xi)))


def loop_operator_rows(mu, half_sig2, h):
    """Per-node reference for the vectorized PDE operator rows."""
    n = mu.size
    sub, diag, sup = np.empty(n), np.empty(n), np.empty(n)
    for i in range(n):
        a = half_sig2[i] / h**2
        m = mu[i]
        peclet = abs(m) * h / half_sig2[i] if half_sig2[i] > 0 else np.inf
        if peclet > 2.0:
            if m > 0:
                sub[i], diag[i], sup[i] = a, -2.0 * a - m / h, a + m / h
            else:
                sub[i], diag[i], sup[i] = a - m / h, -2.0 * a + m / h, a
        else:
            sub[i], diag[i], sup[i] = a - m / (2.0 * h), -2.0 * a, a + m / (2.0 * h)
    return sub, diag, sup


def test_pde_operator_rows_match_per_node_loop():
    # bit-identical, across central and upwinded nodes and sigma^2 = 0 nodes
    rng = np.random.default_rng(83)
    for _ in range(200):
        mu = rng.standard_normal(60) * 10.0 ** rng.uniform(-3.0, 2.0)
        half_sig2 = np.abs(rng.standard_normal(60)) * 10.0 ** rng.uniform(-4.0, 0.0)
        half_sig2[rng.random(60) < 0.1] = 0.0
        mu[rng.random(60) < 0.1] = 0.0
        for got, want in zip(_pde_operator_rows(mu, half_sig2, 0.005),
                             loop_operator_rows(mu, half_sig2, 0.005)):
            np.testing.assert_array_equal(got, want)
    # Peclet numbers at 2 and one ulp of mu either side of it
    half_sig2 = np.repeat(np.abs(rng.standard_normal(200)) + 1e-3, 3)
    at_two = 2.0 * half_sig2[::3] / 0.005
    mu = np.stack([np.nextafter(at_two, 0.0), at_two, np.nextafter(at_two, np.inf)], 1)
    mu = mu.ravel() * np.repeat(rng.choice([-1.0, 1.0], 200), 3)
    for got, want in zip(_pde_operator_rows(mu, half_sig2, 0.005),
                         loop_operator_rows(mu, half_sig2, 0.005)):
        np.testing.assert_array_equal(got, want)


def test_logistic_xi():
    assert logistic_xi(20.0, 0.7, 0.0) == pytest.approx(1.0)
    assert abs(logistic_xi(20.0, 0.7, 10.0) - 0.7) < 1e-12
    # closed form satisfies the ODE
    for t in (0.0, 0.05, 0.3):
        h = 1e-6
        lhs = (logistic_xi(20.0, 1.4, t + h) - logistic_xi(20.0, 1.4, t - h)) / (2 * h)
        xi = logistic_xi(20.0, 1.4, t)
        assert abs(lhs - 20.0 * xi * (1.4 - xi)) < 1e-5


def test_kolmogorov_autonomous_limit():
    d = validate_distribution([0.5, 0.5])
    drift_vec, diff_vec = constant_coefficients_vec(d)
    for start in (0.1, 0.4, 0.8):
        pde = kolmogorov_fixation(d, {"r": 20.0, "xi_inf": 1.0}, start)
        ref = scale_fixation(
            lambda x: drift_vec(np.array([x]))[0],
            lambda x: diff_vec(np.array([x]))[0],
            start,
        )
        assert abs(pde - ref) < 1e-3


def test_kolmogorov_neutral_is_start():
    d = validate_distribution([1.0, 0.0])
    for r, xi_inf in [(20.0, 0.7), (20.0, 1.2), (5.0, 0.9)]:
        got = kolmogorov_fixation(d, {"r": r, "xi_inf": xi_inf}, 0.01)
        assert abs(got - 0.01) < 1e-6


def test_kolmogorov_monotone_in_start():
    d = validate_distribution([0.6, 0.4])
    starts = np.linspace(0.05, 0.95, 13)
    vals = [kolmogorov_fixation(d, {"r": 20.0, "xi_inf": 1.2}, s) for s in starts]
    assert np.all(np.diff(vals) > 0)


def test_kolmogorov_validation():
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        kolmogorov_fixation(d, {"r": -1.0, "xi_inf": 1.0}, 0.1)
    with pytest.raises(ValidationError):
        kolmogorov_fixation(d, {"r": 20.0, "xi_inf": 1.0}, 0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError):
            kolmogorov_fixation(d, {"r": bad, "xi_inf": 0.8}, 0.1)
        with pytest.raises(ValidationError):
            kolmogorov_fixation(d, {"r": 20.0, "xi_inf": bad}, 0.1)
    # every start of a stack is checked, and there is one start per distribution
    logistic = {"r": 20.0, "xi_inf": 0.8}
    for starts in ([0.1, 1.0], [0.0, 0.1], [0.1, math.nan]):
        with pytest.raises(ValidationError):
            kolmogorov_fixation(stack([d, d]), logistic, starts)
    for ds, starts in ((stack([d, d]), [0.1]), (stack([d, d]), [0.1, 0.2, 0.3]),
                       (stack([d]), 0.1), (d, [0.1])):
        with pytest.raises(ValidationError):
            kolmogorov_fixation(ds, logistic, starts)


def loop_settle_steps(r, xi_inf, dt):
    """The settle-time search as a loop over multiples of dt (the reference)."""
    if abs(xi_inf - 1.0) < 1e-12:
        return 0
    t_switch = dt
    while abs(logistic_xi(r, xi_inf, t_switch) - xi_inf) > 1e-8:
        t_switch += dt
        if t_switch > 1e4:
            raise NoConvergence("environment never settled within the budget")
    return int(round(t_switch / dt))


@pytest.mark.parametrize("dt", [0.005, 0.01, 0.0037])
def test_settle_steps_match_loop(dt):
    for r in (1.0, 5.0, 20.0, 137.0):
        for xi_inf in (0.05, 0.3, 0.8, 1.0 - 1e-6, 1.0 - 2e-8, 1.0 - 5e-9, 1.0 - 1e-13,
                       1.0, 1.0 + 3e-9, 1.0 + 4e-7, 1.0 + 1e-6, 1.2, 2.5, 40.0):
            assert _settle_steps(r, xi_inf, dt) == loop_settle_steps(r, xi_inf, dt), \
                (r, xi_inf, dt)


def test_settle_budget_raises():
    # beyond the budget the closed form raises without stepping through it
    for r in (1e-3, 1e-9, 5e-324):
        for dt in (0.005, 0.01):
            with pytest.raises(NoConvergence):
                _settle_steps(r, 0.5, dt)


def test_kolmogorov_batch_matches_scalar_calls():
    rng = np.random.default_rng(47)
    # one stack per depth: K = 1 with the b0 = 1 edge, K = 2, and K = 5
    k1 = [validate_distribution(b) for b in ([0.3, 0.7], [0.8, 0.2], [1.0, 0.0])]
    k2 = [random_simplex(rng, 2) for _ in range(2)]
    k5 = [random_simplex(rng, 5) for _ in range(2)]
    # the README's fixation-vs-b0 banks and starts: one K = 1 closed-form
    # evaluation on columns gives phi'' for the whole batch
    readme = [validate_distribution([b0, 1.0 - b0]) for b0 in np.linspace(0.0, 1.0, 21)[1:]]
    for ds, starts in ((k1, np.array([0.02, 0.6, 0.01])), (k2, np.array([0.3, 0.15])),
                       (k5, np.array([0.15, 0.3])),
                       (readme, np.array([psi(d.mean_time, 0.01) for d in readme]))):
        for xi_inf in (0.8, 1.0, 1.2):
            logistic = {"r": 20.0, "xi_inf": xi_inf}
            single = [kolmogorov_fixation(d, logistic, s) for d, s in zip(ds, starts)]
            assert all(type(v) is float for v in single)
            batch = kolmogorov_fixation(stack(ds), logistic, starts)
            assert isinstance(batch, np.ndarray) and batch.shape == (len(ds),)
            assert_same_bits(batch, single)
            np.testing.assert_array_equal(
                kolmogorov_fixation(stack(ds[::-1]), logistic, starts[::-1]), batch[::-1])


@pytest.mark.parametrize("b0, xi_inf, want", [
    (0.1, 0.8, 0.0024346504283867393),
    (0.5, 1.2, 0.0038681947823648094),
    (0.7, 0.8, 0.006023679489550163),
])
def test_kolmogorov_pinned_values(b0, xi_inf, want):
    # fixation-vs-b0 rows at --r 20 --y 0.01, exact: the CSV bytes depend on
    # every rounding of the march, including that of its start time
    d = validate_distribution([b0, 1.0 - b0])
    assert kolmogorov_fixation(d, {"r": 20.0, "xi_inf": xi_inf}, psi(d.mean_time, 0.01)) == want


def loop_kolmogorov(banks, logistic, starts):
    """The Crank-Nicolson march of a stack with the operator built and solved
    step by step (the reference for the chunked march)."""
    from scipy.linalg.lapack import dgtsv

    def solve_tridiag_blocks(sub, diag, sup, rhs):
        size = diag.shape[1]
        dl = sub.ravel()[1:].copy()
        du = sup.ravel()[:-1].copy()
        dl[size - 1::size] = 0.0
        du[size - 1::size] = 0.0
        _, _, _, x, info = dgtsv(dl, diag.ravel(), du, rhs.ravel(),
                                 overwrite_dl=1, overwrite_du=1)
        assert info == 0 and np.all(np.isfinite(x))
        return x.reshape(diag.shape)

    r, xi_inf = float(logistic["r"]), float(logistic["xi_inf"])
    n_steps = _settle_steps(r, xi_inf, PDE_DT)
    big_b = banks.mean_time[:, None]
    h = 1.0 / (PDE_NODES - 1)
    rho = np.linspace(0.0, 1.0, PDE_NODES)
    interior = rho[1:-1]
    phi2_grid = drift_factor_fn(banks)(interior)
    _, selection, pull, variance, _ = _slow_factors(big_b, interior, phi2_grid)
    half_var = 0.5 * variance

    def coefficients(xi):
        return (selection - pull * (r * xi * (xi_inf - xi))) / xi, half_var / xi

    sub, diag, sup = _pde_operator_rows(*coefficients(xi_inf), h)
    u = np.zeros((len(banks.array), PDE_NODES))
    u[:, -1] = 1.0
    rhs = np.zeros_like(diag)
    rhs[:, -1] = -sup[:, -1]
    u[:, 1:-1] = solve_tridiag_blocks(sub, diag, sup, rhs)

    t_switch = 0.0
    for _ in range(n_steps):
        t_switch += PDE_DT
    lam = 0.5 * PDE_DT
    t_new = t_switch - np.arange(1, n_steps + 1) * PDE_DT
    for xi in logistic_xi(r, xi_inf, t_new + 0.5 * PDE_DT):
        sub, diag, sup = _pde_operator_rows(*coefficients(xi), h)
        v = u[:, 1:-1]
        rhs = v + lam * (sub * u[:, :-2] + diag * v + sup * u[:, 2:])
        rhs[:, -1] += lam * sup[:, -1]
        u[:, 1:-1] = solve_tridiag_blocks(-lam * sub, 1.0 - lam * diag, -lam * sup, rhs)
    return np.array([np.interp(s, rho, row) for s, row in zip(starts, u)])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_kolmogorov_matches_per_step_loop(k):
    # the chunked march equals the per-step one bit for bit, for single banks
    # and batches, in declining, constant and growing environments
    rng = np.random.default_rng(61 + k)
    for batch in (1, 3, 20):
        ds = [random_simplex(rng, k) for _ in range(batch)]
        starts = rng.uniform(0.01, 0.6, batch)
        for xi_inf in (0.5, 0.8, 1.0, 1.2):
            logistic = {"r": 20.0, "xi_inf": xi_inf}
            want = loop_kolmogorov(stack(ds), logistic, starts)
            got = ([kolmogorov_fixation(ds[0], logistic, starts[0])] if batch == 1
                   else kolmogorov_fixation(stack(ds), logistic, starts))
            assert_same_bits(got, want)


def test_kolmogorov_many_chunks_match_per_step_loop():
    # a long march: many chunks, the last one short
    rng = np.random.default_rng(67)
    logistic = {"r": 2.0, "xi_inf": 0.5}
    n_steps = _settle_steps(2.0, 0.5, PDE_DT)
    assert n_steps == 3407
    for batch in (1, 3):
        chunk = max(1, diffusion_limits._CHUNK_ELEMENTS // (batch * (PDE_NODES - 2)))
        assert n_steps >= 3 * chunk and n_steps % chunk
        ds = [random_simplex(rng, 2) for _ in range(batch)]
        starts = rng.uniform(0.01, 0.6, batch)
        got = ([kolmogorov_fixation(ds[0], logistic, starts[0])] if batch == 1
               else kolmogorov_fixation(stack(ds), logistic, starts))
        assert_same_bits(got, loop_kolmogorov(stack(ds), logistic, starts))


@pytest.mark.parametrize("where", ["terminal", "first", "middle", "last"])
def test_kolmogorov_non_finite_mid_march_raises(monkeypatch, where):
    # a value that goes non-finite in any step, the last of a short final
    # chunk included, raises NoConvergence instead of reaching the result
    lapack = manifold_reduction._lapack()
    real = lapack.dgtsv
    n_steps = _settle_steps(20.0, 0.8, PDE_DT)
    bad_call = {"terminal": 0, "first": 1, "middle": n_steps // 2, "last": n_steps}[where]
    calls = []

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        if len(calls) == bad_call:
            out[3][len(out[3]) // 2] = math.nan
        calls.append(None)
        return out

    monkeypatch.setattr(lapack, "dgtsv", poisoned)
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(NoConvergence):
        kolmogorov_fixation(d, {"r": 20.0, "xi_inf": 0.8}, 0.1)
    assert len(calls) > bad_call


def test_kolmogorov_singular_system_is_typed(monkeypatch):
    def zero_rows(mu, half_sig2, h):
        return np.zeros_like(mu), np.zeros_like(mu), np.zeros_like(mu)

    monkeypatch.setattr(diffusion_limits, "_pde_operator_rows", zero_rows)
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(SingularSystem):
        kolmogorov_fixation(stack([d, d]), {"r": 20.0, "xi_inf": 0.8}, [0.1, 0.2])
