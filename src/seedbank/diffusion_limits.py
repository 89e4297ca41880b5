"""Limiting diffusions, fixation probabilities, and the backward PDE solver.

Provides the limiting SDEs of the three regimes (constant environment, slowly
varying population size, fast environment marks), each written once as an
array-native (drift, diffusion) pair; the slow pair, the Crank-Nicolson
solver's coefficients and g share one set of slow-regime factors.
``sde_constant`` is kept as the one ``SdeSpec`` view of a pair, the form the
benchmark reads.  Also an Euler-Maruyama absorption sampler for 1-D pairs,
scale-function fixation probabilities for autonomous 1-D diffusions, the
closed-form fixation bound Psi(B, y), the sign diagnostic g for stochastic
population-size fluctuations, and a Crank-Nicolson backward Kolmogorov solver
for the non-autonomous logistic-environment fixation probability.
"""

import functools
import math
from collections import namedtuple

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .branching_phase import psi
from .core_model import GerminationDistribution, check_positive_int, check_seed
from .errors import (
    DegenerateDiffusion,
    NoConvergence,
    NumericalError,
    SingularSystem,
    StepSizeInvalid,
    UnsupportedK,
    ValidationError,
)
from .seedbank_flows import drift_factor_fn, h_function


# drift/diffusion coefficients of a limiting diffusion: drift(y) returns a
# (dim,) vector and diffusion(y) a (dim, n_noise) matrix, one column per
# independent Brownian motion
SdeSpec = namedtuple("SdeSpec", ["drift", "diffusion"])


def constant_coefficients_vec(d):
    """Drift and diffusion of the constant-environment diffusion, as callables
    of x (a scalar or an array):
    mu(x) = x (1 - x) phi''(x) / 2 and sigma(x) = sqrt(x (1 - x)) / (B (1 - x) + 1).

    Both are built from correctly rounded operations only (no powers), so
    a scalar x gives the value it has inside an array, bit for bit.  ``d`` is
    one distribution, or a sequence of M distributions: then both callables
    map an (n,) array x to (M, n) values, one row per distribution (phi''
    from the batch's ``drift_factor_fn``; B a column), each row bit for bit
    the single pair's values, as ``scale_fixation`` takes a batch.
    """
    if isinstance(d, GerminationDistribution):
        big_b = d.mean_time
    else:
        d = list(d)
        big_b = np.array([[di.mean_time] for di in d])
    phi2 = drift_factor_fn(d)

    def drift_vec(x):
        return 0.5 * x * (1.0 - x) * phi2(x)

    def diff_vec(x):
        one_minus = 1.0 - x
        v = x * one_minus
        # 0.5 (v + |v|) = max(v, 0), without np.maximum's cost on scalars
        return np.sqrt(0.5 * (v + abs(v))) / (big_b * one_minus + 1.0)

    return drift_vec, diff_vec


def fast_coefficients_vec(d, fenv):
    """Drift and diffusion of the fast-environment diffusion (dormancy depth
    one), as callables of x (a scalar or an array).

    Drift is the constant-environment drift plus p s^2 x (1 - x) h(x, b0);
    the environmental noise averages out, so the diffusion coefficient is that
    of the constant-environment model.
    """
    if d.k != 1:
        raise UnsupportedK("fast-environment SDE requires K = 1 (no closed-form "
                           "mixed derivative is available for deeper seed banks)")
    drift_vec, diff_vec = constant_coefficients_vec(d)
    b0 = d.b[0]
    p, s = fenv.p, fenv.s

    def fast_drift_vec(x):
        return drift_vec(x) + p * s**2 * x * (1.0 - x) * h_function(x, b0)

    return fast_drift_vec, diff_vec


def sde_constant(d):
    """Limiting 1-D diffusion of the constant-environment model, as an
    ``SdeSpec`` of 1-element state arrays."""
    drift_vec, diff_vec = constant_coefficients_vec(d)
    return SdeSpec(drift=lambda y: np.array([drift_vec(y[0])]),
                   diffusion=lambda y: np.array([[diff_vec(y[0])]]))


def _slow_factors(big_b, rho, phi2):
    """The xi-free factors (den, selection, pull, variance, Ito) of the slow
    environment's proportion form at rho0, a scalar or an array: den =
    B (1 - rho0) + 1, phi'' rho0 (1 - rho0) / 2, B rho0 (1 - rho0) / den,
    rho0 (1 - rho0) / den^2 and rho0^2 (phi'' - 2 B / den^2) / 2.  The caller
    passes phi2 = phi''(rho0), so that a march evaluates it once, not per step.
    """
    rho_fac = rho * (1.0 - rho)
    den = big_b * (1.0 - rho) + 1.0
    den2 = den * den
    return (den, 0.5 * phi2 * rho_fac, big_b * rho_fac / den, rho_fac / den2,
            0.5 * (rho * rho) * (phi2 - 2.0 * big_b / den2))


def slow_coefficients_vec(d, env):
    """Drift and diffusion of the slow environment's coupled diffusion in the
    proportion form, as callables of (rho0, xi), scalars or arrays of one
    shape; rho0 is clamped into [0, 1].

    ``drift(rho0, xi)`` returns (mu_rho, alpha(xi)) with
    mu_rho = (selection - pull alpha)/xi + eta^2 (pull + Ito)/xi^2, and
    ``diffusion(rho0, xi)`` the entries (sqrt(variance / xi), -pull eta / xi,
    eta) of the matrix [[., .], [0, eta]] whose columns are the noises
    (W_0, W_env); the factors are those of ``_slow_factors``.
    """
    phi2 = drift_factor_fn(d)
    big_b = d.mean_time
    alpha, eta = env.alpha, env.eta

    def factors(rho):
        rho = np.clip(rho, 0.0, 1.0)
        return _slow_factors(big_b, rho, phi2(rho))

    def drift_vec(rho, xi):
        _, selection, pull, _, ito = factors(rho)
        a, e = alpha(xi), eta(xi)
        return (selection - pull * a) / xi + e * e * (pull + ito) / (xi * xi), a

    def diff_vec(rho, xi):
        _, _, pull, variance, _ = factors(rho)
        e = eta(xi)
        return np.sqrt(variance / xi), -pull * e / xi, e

    return drift_vec, diff_vec


def sample_absorption(drift_vec, diff_vec, start, dt, seed, replicates, max_time):
    """Vectorized absorption sampling for a 1-D diffusion on [0, 1].

    ``drift_vec`` and ``diff_vec`` map an array of states to arrays of
    coefficients.  A replicate is lost below 1e-9 and fixed above 1 - 1e-9,
    and dropped on the step it gets there: the replicates that go on lie in
    [1e-9, 1 - 1e-9], so no step needs clipping into [0, 1].  ``dt`` must
    lie in (0, max_time], and ``seed`` is an integer in [0, 2**64).  Returns
    (fixed, lost, censored) replicate counts.
    """
    check_positive_int("replicates", replicates)
    if not 0.0 < max_time < math.inf:
        raise ValidationError(f"max_time must be positive and finite, got {max_time!r}")
    if not 0 < dt <= max_time:
        raise StepSizeInvalid(f"invalid step dt={dt} for horizon {max_time}")
    if not 0.0 <= start <= 1.0:
        raise ValidationError(f"start {start!r} outside [0, 1]")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    y = np.full(replicates, float(start))  # live replicates only, order kept
    fixed = lost = 0
    n_steps = int(round(max_time / dt))
    sqrt_dt = math.sqrt(dt)
    for _ in range(n_steps):
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


# Chebyshev degrees tried by scale_fixation, and the relative size below which
# a series' tail counts as resolved
_CHEB_DEGREES = (32, 64, 128, 256, 512, 1024)
_CHOP_TOL = 1e-14


@functools.lru_cache(maxsize=None)
def _cheb_basis(n):
    """The n first-kind Chebyshev nodes mapped to [0, 1], the n x n matrix
    cos(j theta_k) of T_j at them, and the cosine transform's weights: 2/n,
    the first halved (read-only: cached for every caller)."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    nodes = 0.5 * (np.cos(theta) + 1.0)
    cos_jk = np.cos(np.outer(np.arange(n), theta))
    weights = np.full(n, 2.0 / n)
    weights[0] *= 0.5
    for a in (nodes, cos_jk, weights):
        a.setflags(write=False)
    return nodes, cos_jk, weights


def _cheb_coeffs(cos_jk, weights, values):
    """Chebyshev coefficients of the degree n - 1 interpolant of each row of
    values, (m, n) values at the first-kind nodes: one cosine transform per
    row, a stacked matrix-vector product that equals the one-row product bit
    for bit (one matrix-matrix product would not).  Scaling by the weights is
    scaling by 2/n and then halving the first coefficient, bit for bit: a
    rounding commutes with halving, above the subnormal range."""
    return np.matmul(cos_jk, values[:, :, None])[:, :, 0] * weights


@functools.lru_cache(maxsize=None)
def _integral_divisors(n):
    """The divisors 1, 4, 6, ..., 2n and 2, 4, ..., 2(n - 2) of the two terms
    of a Chebyshev antiderivative's coefficients (read-only)."""
    first = 2.0 * np.arange(1, n + 1)
    first[0] = 1.0
    second = 2.0 * np.arange(1, n - 1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _cheb_integral(c):
    """numpy's ``chebint(c, lbnd=-1)``, bit for bit, for n >= 3 coefficients,
    without its Python loop over them; ``c`` is one series or an (m, n) array
    of series, one per row.

    The antiderivative's coefficients are c[0] - c[2]/2 at degree 1 and
    c[k-1]/(2k) - c[k+1]/(2k) above (c[n] = c[n+1] = 0), each rounded as
    chebint rounds it (c[0]/1 is exact); the constant term makes the integral
    vanish at -1 and is evaluated by chebval's Clenshaw recurrence at x = -1,
    on Python floats for one series and on the columns of several (the same
    roundings).
    """
    n = c.shape[-1]
    first, second = _integral_divisors(n)
    rows = c.reshape(-1, n)
    out = np.zeros((len(rows), n + 1))
    out[:, 1:] = rows / first
    out[:, 1:n - 1] -= rows[:, 2:] / second
    coeffs = out[0].tolist() if len(out) == 1 else list(out.T.copy())
    b0, b1 = coeffs[-2], coeffs[-1]
    for v in reversed(coeffs[:-2]):
        b0, b1 = v - b1, b0 + b1 * -2
    out[:, 0] = 0.0 - (b0 - b1)
    return out.reshape(c.shape[:-1] + (n + 1,))


def _resolved(c):
    """Chopping test per row of c: the last max(4, n/8) coefficients are
    negligible."""
    size = np.abs(c)
    tail = max(4, c.shape[1] // 8)
    return size[:, -tail:].max(axis=1) <= _CHOP_TOL * size.max(axis=1)


def _scale_values(c_g, t):
    """S(x)/S(1) at t = 2x - 1 per row of c_g, the series of exp(-I), and of t."""
    c_s = 0.5 * _cheb_integral(c_g)
    s_one = c_s.sum(axis=1)  # T_j(1) = 1
    if not s_one.min() > 0:
        raise DegenerateDiffusion("scale function is degenerate on [0, 1]")
    # chebval runs its recurrence on scalars for one value, and on the columns
    # of c_s for several
    s_t = (chebval(t.item(), c_s[0]) if t.size == 1
           else chebval(t, c_s.T[:, :, None], tensor=False))
    # S is increasing; rounding (about 1e-16 S(1)) must not leave [0, 1]
    return np.clip(s_t / s_one[:, None], 0.0, 1.0)


def _on_nodes(fn, x):
    """fn on the node array x: one value per node, or one row of them per
    diffusion of a batch; node by node when fn takes only scalars."""
    try:
        out = np.asarray(fn(x), dtype=float)
    except (TypeError, ValueError):  # math.sqrt, or `if x < ...` on an array
        out = None
    if out is None or out.shape[-1:] != x.shape:
        # a genuine error in fn is raised again here, on a scalar
        out = np.array([fn(v) for v in x.tolist()], dtype=float)
    return out


def scale_fixation(drift_fn, diff_fn, start):
    """P(hit 1 before 0) for an autonomous 1-D diffusion on [0, 1], or for
    each diffusion of a batch.

    Chebyshev spectral scale function: with f = 2 mu / sigma^2,
    I(x) = int_0^x f and S(x) = int_0^x exp(-I); returns S(start)/S(1).
    mu and sigma are evaluated once per degree, on the array of n first-kind
    Chebyshev nodes (interior points, so the 0/0 at the ends never arises);
    f and exp(-I) are interpolated there and integrated term by term.  n
    doubles from 32 to 1024 until the tail of both series is negligible
    (a simple form of the chopping rule of Aurentz & Trefethen, ACM TOMS
    43(4), 2017).

    One diffusion: ``drift_fn`` and ``diff_fn`` map the (n,) node array to n
    values, or take only scalars and are evaluated node by node; ``start`` is
    a scalar (a float is returned) or an array (an array of its shape is
    returned).  A batch of M diffusions: both map the node array to (M, n)
    values, one row per diffusion (``constant_coefficients_vec`` of a
    sequence of distributions does), and ``start`` is a scalar or one start
    per diffusion; an (M,) array is returned.  A batch runs in lock-step:
    each degree makes the cosine transforms of every unresolved row at once,
    each row keeps its own degree, and each result is bit for bit that of a
    call with its diffusion alone.  Every start lies in [0, 1].

    The coefficients must be smooth on [0, 1] (every pair in this package is
    analytic there); otherwise the series never resolves and ``NoConvergence``
    is raised.  Raises ``DegenerateDiffusion`` if sigma vanishes at a node and
    ``NumericalError`` on a non-finite coefficient or exp(-I), for a batch
    when any of its diffusions not yet resolved does.
    """
    start = np.asarray(start, dtype=float)
    if not ((start >= 0.0) & (start <= 1.0)).all():
        raise ValidationError("start must lie in [0, 1]")
    out = None
    for n in _CHEB_DEGREES:
        x, cos_jk, weights = _cheb_basis(n)
        mu = _on_nodes(drift_fn, x)
        sigma = _on_nodes(diff_fn, x)
        if out is None:
            # one row of starts per diffusion, mapped to [-1, 1]: every start
            # of a single diffusion, or each diffusion's own start in a batch
            single = mu.ndim == 1
            if single:
                t = 2.0 * start.reshape(1, -1) - 1.0
            elif start.shape in ((), mu.shape[:1]):
                t = np.broadcast_to(2.0 * start - 1.0, mu.shape[:1])[:, None]
            else:
                raise ValidationError(f"start needs one value per diffusion, or one "
                                      f"for all {len(mu)}; got shape {start.shape}")
            out = np.empty(t.shape)
            # the rows not yet resolved: every row, as a slice, until some are
            active = slice(None)
        if mu.shape != sigma.shape or mu.size != len(out) * n:
            raise ValidationError("drift and diffusion must give one value per node, "
                                  "or one row of values per diffusion, at every degree")
        mu = mu.reshape(-1, n)[active]
        sigma = sigma.reshape(-1, n)[active]
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise NumericalError("coefficient is not finite at a Chebyshev node")
        s2 = sigma**2
        if not (s2 > 0).all():
            z = x[np.argmin(s2) % n]
            raise DegenerateDiffusion(f"diffusion vanishes at interior point {z}")
        c_f = _cheb_coeffs(cos_jk, weights, 2.0 * mu / s2)
        # x = (t + 1)/2 maps [-1, 1] to [0, 1], so dx = dt/2; T_n vanishes at
        # the nodes, so the first n coefficients of I give its node values
        c_i = 0.5 * _cheb_integral(c_f)
        with np.errstate(over="ignore"):
            g = np.exp(-np.matmul(cos_jk.T, c_i[:, :n, None])[:, :, 0])
        if not np.isfinite(g).all():
            raise NumericalError("exp(-I) is not finite: the drift is too strong "
                                 "for the scale function to be represented")
        c_g = _cheb_coeffs(cos_jk, weights, g)
        done = _resolved(c_f) & _resolved(c_g)
        if done.all():
            out[active] = _scale_values(c_g, t[active])
            break
        if done.any():
            active = np.arange(len(out))[active]
            rows = active[done]
            out[rows] = _scale_values(c_g[done], t[rows])
            active = active[~done]
    else:
        raise NoConvergence(f"Chebyshev series of the scale density not resolved at "
                            f"degree {n}: the coefficients are not smooth on [0, 1]")
    out = out.reshape(start.shape if single else -1)
    return float(out) if out.ndim == 0 else out


def _bounding_fixation(big_b, v):
    """1 - e^{-Bv} + v e^{-Bv}: the bounding diffusion's fixation probability
    from v, and (B + 1) times its scale function at v (a float for scalars)."""
    e = np.exp(-np.asarray(big_b, dtype=float) * v)
    out = 1.0 - e + v * e
    return out.item() if np.ndim(out) == 0 else out


def scale_closed_form(big_b, v):
    """Closed-form scale function of the bounding diffusion,
    S(v) = (1 - e^{-Bv} + v e^{-Bv})/(B + 1)."""
    return _bounding_fixation(big_b, np.asarray(v, dtype=float)) / (big_b + 1.0)


def psi_cap(big_b, y):
    """Fixation-probability bound Psi(B, y) = 1 - e^{-B psi} + psi e^{-B psi}."""
    return _bounding_fixation(big_b, psi(big_b, y))


def g_function(d, rho0, xi):
    """Sign diagnostic of stochastic population-size fluctuations.

    Positive values mean the fluctuations favour the dormancy trait at
    proportion rho0 and population size xi; negative values disfavour it.
    ``rho0`` and ``xi`` may be arrays that broadcast against each other;
    phi'' is evaluated on rho0 alone, so an (m, 1) array of xi against n
    values of rho0 gives an (m, n) table for one evaluation of phi''.

    g = pull / xi + rho0^2 (phi'' - 2 B / den) / 2, with pull and den those
    of the slow drift.  It is not the eta^2 coefficient of that drift,
    (pull + Ito) / xi^2 with Ito = rho0^2 (phi'' - 2 B / den^2) / 2: g divides
    only the pull term by xi, and by xi rather than xi^2, and has den where
    the Ito term has den^2.  Their signs agree at B = 0.05, but at xi = 2
    they differ at 19 of 49 rho0 in [0.02, 0.98] for B = 0.5 and at 25 for
    B = 2.7; which sign is right is for a Monte Carlo test to decide.
    """
    big_b = d.mean_time
    phi2 = drift_factor_fn(d)(rho0)
    den, _, pull, _, _ = _slow_factors(big_b, rho0, phi2)
    return pull / xi + 0.5 * (rho0 * rho0) * (phi2 - 2.0 * big_b / den)


# resolution of the backward Kolmogorov solver: nodes on [0, 1] and time step
PDE_NODES = 201
PDE_DT = 0.005


def _pde_operator_rows(mu, half_sig2, h):
    """Tridiagonal rows (sub, diag, super) of the discrete generator at the
    interior nodes, with upwinding of the advection when the cell Peclet
    number |mu| h / (sigma^2 / 2) exceeds 2 (infinite where sigma^2 = 0).

    The central rows are built for every node and overwritten at the
    upwinded ones only.  The Peclet test is made as |mu| h > sigma^2, without
    the division: for floats the two comparisons agree exactly.
    """
    a = half_sig2 / h**2
    mu_2h = mu / (2.0 * h)
    sub, diag, sup = a - mu_2h, -2.0 * a, a + mu_2h
    upwind = ~(half_sig2 > 0) | (np.abs(mu) * h > 2.0 * half_sig2)
    if upwind.any():
        a_up, mu_up = a[upwind], mu[upwind]
        forward, mu_h = mu_up > 0, mu_up / h
        diffusive = -2.0 * a_up
        sub[upwind] = np.where(forward, a_up, a_up - mu_h)
        diag[upwind] = np.where(forward, diffusive - mu_h, diffusive + mu_h)
        sup[upwind] = np.where(forward, a_up + mu_h, a_up)
    return sub, diag, sup


def logistic_xi(r, xi_inf, t):
    """Closed-form logistic population size with xi(0) = 1."""
    t = np.asarray(t, dtype=float)
    out = xi_inf / (1.0 + (xi_inf - 1.0) * np.exp(-r * xi_inf * t))
    return out.item() if out.ndim == 0 else out


def _block_bands(sub, diag, sup):
    """dgtsv's bands (dl, d, du) for an (S, M, L) stack of tridiagonal rows:
    row s of each band holds step s's M systems end to end, one block-diagonal
    system of size M L.

    The coupling entries between blocks are zeroed, and a zero coupling
    contributes exact zeros to the elimination, so each block's solution is
    bit for bit the one a separate solve would give.  ``sub[..., 0]`` and
    ``sup[..., -1]`` are ignored; the bands are views of the arguments where
    they can be, so the caller reads neither argument again.
    """
    steps, _, size = diag.shape
    dl = sub.reshape(steps, -1)[:, 1:]
    du = sup.reshape(steps, -1)[:, :-1]
    dl[:, size - 1::size] = 0.0
    du[:, size - 1::size] = 0.0
    return dl, diag.reshape(steps, -1), du


# the environment counts as settled once |xi - xi_inf| <= _SETTLE_TOL; a
# settle time beyond _SETTLE_BUDGET raises NoConvergence
_SETTLE_TOL = 1e-8
_SETTLE_BUDGET = 1e4

# elements of each (steps, batch, interior node) array of one chunk of the
# Crank-Nicolson march, kept cache-sized: against the per-step build on a 2 MB
# L2 Xeon, 2**13 ran 1- to 20-bank marches 0.52x to 0.93x as long, and 2**14
# ran 10- and 20-bank marches 1.03x and 1.18x as long
_CHUNK_ELEMENTS = 2**13


def _settle_steps(r, xi_inf, dt):
    """The smallest k >= 1 with |xi(k dt) - xi_inf| <= 1e-8 (0 when xi_inf is
    1 to within 1e-12).

    Inverts the logistic, |xi(t) - xi_inf| = xi_inf |c| e / (1 + c e) with
    c = xi_inf - 1 and e = exp(-r xi_inf t), for the settle time, then steps
    k to the smallest multiple of dt that passes the test itself.
    """
    c = xi_inf - 1.0
    if abs(c) < 1e-12:
        return 0
    # settled for t >= log_ratio / (r xi_inf)
    log_ratio = math.log(abs(c) * (xi_inf - math.copysign(_SETTLE_TOL, c)) / _SETTLE_TOL)
    if log_ratio > _SETTLE_BUDGET * r * xi_inf:
        raise NoConvergence("environment never settled within the budget")

    def settled(k):
        return abs(logistic_xi(r, xi_inf, k * dt) - xi_inf) <= _SETTLE_TOL

    k = max(1, math.ceil(log_ratio / (r * xi_inf) / dt))
    while not settled(k):
        k += 1
    while k > 1 and settled(k - 1):
        k -= 1
    if k * dt > _SETTLE_BUDGET:
        raise NoConvergence("environment never settled within the budget")
    return k


def kolmogorov_fixation(d, logistic, start_rho):
    """Fixation probability under a deterministic logistic population size.

    The population size follows dxi/dt = r xi (xi_inf - xi) with xi(0) = 1;
    the mutant proportion follows the deterministic-environment diffusion.
    Solves the backward equation du/dt + L(t) u = 0 with u(t, 0) = 0,
    u(t, 1) = 1, closing at the time the environment has settled
    (|xi - xi_inf| <= 1e-8) with the autonomous stationary profile, and
    returns u(0, start_rho), on ``PDE_NODES`` nodes with step ``PDE_DT``.

    ``d`` is one distribution, with a scalar ``start_rho`` (a float is
    returned), or a sequence of distributions with an array of one start per
    distribution (an array is returned).  The settle time depends only on
    the logistic, so a batch marches in lock-step: phi'' on the grid is one
    call of the batch's ``drift_factor_fn`` (rows that equal each bank's
    own phi'' bit for bit), each chunk of Crank-Nicolson steps builds the
    operator rows of every step and distribution at once (xi(t) is known in
    closed form before the march), each step solves all its systems in one
    LAPACK call, and each result is bit for bit that of a call with its
    distribution alone.  Raises ``SingularSystem`` on a zero pivot and
    ``NoConvergence`` on a non-finite value.
    """
    r = float(logistic["r"])
    xi_inf = float(logistic["xi_inf"])
    if not (0.0 < r < math.inf and 0.0 < xi_inf < math.inf):
        raise ValidationError("logistic parameters r and xi_inf must be positive "
                              "and finite")
    single = isinstance(d, GerminationDistribution)
    ds = [d] if single else list(d)
    starts = np.asarray(start_rho, dtype=float)
    if not ds or starts.shape != (() if single else (len(ds),)):
        raise ValidationError("start_rho needs one start per distribution")
    if not np.all((starts > 0.0) & (starts < 1.0)):
        raise ValidationError("start_rho must lie in (0, 1)")
    n_steps = _settle_steps(r, xi_inf, PDE_DT)
    # deferred: scipy.linalg is slow to import; resolved once, not per step
    from scipy.linalg.lapack import dgtsv

    # (batch, interior node) arrays
    big_b = np.array([[di.mean_time] for di in ds])
    h = 1.0 / (PDE_NODES - 1)
    rho = np.linspace(0.0, 1.0, PDE_NODES)
    interior = rho[1:-1]
    phi2_grid = drift_factor_fn(ds)(interior)
    _, selection, pull, variance, _ = _slow_factors(big_b, interior, phi2_grid)
    half_var = 0.5 * variance

    def coefficients(xi):
        # the slow pair's drift and half variance at eta = 0, alpha = r xi (xi_inf - xi)
        return (selection - pull * (r * xi * (xi_inf - xi))) / xi, half_var / xi

    def solve(dl, dd, du, rhs):
        # every band and rhs is used once, so dgtsv may overwrite them all
        _, _, _, x, info = dgtsv(dl, dd, du, rhs.ravel(), overwrite_dl=1,
                                 overwrite_d=1, overwrite_du=1, overwrite_b=1)
        if info > 0:
            raise SingularSystem(f"Crank-Nicolson system is singular (zero pivot at "
                                 f"row {info})")
        return x.reshape(rhs.shape)

    def check_finite(values):
        if not np.isfinite(values).all():
            raise NoConvergence("backward PDE produced non-finite values")

    # terminal condition: discrete stationary profile of the autonomous
    # operator at xi_inf (exactly stationary under the scheme by construction)
    sub, diag, sup = _pde_operator_rows(*coefficients(xi_inf), h)
    u = np.zeros((len(ds), PDE_NODES))
    u[:, -1] = 1.0  # Dirichlet u(0) = 0, u(1) = 1
    rhs = np.zeros_like(diag)
    rhs[:, -1] = -sup[:, -1]
    (dl,), (dd,), (du,) = _block_bands(sub[None], diag[None], sup[None])
    u[:, 1:-1] = solve(dl, dd, du, rhs)
    check_finite(u)

    # march backward from the settle time t_switch to 0 with Crank-Nicolson.
    # t_switch is dt summed n_steps times, rounded at each addition; n_steps * dt
    # can differ from it in the last bit, which would move every midpoint time
    # and the last digit of the results
    t_switch = 0.0
    for _ in range(n_steps):
        t_switch += PDE_DT
    lam = 0.5 * PDE_DT
    t_new = t_switch - np.arange(1, n_steps + 1) * PDE_DT
    xis = logistic_xi(r, xi_inf, t_new + 0.5 * PDE_DT)
    # the operator depends on xi alone, so each chunk of steps builds its rows
    # and implicit bands in one pass over an (S, M, L) stack; every operation is
    # elementwise, so each step's rows are those a per-step build gives
    chunk = max(1, _CHUNK_ELEMENTS // selection.size)
    for first in range(0, n_steps, chunk):
        xi = xis[first:first + chunk, None, None]
        sub, diag, sup = _pde_operator_rows(*coefficients(xi), h)
        bands = zip(*_block_bands(-lam * sub, 1.0 - lam * diag, -lam * sup))
        fold = lam * sup[:, :, -1]
        for sub_s, diag_s, sup_s, fold_s, (dl, dd, du) in zip(sub, diag, sup, fold, bands):
            # explicit half
            v = u[:, 1:-1]
            rhs = v + lam * (sub_s * u[:, :-2] + diag_s * v + sup_s * u[:, 2:])
            # implicit half: (I - lam L) u_new = rhs, u(1) = 1 folded in
            rhs[:, -1] += fold_s
            u[:, 1:-1] = solve(dl, dd, du, rhs)
        # a non-finite value carries through every later step, so one check
        # per chunk catches it
        check_finite(u)

    out = np.array([np.interp(s, rho, row) for s, row in zip(starts.reshape(-1), u)])
    return float(out[0]) if single else out
