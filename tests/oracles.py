"""Test references: closed forms, constants and simulators that the tests
check the package against, and that no CLI subcommand runs.

* the critical multitype branching phase: its mean matrix, Perron-Frobenius
  eigenvectors, survival and tail constants, and a budgeted simulator that
  verifies them;
* the bounding diffusion's scale function and its fixation bound Psi(B, y);
* Phi, the infinite-time limit of a flow, by direct ODE integration;
* the analytic derivative of the left null eigenvector along the manifold
  and the linearized flow's closed-form curvature matrix;
* the fast environment's K = 1 closed forms: the projection map's mixed
  second derivatives and the curvature matrix's environment entries, the
  pieces from which ``seedbank_flows.h_function`` is derived.
"""

from dataclasses import dataclass

import numpy as np

from seedbank.branching_phase import psi
from seedbank.core_model import GerminationDistribution, tail_sums
from seedbank.diffusion_limits import _bounding_fixation
from seedbank.errors import NoConvergence, NumericalError, UnsupportedK, ValidationError

# project_to_manifold's integration chunk and chunk budget
PROJECT_CHUNK_T = 50.0
PROJECT_MAX_CHUNKS = 200


class BudgetExceeded(NumericalError):
    """A Monte Carlo run exceeded its particle-step budget."""


# --- the branching phase ----------------------------------------------

@dataclass(frozen=True)
class BranchingSpec:
    """Branching-phase parameters: distribution plus the Poisson scale M.

    M only affects the prelimit dynamics; the survival and tail constants are
    M-free, which the tests exploit.
    """

    d: GerminationDistribution
    poisson_scale: float = 10.0

    def __post_init__(self):
        if not self.poisson_scale > 1.0:
            raise ValidationError("poisson_scale must exceed 1")


def mean_matrix(spec):
    """Mean offspring matrix: first row (b0, M b1, ..., M bK), subdiagonal
    (1/M, 1, ..., 1)."""
    b = spec.d.array
    k = spec.d.k
    m_scale = spec.poisson_scale
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = b[0]
    mat[0, 1:] = m_scale * b[1:]
    mat[1, 0] = 1.0 / m_scale
    mat[2:, 1:k] = np.eye(k - 1)
    return mat


def frobenius_eigenvectors(spec):
    """Perron eigenvectors (u, v) normalized so <u, 1> = <u, v> = 1.

    Closed forms: u = (M, 1, ..., 1)/(M+K) and
    v = ((M+K)/(M(B+1))) * (1, M T_1, M T_2, ..., M T_K) with T_i the tail
    sums; then u0 v0 = 1/(B+1).
    """
    d = spec.d
    k = d.k
    m_scale = spec.poisson_scale
    tails = tail_sums(d)
    u = np.concatenate([[m_scale], np.ones(k)]) / (m_scale + k)
    v = np.concatenate([[1.0], m_scale * tails]) * (
        (m_scale + k) / (m_scale * (d.mean_time + 1.0))
    )
    return u, v


def survival_constant(d):
    """Limit of t * P(alive at t): 2(B+1)."""
    return 2.0 * (d.mean_time + 1.0)


def conditional_tail(d, y):
    """Limit of P(Z0(t)/t >= y | alive at t): exp(-2 y (B+1)^2)."""
    return np.exp(-2.0 * np.asarray(y) * (d.mean_time + 1.0) ** 2)


@dataclass
class BranchingRun:
    """Simulator output: empirical t * P(alive) along checkpoints plus the
    scaled type-0 counts of surviving replicates at the horizon."""

    times: np.ndarray
    t_p_alive: np.ndarray
    std_err: np.ndarray
    tail_samples: np.ndarray
    replicates: int


def simulate_branching(
    spec,
    horizon_t,
    replicates,
    seed,
    budget=10**8,
    checkpoints=(50, 100, 200),
):
    """Forward-simulate the branching process from one type-0 individual.

    Offspring rules per generation: each type-0 individual produces
    Poisson(b0) type-0 and Poisson(M b_i) type-i children; each type-i (i >= 2)
    becomes one type-(i-1); each type-1 becomes type 0 with probability 1/M and
    otherwise dies.  Vectorized over replicates; deterministic given seed.
    """
    if replicates < 1:
        raise BudgetExceeded("replicates must be at least 1")
    if horizon_t < 10:
        raise ValidationError("horizon_t must be at least 10")
    d = spec.d
    b = d.array
    k = d.k
    m_scale = spec.poisson_scale
    rng = np.random.default_rng(seed)

    z = np.zeros((replicates, k + 1), dtype=np.int64)
    z[:, 0] = 1
    times = sorted(set(int(t) for t in checkpoints) | {int(horizon_t)})
    times = [t for t in times if t <= horizon_t]
    surv_probs = {}
    total_steps = 0
    alive = np.ones(replicates, dtype=bool)
    for t in range(1, int(horizon_t) + 1):
        idx = np.flatnonzero(alive)
        if idx.size:
            n0 = z[idx, 0]
            total_steps += int(z[idx].sum())
            if total_steps > budget:
                raise BudgetExceeded(
                    f"particle-step budget {budget} exceeded at generation {t}"
                )
            new = np.empty((idx.size, k + 1), dtype=np.int64)
            # type-0 offspring of type-0 parents, plus promoted type-1 seeds
            new[:, 0] = rng.poisson(b[0] * n0) + rng.binomial(
                z[idx, 1], 1.0 / m_scale
            )
            for i in range(1, k + 1):
                new[:, i] = rng.poisson(m_scale * b[i] * n0)
                if i + 1 <= k:
                    new[:, i] += z[idx, i + 1]
            z[idx] = new
            alive[idx] = new.any(axis=1)
        if t in times:
            p_alive = alive.mean()
            se = np.sqrt(p_alive * (1.0 - p_alive) / replicates)
            surv_probs[t] = (t * p_alive, t * se)
    tail = z[alive, 0] / float(horizon_t)
    ts = np.array(sorted(surv_probs))
    return BranchingRun(
        times=ts,
        t_p_alive=np.array([surv_probs[t][0] for t in ts]),
        std_err=np.array([surv_probs[t][1] for t in ts]),
        tail_samples=tail,
        replicates=replicates,
    )


# --- the bounding diffusion ---------------------------------------------

def scale_closed_form(big_b, v):
    """Closed-form scale function of the bounding diffusion,
    S(v) = (1 - e^{-Bv} + v e^{-Bv})/(B + 1)."""
    return _bounding_fixation(big_b, np.asarray(v, dtype=float)) / (big_b + 1.0)


def psi_cap(big_b, y):
    """Fixation-probability bound Psi(B, y) = 1 - e^{-B psi} + psi e^{-B psi}."""
    return _bounding_fixation(big_b, psi(big_b, y))


# --- the projection map and the manifold's closed forms -----------------

def project_to_manifold(flow, x, tol=1e-10):
    """Infinite-time limit of the flow from x, by adaptive ODE integration.

    Integrates in chunks of ``PROJECT_CHUNK_T`` until the field's norm at the
    endpoint drops below ``tol``, at most ``PROJECT_MAX_CHUNKS`` of them.
    """
    from scipy.integrate import solve_ivp  # deferred: slow to import

    y = np.asarray(x, dtype=float)
    flow._check_domain(y)
    for _ in range(PROJECT_MAX_CHUNKS):
        if np.linalg.norm(flow.func(y)) < tol:
            return y
        sol = solve_ivp(
            lambda t, z: flow.func(z),
            (0.0, PROJECT_CHUNK_T),
            y,
            method="RK45",
            rtol=1e-11,
            atol=1e-13,
        )
        if not sol.success:
            raise NoConvergence(f"ODE integration failed: {sol.message}")
        y = sol.y[:, -1]
    raise NoConvergence(f"field norm {np.linalg.norm(flow.func(y))} > {tol} after budget")


def left_eigvec_prime(kind, x0):
    """Analytic derivative of v along the manifold chart (w.r.t. x0)."""
    d = kind.d
    tails = tail_sums(d)
    big_b = d.mean_time
    den = big_b * (1.0 - x0) + 1.0
    vp_x = np.concatenate([[big_b], -tails]) / den**2
    if kind.tag in ("constant", "linearized"):
        return vp_x
    if kind.tag == "fast_env":
        vp_marks = tails * ((1.0 - 2.0 * x0) * den + big_b * x0 * (1.0 - x0)) / den**2
        return np.concatenate([vp_x, vp_marks])
    raise UnsupportedK("no closed-form eigenvector derivative for the slow_env flow")


def theta_g_closed(d, x0):
    """Closed-form curvature matrix of the linearized flow."""
    tails = tail_sums(d)
    big_b = d.mean_time
    den = big_b * (1.0 - x0) + 1.0
    w = np.concatenate([[-big_b], tails])
    return -np.outer(w, w) * (1.0 - x0) / den**3


# --- the fast environment at K = 1 ----------------------------------------

def fast_second_derivatives_k1(b0, x0):
    """Mixed second derivatives of the fast-regime projection map at K = 1.

    Returns (d2Phi0/dx0 dups0, d2Phi0/dups0^2) evaluated on the manifold.
    Exact rational functions of q = 1 - b0 and x0: the pieces that
    ``seedbank_flows.h_function`` reduces.
    """
    return (_fast_x_ups_k1(b0, x0),
            x0 * (1.0 - x0) * _fast_ups_ups_reduced_k1(b0, x0))


def _fast_x_ups_k1(b0, x0):
    """d2Phi0/dx0 dups0 on the manifold at K = 1."""
    q = 1.0 - b0
    x = x0
    den1 = q * (1.0 - x) + 1.0
    den = (q * (1.0 - x) + 2.0) * (den1 * den1 * den1)
    p3 = (
        q * q * q * (x * x * x * x)
        - 3.0 * (q * q * q) * (x * x * x)
        + 3.0 * (q * q * q) * (x * x)
        - q * q * q * x
        - 2.0 * (q * q) * (x * x * x)
        + 3.0 * (q * q) * (x * x)
        - q * q
        - q * (x * x)
        + 3.0 * q * x
        - 2.0 * q
        + 3.0 * x
        - 1.0
    )
    return -q * p3 / den


def _fast_ups_ups_reduced_k1(b0, x0):
    """d2Phi0/dups0^2 divided by its exact factor x0 (1 - x0); boundary-safe."""
    q = 1.0 - b0
    x = x0
    den1 = q * (1.0 - x) + 1.0
    den = (q * (1.0 - x) + 2.0) * (den1 * den1 * den1)
    p4 = (
        2.0 * (q * q) * (x * x * x)
        - 5.0 * (q * q) * (x * x)
        + 4.0 * (q * q) * x
        - q * q
        - 6.0 * q * (x * x)
        + 8.0 * q * x
        - 2.0 * q
        + 5.0 * x
        - 1.0
    )
    return -(q * q) * p4 / den


def theta_fast_closed_k1(b0, x0):
    """Closed-form environment entries of the fast-regime curvature matrix at K=1.

    Returns (theta_x0_ups0, theta_ups0_ups0); the frequency-frequency block of
    the fast curvature matrix coincides with the constant-environment one.
    """
    q = 1.0 - b0
    x = x0
    den = (q * (1.0 - x) + 2.0) * (q * (1.0 - x) + 1.0) ** 3
    p1 = (
        q**3 * x**3
        - 2.0 * q**3 * x**2
        + q**3 * x
        - 2.0 * q**2 * x**2
        + 2.0 * q**2 * x
        + q * x
        - q
        - 1.0
    )
    theta_x_ups = -q * (1.0 - x) * p1 / den
    theta_ups_ups = (
        q**2
        * x
        * (1.0 - x) ** 2
        * (q**2 * (1.0 - x) + 2.0 * q * (2.0 - x) + 3.0)
        / den
    )
    return theta_x_ups, theta_ups_ups
