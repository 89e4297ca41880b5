"""Critical multitype branching phase: analytics and Monte Carlo.

A rare mutant lineage with a seed bank behaves, while rare, like a critical
(K+1)-type branching process: type 0 counts mature mutant plants, type i >= 1
counts seeds that will germinate in i generations.  This module provides the
mean matrix (Perron eigenvalue 1), its normalized eigenvectors, the survival
asymptote 2(B+1), the conditional exponential tail, the splice map psi that
matches branching-phase outcomes between the seed-bank and neutral models, and
a vectorized simulator used to verify the asymptotics.
"""

from dataclasses import dataclass

import numpy as np

from .core_model import GerminationDistribution, tail_sums
from .errors import BudgetExceeded, ValidationError


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


def psi(big_b, y):
    """Splice map matching branching outcomes to the neutral model.

    psi_B(y) = log((B+1)/(B+e^{-2y})) / (2 (B+1)^2); psi is increasing in y
    and decreasing in B.  psi_0(y) = y in exact arithmetic only: the rounding
    of e^{-2y} leaves an absolute error up to about 1.1e-16 for y in [0, 1]
    (psi(0, 0.01) is 0.009999999999999983).  B and y broadcast; (B + 1)^2 is
    a product, not a power, so a scalar and an array give the same bits.
    """
    big_b = np.asarray(big_b, dtype=float)
    y = np.asarray(y, dtype=float)
    big_b1 = big_b + 1.0
    out = np.log(big_b1 / (big_b + np.exp(-2.0 * y))) / (2.0 * (big_b1 * big_b1))
    return out.item() if out.ndim == 0 else out


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
