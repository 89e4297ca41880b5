"""Exact discrete-generation simulators for the three regimes.

Each generation, the number of new mature mutants is a binomial draw whose
success probability weighs mutant seeds from the last K+1 generations against
the wild-type pool, followed by an ageing shift of the seed-bank coordinates.
The three regimes share one probability kernel so that degenerate parameter
choices (no environment marks, constant population size) are bit-identical to
the constant regime under the same seed.

Monte Carlo fixation runs use counter-based RNG streams (Philox keyed by
master seed, replicate block, and channel), so results are independent of
scheduling and thread count, and the environment channel never perturbs the
genetic channel.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryConditionViolated, ValidationError

BLOCK_SIZE = 4096
_GEN_CHANNEL = 0
_ENV_CHANNEL = 1


def _block_rng(master_seed, block_index, channel):
    key = np.array([np.uint64(master_seed), np.uint64(2 * block_index + channel)])
    return np.random.Generator(np.random.Philox(key=key))


def _transition_probs(x, b, wild, w0, w):
    """Success probability of the next-generation binomial draw.

    ``x`` has shape (R, K+1); ``wild`` is the count of mature wild-type
    individuals; ``w0`` is the environment weight of generation-t seeds and
    ``w`` (shape (R, K) or (K,)) the weights of the dormant generations.  All
    regimes go through this one expression so that degenerate parameters give
    bit-identical probabilities.
    """
    w2 = np.broadcast_to(np.asarray(w, dtype=float), (x.shape[0], b.size - 1))
    dormant = np.einsum("rk,rk->r", b[1:] * w2, x[:, 1:])
    num = b[0] * w0 * x[:, 0] + dormant
    den = (wild + b[0] * x[:, 0]) * w0 + dormant
    return num / den


def step_constant(x, d, n_pop, rng):
    """One generation of the constant-environment chain.

    ``x`` is an integer array of shape (K+1,) or (R, K+1); returns the same
    shape.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.int64))
    b = d.array
    probs = _transition_probs(x.astype(float), b, (n_pop - x[:, 0]).astype(float), 1.0,
                              np.ones(d.k))
    new = np.empty_like(x)
    new[:, 0] = rng.binomial(n_pop, probs)
    new[:, 1:] = x[:, :-1]
    return new if new.shape[0] > 1 else new[0]


def step_slow(x, xi_now, xi_next, d, n_pop, rng):
    """One generation of the slowly varying population-size chain.

    ``xi_now``/``xi_next`` are the environment values at generations t and
    t+1; the mature population sizes are floor(xi * N).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.int64))
    b = d.array
    trials_now = np.floor(np.asarray(xi_now, dtype=float) * n_pop).astype(np.int64)
    trials_next = np.floor(np.asarray(xi_next, dtype=float) * n_pop).astype(np.int64)
    probs = _transition_probs(x.astype(float), b, (trials_now - x[:, 0]).astype(float),
                              1.0, np.ones(d.k))
    new = np.empty_like(x)
    new[:, 0] = rng.binomial(trials_next, probs)
    new[:, 1:] = x[:, :-1]
    return new if new.shape[0] > 1 else new[0]


def step_fast(x, marks, new_mark, d, n_pop, fenv, rng):
    """One generation of the fast-environment chain.

    ``marks`` holds the last K environment marks (shape (R, K) or (K,)),
    ``new_mark`` the freshly drawn mark of generation t+1.  Returns
    (new_x, new_marks).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.int64))
    marks2 = np.atleast_2d(np.asarray(marks))
    new_mark = np.atleast_1d(np.asarray(new_mark))
    b = d.array
    s_n = fenv.s_of_N(n_pop)
    w0 = 1.0 + s_n * new_mark
    w = 1.0 + s_n * marks2.astype(float)
    probs = _transition_probs(x.astype(float), b, (n_pop - x[:, 0]).astype(float),
                              w0, w)
    new = np.empty_like(x)
    new[:, 0] = rng.binomial(n_pop, probs)
    new[:, 1:] = x[:, :-1]
    new_marks = np.empty_like(marks2)
    new_marks[:, 0] = new_mark
    new_marks[:, 1:] = marks2[:, :-1]
    if np.ndim(marks) == 1:
        return new[0], new_marks[0]
    return new, new_marks


@dataclass(frozen=True)
class EnvProcess:
    """Discrete environment process for the slow regime.

    ``step(xi, rng)`` returns the next environment value; the moment orders
    match the diffusion assumptions by construction.
    """

    kind: str
    xi_min: float
    xi_max: float
    n_pop: int
    alpha: callable
    eta: callable
    step: callable


def make_env_process(kind, xi_min, xi_max, n_pop, r=None, xi_inf=None,
                     alpha=None, eta=None):
    """Build a concrete environment process.

    ``deterministic_logistic``: xi(t+1) = xi(t) + r xi (xi_inf - xi)/N, no
    noise.  ``reflected_walk``: xi(t+1) = xi(t) + alpha(xi)/N +/- eta(xi)/sqrt(N)
    with equal probability, reflected into [xi_min, xi_max].
    """
    if kind == "deterministic_logistic":
        if r is None or xi_inf is None:
            raise ValidationError("deterministic_logistic needs r and xi_inf")
        alpha_fn = lambda xi: r * xi * (xi_inf - xi)
        eta_fn = lambda xi: 0.0
    elif kind == "reflected_walk":
        if alpha is None or eta is None:
            raise ValidationError("reflected_walk needs alpha and eta")
        alpha_fn, eta_fn = alpha, eta
    else:
        raise ValidationError(f"unknown environment process kind {kind!r}")

    if alpha_fn(xi_min) < 0:
        raise BoundaryConditionViolated("alpha(xi_min) must be >= 0")
    if alpha_fn(xi_max) > 0:
        raise BoundaryConditionViolated("alpha(xi_max) must be <= 0")
    if abs(eta_fn(xi_min)) > 0 or abs(eta_fn(xi_max)) > 0:
        raise BoundaryConditionViolated("eta must vanish at xi_min and xi_max")

    if kind == "deterministic_logistic":

        def step(xi, rng):
            new = xi + alpha_fn(xi) / n_pop
            return min(max(new, xi_min), xi_max)

    else:

        def step(xi, rng):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            new = xi + alpha_fn(xi) / n_pop + sign * eta_fn(xi) / np.sqrt(n_pop)
            # reflect into the box
            if new < xi_min:
                new = 2 * xi_min - new
            if new > xi_max:
                new = 2 * xi_max - new
            return min(max(new, xi_min), xi_max)

    return EnvProcess(kind=kind, xi_min=xi_min, xi_max=xi_max, n_pop=n_pop,
                      alpha=alpha_fn, eta=eta_fn, step=step)


@dataclass(frozen=True)
class FixationEstimate:
    """Monte Carlo fixation probability with its provenance."""

    p_hat: float
    std_err: float
    replicates: int
    fixed_count: int
    lost_count: int
    censored_count: int
    master_seed: int

    def to_dict(self):
        return {
            "p_hat": self.p_hat,
            "std_err": self.std_err,
            "replicates": self.replicates,
            "fixed_count": self.fixed_count,
            "lost_count": self.lost_count,
            "censored_count": self.censored_count,
            "master_seed": self.master_seed,
        }


def _run_block(regime, d, n_pop, start_count, block_size, master_seed,
               block_index, max_generations, env=None, fenv=None, xi0=1.0):
    """Simulate one replicate block to absorption; returns (fixed, lost,
    censored) counts.  Uses separate counter-based streams for the genetic and
    environment channels."""
    gen_rng = _block_rng(master_seed, block_index, _GEN_CHANNEL)
    env_rng = _block_rng(master_seed, block_index, _ENV_CHANNEL)
    k = d.k
    b = d.array
    x = np.full((block_size, k + 1), start_count, dtype=np.int64)
    active = np.ones(block_size, dtype=bool)
    fixed = lost = 0
    if regime == "slow":
        xi_now = xi0
    if regime == "fast":
        marks = np.zeros((block_size, k), dtype=np.int64)
        s_n = fenv.s_of_N(n_pop)

    for _ in range(max_generations):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        xa = x[idx].astype(float)
        if regime == "constant":
            wild = float(n_pop) - xa[:, 0]
            probs = _transition_probs(xa, b, wild, 1.0, np.ones(k))
            trials = n_pop
        elif regime == "slow":
            xi_next = env.step(xi_now, env_rng)
            trials_now = int(np.floor(xi_now * n_pop))
            trials = int(np.floor(xi_next * n_pop))
            wild = float(trials_now) - xa[:, 0]
            probs = _transition_probs(xa, b, wild, 1.0, np.ones(k))
            xi_now = xi_next
        else:  # fast
            new_mark = fenv.sample_marks(env_rng, idx.size)
            w0 = 1.0 + s_n * new_mark
            w = 1.0 + s_n * marks[idx].astype(float)
            wild = float(n_pop) - xa[:, 0]
            probs = _transition_probs(xa, b, wild, w0, w)
            trials = n_pop

        new0 = gen_rng.binomial(trials, probs)
        x[idx, 1:] = x[idx, :-1]
        x[idx, 0] = new0
        if regime == "fast":
            shifted = marks[idx]
            shifted[:, 1:] = shifted[:, :-1].copy()
            shifted[:, 0] = new_mark
            marks[idx] = shifted

        hit_fixed = x[idx, 0] == trials
        hit_lost = (x[idx] == 0).all(axis=1)
        fixed += int(hit_fixed.sum())
        lost += int(hit_lost.sum())
        active[idx] = ~(hit_fixed | hit_lost)
    censored = int(active.sum())
    return fixed, lost, censored


def run_fixation(regime, d, n_pop, start, replicates, max_generations, seed,
                 threads=1, env=None, fenv=None, xi0=1.0):
    """Monte Carlo fixation probability for one regime.

    ``start`` is the initial mutant frequency; the initial state puts every
    seed-bank generation at round(start * N) (a point on the attractor
    diagonal).  Censored replicates are excluded from p_hat and reported.
    """
    if regime not in ("constant", "slow", "fast"):
        raise ValidationError(f"unknown regime {regime!r}")
    if replicates < 100:
        raise ValidationError("replicates must be at least 100")
    if regime == "slow" and env is None:
        raise ValidationError("slow regime requires an environment process")
    if regime == "slow" and env.n_pop != n_pop:
        raise ValidationError(
            f"environment process built for N={env.n_pop}, simulation has N={n_pop}"
        )
    if regime == "fast" and fenv is None:
        raise ValidationError("fast regime requires a FastEnvSpec")
    start_count = int(round(start * n_pop))
    if not 0 <= start_count <= n_pop:
        raise ValidationError("start frequency outside [0, 1]")

    blocks = []
    remaining = replicates
    index = 0
    while remaining > 0:
        size = min(BLOCK_SIZE, remaining)
        blocks.append((index, size))
        remaining -= size
        index += 1

    def work(item):
        block_index, size = item
        return _run_block(regime, d, n_pop, start_count, size, seed, block_index,
                          max_generations, env=env, fenv=fenv, xi0=xi0)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, blocks))
    else:
        results = [work(item) for item in blocks]

    fixed = sum(r[0] for r in results)
    lost = sum(r[1] for r in results)
    censored = sum(r[2] for r in results)
    effective = replicates - censored
    p_hat = fixed / effective if effective else float("nan")
    std_err = (
        np.sqrt(p_hat * (1.0 - p_hat) / effective) if effective else float("nan")
    )
    return FixationEstimate(
        p_hat=float(p_hat),
        std_err=float(std_err),
        replicates=replicates,
        fixed_count=fixed,
        lost_count=lost,
        censored_count=censored,
        master_seed=seed,
    )
