"""Exact discrete-generation simulators for the three regimes.

All regimes run one generation kernel, ``_generation``: the number of new
mature mutants is a binomial draw whose success probability weighs mutant
seeds from the last K+1 generations against the wild-type pool, followed by an
ageing shift of the seed-bank coordinates.  The regimes differ only in what
they feed it (the mature sizes floor(xi N) of generations t and t+1, or the
weights of the environment marks), so degenerate parameter choices are
bit-identical to the constant regime under the same seed.

A Monte Carlo block holds only the replicates still running, each with its own
environment register (xi in the slow regime, the last K marks in the fast
regime); absorbed rows are dropped after each generation, order kept.

Monte Carlo fixation runs use counter-based RNG streams (Philox keyed by
master seed, replicate block, and channel), so results are independent of
scheduling and thread count, and the environment channel never perturbs the
genetic channel.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core_model import SlowEnvSpec
from .errors import ValidationError

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


def _age(register, fresh):
    """Shift a (R, K+1) or (R, K) register by one generation, ``fresh`` in front."""
    new = np.empty_like(register)
    new[:, 0] = fresh
    new[:, 1:] = register[:, :-1]
    return new


def _generation(x, b, trials_now, trials_next, w0, w, rng):
    """One generation of every row of ``x`` (shape (R, K+1), integer counts).

    ``trials_now``/``trials_next`` are the mature population sizes of
    generations t and t+1 (scalars or shape (R,)); ``w0``/``w`` are the
    environment weights passed to ``_transition_probs``.
    """
    probs = _transition_probs(x.astype(float), b, (trials_now - x[:, 0]).astype(float),
                              w0, w)
    return _age(x, rng.binomial(trials_next, probs))


def _mature_size(xi, n_pop):
    """Mature population size floor(xi * N) of an environment value (or array)."""
    return np.floor(np.asarray(xi, dtype=float) * n_pop).astype(np.int64)


def step_constant(x, d, n_pop, rng):
    """One generation of the constant-environment chain.

    ``x`` is an integer array of shape (K+1,) or (R, K+1); returns the same
    shape.
    """
    x = np.asarray(x, dtype=np.int64)
    new = _generation(np.atleast_2d(x), d.array, n_pop, n_pop, 1.0, np.ones(d.k), rng)
    return new.reshape(x.shape)


def step_slow(x, xi_now, xi_next, d, n_pop, rng):
    """One generation of the slowly varying population-size chain.

    ``xi_now``/``xi_next`` are the environment values at generations t and
    t+1; the mature population sizes are floor(xi * N).  Returns the shape of
    ``x``, as ``step_constant`` does.
    """
    x = np.asarray(x, dtype=np.int64)
    new = _generation(np.atleast_2d(x), d.array, _mature_size(xi_now, n_pop),
                      _mature_size(xi_next, n_pop), 1.0, np.ones(d.k), rng)
    return new.reshape(x.shape)


def step_fast(x, marks, new_mark, d, n_pop, fenv, rng):
    """One generation of the fast-environment chain.

    ``marks`` holds the last K environment marks (shape (R, K) or (K,)),
    ``new_mark`` the freshly drawn mark of generation t+1.  Returns
    (new_x, new_marks), shaped (K+1,), (K,) when ``x`` is one state of shape
    (K+1,) and (R, K+1), (R, K) when it has shape (R, K+1).
    """
    x = np.asarray(x, dtype=np.int64)
    marks2 = np.atleast_2d(np.asarray(marks))
    new_mark = np.atleast_1d(np.asarray(new_mark))
    s_n = fenv.s_of_N(n_pop)
    new = _generation(np.atleast_2d(x), d.array, n_pop, n_pop, 1.0 + s_n * new_mark,
                      1.0 + s_n * marks2.astype(float), rng)
    new_marks = _age(marks2, new_mark)
    if x.ndim == 1:
        return new[0], new_marks[0]
    return new, new_marks


@dataclass(frozen=True)
class EnvProcess(SlowEnvSpec):
    """Discrete environment process for the slow regime.

    A ``SlowEnvSpec`` (whose checks validate the box and the boundary
    conditions) together with the population size N it is scaled for.
    ``step(xi, rng)`` advances one generation; ``xi`` may be an array holding
    one environment value per replicate.  The moment orders match the
    diffusion assumptions by construction.
    """

    kind: str
    n_pop: int

    def __post_init__(self):
        if self.kind not in ("deterministic_logistic", "reflected_walk"):
            raise ValidationError(f"unknown environment process kind {self.kind!r}")
        super().__post_init__()

    def step(self, xi, rng):
        """Next environment value of each entry of ``xi``.

        ``deterministic_logistic`` adds alpha(xi)/N and draws nothing;
        ``reflected_walk`` also adds +/- eta(xi)/sqrt(N), one independent
        fair sign per entry, and reflects the result into [xi_min, xi_max].
        """
        new = xi + self.alpha(xi) / self.n_pop
        if self.kind == "reflected_walk":
            sign = np.where(rng.random(np.shape(xi)) < 0.5, 1.0, -1.0)
            new = new + sign * self.eta(xi) / np.sqrt(self.n_pop)
            new = np.where(new < self.xi_min, 2 * self.xi_min - new, new)
            new = np.where(new > self.xi_max, 2 * self.xi_max - new, new)
        return np.clip(new, self.xi_min, self.xi_max)


def make_env_process(kind, xi_min, xi_max, n_pop, r=None, xi_inf=None,
                     alpha=None, eta=None):
    """Build a concrete environment process.

    ``deterministic_logistic``: xi(t+1) = xi(t) + r xi (xi_inf - xi)/N, no
    noise.  ``reflected_walk``: xi(t+1) = xi(t) + alpha(xi)/N +/- eta(xi)/sqrt(N)
    with equal probability, reflected into [xi_min, xi_max]; ``alpha`` and
    ``eta`` must accept arrays.
    """
    if kind == "deterministic_logistic":
        if r is None or xi_inf is None:
            raise ValidationError("deterministic_logistic needs r and xi_inf")
        alpha = lambda xi: r * xi * (xi_inf - xi)
        eta = lambda xi: 0.0
    elif kind == "reflected_walk" and (alpha is None or eta is None):
        raise ValidationError("reflected_walk needs alpha and eta")
    return EnvProcess(xi_min=xi_min, xi_max=xi_max, alpha=alpha, eta=eta, kind=kind,
                      n_pop=n_pop)


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
    b = d.array
    x = np.full((block_size, d.k + 1), start_count, dtype=np.int64)
    trials_now = trials_next = n_pop
    w0, w = 1.0, np.ones(d.k)
    # one environment register per replicate, compacted together with x:
    # xi in the slow regime, the last K marks in the fast regime
    if regime == "slow":
        env_state = np.full(block_size, float(xi0))
    elif regime == "fast":
        env_state = np.zeros((block_size, d.k), dtype=np.int64)
        s_n = fenv.s_of_N(n_pop)
    else:
        env_state = np.empty((block_size, 0))
    fixed = lost = 0

    for _ in range(max_generations):
        if x.shape[0] == 0:
            break
        if regime == "slow":
            xi_next = env.step(env_state, env_rng)
            trials_now = _mature_size(env_state, n_pop)
            trials_next = _mature_size(xi_next, n_pop)
            env_state = xi_next
        elif regime == "fast":
            new_mark = fenv.sample_marks(env_rng, x.shape[0])
            w0 = 1.0 + s_n * new_mark
            w = 1.0 + s_n * env_state.astype(float)
            env_state = _age(env_state, new_mark)

        x = _generation(x, b, trials_now, trials_next, w0, w, gen_rng)
        hit_fixed = x[:, 0] == trials_next
        hit_lost = (x == 0).all(axis=1)
        fixed += int(hit_fixed.sum())
        lost += int(hit_lost.sum())
        keep = ~(hit_fixed | hit_lost)
        x, env_state = x[keep], env_state[keep]
    return fixed, lost, x.shape[0]


def run_fixation(regime, d, n_pop, start, replicates, max_generations, seed,
                 threads=1, env=None, fenv=None, xi0=1.0):
    """Monte Carlo fixation probability for one regime.

    ``start`` is the initial mutant frequency; the initial state puts every
    seed-bank generation at round(start * N) (a point on the attractor
    diagonal).  In the slow regime every replicate starts at ``xi0`` and
    follows its own environment path.  Censored replicates are excluded from
    p_hat and reported.
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
    if regime == "slow":
        if not env.xi_min <= xi0 <= env.xi_max:
            raise ValidationError(f"xi0={xi0} outside [{env.xi_min}, {env.xi_max}]")
        if start_count > _mature_size(xi0, n_pop):
            raise ValidationError(
                f"{start_count} starting mutants exceed the floor(xi0 * N) mature "
                "individuals of generation 0"
            )

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
