"""Exact discrete-generation simulators for the three regimes.

All regimes run one generation: the number of new mature mutants is a
binomial draw whose success probability (``_transition_probs``) weighs mutant
seeds from the last K+1 generations against the wild-type pool, followed by an
ageing shift of the seed-bank coordinates.  The regimes differ only in what
they feed it (the mature sizes floor(xi N) of generations t and t+1, or the
weights of the environment marks), so degenerate parameter choices are
bit-identical to the constant regime under the same seed.

A Monte Carlo block holds only the replicates still running.  Its environment
costs what the process needs: the deterministic logistic slow regime draws
nothing, so every replicate sees the same xi path and the block advances one
Python float (and the mature sizes as Python ints); under the reflected walk
each replicate follows its own path, one xi per row; the fast regime keeps
per row the weights of the fresh and the last K marks, looked up in the
three-entry table 1 + s_N * mark.  Its counts are one float64 (R, K+1) array,
exact because counts stay far below 2**53, aged in place every generation; the
binomial draw is the only integer array.  A row is fixed only on a draw of
all its trials and lost only on a draw of 0, so the absorption test runs only
on a generation with such a draw, and rows are dropped, order kept, only on a
generation that absorbed some of them.

Once a block is down to ``TAIL_ROWS`` live rows or fewer, as every block gets
near the end of a run, it runs its last generations (the tail) on lists of
Python numbers: the environment from the same streams (the walk's xi still an
array), each row's probability by the same operations in the same order, and
one scalar binomial draw per row in row order.  numpy runs the same binomial
routine on the same stream for scalar and array arguments, so the draws, and
every result, are bit for bit those of the array generation; the scalar calls
skip the array call's argument checks, which cost more than a few draws, and
the lists skip numpy's per-call cost on a few rows.

Monte Carlo fixation runs use counter-based RNG streams (Philox keyed by
master seed, replicate block, and channel), so results are independent of
scheduling and thread count, and the environment channel never perturbs the
genetic channel.
"""

import itertools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .core_model import SlowEnvSpec, check_positive_int, check_seed
from .errors import ValidationError

BLOCK_SIZE = 4096
# live rows at or below which a block runs its tail in Python numbers (see
# the module docstring).  Timed per generation on the same generations run
# both ways (N = 300, b = (0.5, 0.5), and N = 200 at K = 5), a tail
# generation cost 0.17-0.32 of an array one at 1 row, 0.86-0.99 at 10-11
# rows (constant, fast and K = 5; the logistic slow regime breaks even at
# 16-19), and 1.05-1.21 at 12-13
TAIL_ROWS = 10
_GEN_CHANNEL = 0
_ENV_CHANNEL = 1


def _block_rng(master_seed, block_index, channel):
    key = np.array([np.uint64(master_seed), np.uint64(2 * block_index + channel)])
    return np.random.Generator(np.random.Philox(key=key))


def _probability(b0, x0, wild, w0, dormant):
    """The success probability from a row's mature count ``x0``, its wild-type
    count ``wild`` and its weighted dormant sum: on arrays (in place) or on
    Python floats, with the same operations in the same order."""
    mature = b0 * x0
    if w0 is None:
        # w0 = 1: the products with w0 in the other branch change no bit
        num = mature + dormant
        den = wild + mature
    else:
        num = b0 * w0 * x0 + dormant
        den = (wild + mature) * w0
    den += dormant
    num /= den
    return num


def _transition_probs(x, b, trials_now, w0, bw):
    """Success probability of the next-generation binomial draw.

    ``x`` holds float counts of shape (R, K+1); ``trials_now`` is the mature
    population size of generation t (a scalar, or one per row), of which
    ``x[:, 0]`` are mutants; ``w0`` is the environment weight of generation-t
    seeds, or None where every weight is 1, and ``bw`` is ``b[1:] * w`` for
    the weights ``w`` of the dormant generations, shape (K,) when every row
    shares them (made once per block by the caller) and (R, K) when each row
    has its own.  All regimes go through this one expression so that
    degenerate parameters give bit-identical probabilities.

    In the tail of a block (see the module docstring) the same arguments come
    as Python lists and numbers: ``x`` a list of R registers, ``b`` a list,
    ``trials_now`` one per row (a list or ``itertools.repeat``), and ``w0``
    and ``bw`` one per row, or None and one shared list.  The result is then
    a list of Python floats, each bit for bit the array's: a left-to-right
    Python sum rounds each row's dormant sum as ``einsum`` does at K <= 2
    but not beyond, so at K >= 3 the sums come from one ``einsum`` over the
    rows.  (perfbench counts replicate generations by the rows this function
    is given, so the tail comes through here as well.)
    """
    if type(x) is not list:
        spec = "rk,k->r" if bw.ndim == 1 else "rk,rk->r"
        return _probability(b[0], x[:, 0], trials_now - x[:, 0], w0,
                            np.einsum(spec, x[:, 1:], bw))
    b0 = b[0]
    shared = w0 is None
    ws = itertools.repeat(None) if shared else w0
    if len(b) > 3:
        spec = "rk,k->r" if shared else "rk,rk->r"
        dormant = np.einsum(spec, np.array(x, dtype=float)[:, 1:],
                            np.array(bw)).tolist()
        return [_probability(b0, row[0], n - row[0], w, s)
                for row, n, w, s in zip(x, trials_now, ws, dormant)]
    return [_probability(b0, row[0], n - row[0], w, sum(map(operator.mul, row[1:], v)))
            for row, n, w, v in zip(x, trials_now, ws,
                                    itertools.repeat(bw) if shared else bw)]


def _age(register, fresh):
    """Shift a (R, K+1) register one generation in place, ``fresh`` in
    front.

    One move of the flat buffer: each row's oldest entry spills into the
    front of the next row, where ``fresh`` overwrites it.  Measured about
    three times as fast as the 2-D column shift at 1,024 rows.
    """
    flat = register.ravel()  # a view: every register here is C-contiguous
    flat[1:] = flat[:-1]
    register[:, 0] = fresh


def _generation(x, b, trials_now, trials_next, w0, bw, rng):
    """One generation of every row of ``x`` (float counts, shape (R, K+1)),
    in place; returns the int64 draws of new mature mutants.

    ``trials_now``/``trials_next`` are the mature population sizes of
    generations t and t+1 (scalars or shape (R,)); ``w0``/``bw`` are the
    environment weights passed to ``_transition_probs``.
    """
    new = rng.binomial(trials_next, _transition_probs(x, b, trials_now, w0, bw))
    _age(x, new)
    return new


def _mature_size(xi, n_pop):
    """Mature population size floor(xi * N) of an environment value: a Python
    int for a float ``xi`` (the same value as the array path), else int64."""
    if isinstance(xi, float):
        return math.floor(xi * n_pop)
    return np.floor(np.asarray(xi, dtype=float) * n_pop).astype(np.int64)


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
        A float ``xi`` of the deterministic process steps to a Python float,
        clamped without numpy: the same value as ``np.clip`` gives, at a
        tenth of its cost.
        """
        new = xi + self.alpha(xi) / self.n_pop
        if self.kind == "reflected_walk":
            sign = np.where(rng.random(np.shape(xi)) < 0.5, 1.0, -1.0)
            new = new + sign * self.eta(xi) / np.sqrt(self.n_pop)
            new = np.where(new < self.xi_min, 2 * self.xi_min - new, new)
            new = np.where(new > self.xi_max, 2 * self.xi_max - new, new)
        elif isinstance(new, float):
            return float(min(max(new, self.xi_min), self.xi_max))
        return np.clip(new, self.xi_min, self.xi_max)


def make_env_process(kind, xi_min, xi_max, n_pop, r=None, xi_inf=None,
                     alpha=None, eta=None):
    """Build a concrete environment process.

    ``deterministic_logistic``: xi(t+1) = xi(t) + r xi (xi_inf - xi)/N, no
    noise; ``r`` and ``xi_inf`` must be finite.  ``reflected_walk``: xi(t+1) =
    xi(t) + alpha(xi)/N +/- eta(xi)/sqrt(N) with equal probability, reflected
    into [xi_min, xi_max]; ``alpha`` and ``eta`` must accept arrays.
    """
    if kind == "deterministic_logistic":
        if r is None or xi_inf is None:
            raise ValidationError("deterministic_logistic needs r and xi_inf")
        r, xi_inf = float(r), float(xi_inf)
        if not (math.isfinite(r) and math.isfinite(xi_inf)):
            raise ValidationError(
                f"deterministic_logistic needs finite r and xi_inf, got r={r}, "
                f"xi_inf={xi_inf}")
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
        """The fields; a NaN p_hat or std_err (all censored) is None, JSON's null."""
        return {key: None if v != v else v for key, v in asdict(self).items()}


def _run_block(regime, d, n_pop, start_count, block_size, master_seed,
               block_index, max_generations, env=None, fenv=None, xi0=1.0):
    """Simulate one replicate block to absorption; returns (fixed, lost,
    censored) counts.  Uses separate counter-based streams for the genetic and
    environment channels."""
    gen_rng = _block_rng(master_seed, block_index, _GEN_CHANNEL)
    env_rng = _block_rng(master_seed, block_index, _ENV_CHANNEL)
    b = d.array
    x = np.full((block_size, d.k + 1), float(start_count))
    ones = np.ones(d.k + 1)
    trials_now = trials_next = n_pop
    # environment weights: all 1 (so b[1:] * w is b[1:]) but in the fast regime
    w0, bw = None, b[1:]
    # the environment (see the module docstring): xi and floor(xi N) in the
    # slow regime, per row only under reflected_walk; in the fast regime the
    # weights of the fresh and the last K marks per row (mark 0 before the
    # first generation).  Per-row registers are compacted together with x
    if regime == "slow":
        xi = float(xi0)
        if env.kind != "deterministic_logistic":
            xi = np.full(block_size, xi)
        trials_next = _mature_size(xi, n_pop)
    elif regime == "fast":
        weights = np.ones((block_size, d.k + 1))
        table = 1.0 + fenv.s_of_N(n_pop) * fenv.MARKS
    fixed = lost = 0
    generations = max_generations  # left to run

    while generations and x.shape[0] > TAIL_ROWS:
        generations -= 1
        if regime == "slow":
            # generation t's mature sizes are generation t-1's trials_next
            trials_now = trials_next
            xi = env.step(xi, env_rng)
            trials_next = _mature_size(xi, n_pop)
        elif regime == "fast":
            _age(weights, table.take(fenv.mark_class(env_rng.random(x.shape[0]))))
            w0, bw = weights[:, 0], b[1:] * weights[:, 1:]

        new = _generation(x, b, trials_now, trials_next, w0, bw, gen_rng)
        # a row is fixed only on a draw of all trials and lost only on a draw
        # of 0: without either no row is absorbed
        if (np.count_nonzero(new) == new.size
                and not np.count_nonzero(new == trials_next)):
            continue
        # x is already aged (x[:, 0] holds the draws): a row is lost when its
        # whole register is zero, that is when it sums to zero (an exact
        # integer sum of counts >= 0)
        hit_fixed = x[:, 0] == trials_next
        hit_lost = x @ ones == 0
        done = hit_fixed | hit_lost
        if np.count_nonzero(done):
            fixed += int(np.count_nonzero(hit_fixed))
            lost += int(np.count_nonzero(hit_lost))
            keep = ~done
            # compress, not x[keep]: measured 3x faster on 1,024 rows of K+1
            x = x.compress(keep, axis=0)
            if regime == "fast":
                weights = weights.compress(keep, axis=0)
            elif regime == "slow" and isinstance(xi, np.ndarray):
                xi, trials_next = xi.compress(keep), trials_next.compress(keep)

    # the tail (see the module docstring): the same generation on lists of
    # Python numbers, one scalar draw per row in row order.  A mature size
    # shared by every row is repeated, one per row is a list
    rows, b = x.tolist(), b.tolist()
    bw = b_rest = b[1:]
    per_row = isinstance(trials_next, np.ndarray)  # the reflected walk
    if per_row:
        trials_next = trials_next.tolist()
    else:
        trials_now = trials_next = itertools.repeat(trials_next)
    if regime == "fast":
        weights, table = weights.tolist(), table.tolist()
        low, high = fenv.cuts.tolist()
    draw = gen_rng.binomial
    for _ in range(generations):
        if not rows:
            break
        if regime == "slow":
            trials_now = trials_next
            xi = env.step(xi, env_rng)
            trials_next = _mature_size(xi, n_pop)
            trials_next = (trials_next.tolist() if per_row else
                           itertools.repeat(trials_next))
        elif regime == "fast":
            for w, u in zip(weights, env_rng.random(len(rows)).tolist()):
                # u's mark class: fenv.mark_class(u), cut at p and 2p
                w.insert(0, table[(low <= u) + (high <= u)])
                w.pop()
            w0 = [w[0] for w in weights]
            bw = [list(map(operator.mul, b_rest, w[1:])) for w in weights]

        probs = _transition_probs(rows, b, trials_now, w0, bw)
        kept = []
        for i, (row, n, q) in enumerate(zip(rows, trials_next, probs)):
            new = draw(n, q)
            if new == n:
                fixed += 1
            elif not new and not any(row[:-1]):
                lost += 1
            else:
                row.insert(0, new)
                row.pop()
                kept.append(i)
        if len(kept) < len(rows):
            rows = [rows[i] for i in kept]
            if regime == "fast":
                weights = [weights[i] for i in kept]
            elif per_row:
                xi, trials_next = xi[kept], [trials_next[i] for i in kept]
    return fixed, lost, len(rows)


def run_fixation(regime, d, n_pop, start, replicates, max_generations, seed,
                 threads=1, env=None, fenv=None, xi0=1.0):
    """Monte Carlo fixation probability for one regime.

    ``start`` is the initial mutant frequency; the initial state puts every
    seed-bank generation at round(start * N) (a point on the attractor
    diagonal).  In the slow regime every replicate starts at ``xi0``; under
    ``deterministic_logistic`` all follow the one path from there, under
    ``reflected_walk`` each its own.  ``seed`` is an integer in [0, 2**64).
    Censored replicates are excluded from p_hat and reported.
    """
    if regime not in ("constant", "slow", "fast"):
        raise ValidationError(f"unknown regime {regime!r}")
    for name, value in (("n_pop", n_pop), ("replicates", replicates),
                        ("max_generations", max_generations), ("threads", threads)):
        check_positive_int(name, value)
    if replicates < 100:
        raise ValidationError("replicates must be at least 100")
    check_seed(seed)
    if regime == "slow" and env is None:
        raise ValidationError("slow regime requires an environment process")
    if regime == "slow" and env.n_pop != n_pop:
        raise ValidationError(
            f"environment process built for N={env.n_pop}, simulation has N={n_pop}"
        )
    if regime == "fast" and fenv is None:
        raise ValidationError("fast regime requires a FastEnvSpec")
    if not 0.0 <= start <= 1.0:
        raise ValidationError(f"start frequency {start!r} outside [0, 1]")
    start_count = int(round(start * n_pop))
    if regime == "slow":
        # an empty mature population draws 0 of 0 mutants: it would count as fixed
        if _mature_size(env.xi_min, n_pop) < 1:
            raise ValidationError(f"floor(xi_min * N) is 0 at xi_min={env.xi_min}, "
                                  f"N={n_pop}: the mature population can be empty")
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
        # deferred: concurrent.futures imports logging
        from concurrent.futures import ThreadPoolExecutor

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
        master_seed=int(seed),  # a Python int, as JSON takes it
    )
