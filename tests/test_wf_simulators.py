import concurrent.futures
import json
import math
import os

import numpy as np
import pytest

from seedbank import FastEnvSpec, validate_distribution, wf_simulators
from seedbank.diffusion_limits import logistic_xi
from seedbank.errors import BoundaryConditionViolated, ValidationError
from seedbank.wf_simulators import (
    BLOCK_SIZE,
    TAIL_ROWS,
    EnvProcess,
    _block_rng,
    _mature_size,
    _run_block,
    make_env_process,
    run_fixation,
)
from conftest import generation


DEEP_B = [0.4, 0.2, 0.15, 0.1, 0.1, 0.05]


def expected_constant_delta(d, x):
    """One-step conditional mean of the mutant frequency change (frequencies)."""
    b = d.array
    s = float(b[1:] @ x[1:])
    h = (1.0 - x[0]) + b[0] * x[0] + s
    return (1.0 - x[0]) * (s - (1.0 - b[0]) * x[0]) / h


def test_step_constant_conditional_mean():
    d = validate_distribution([0.6, 0.2, 0.2])
    n_pop = 500
    rng = np.random.default_rng(7)
    reps = 10**6
    for counts in [(150, 100, 200), (50, 400, 30), (250, 250, 250)]:
        x = np.tile(np.array(counts, dtype=np.int64), (reps, 1))
        new = generation(x, d, n_pop, n_pop, rng)
        delta = (new[:, 0] - x[:, 0]) / n_pop
        target = expected_constant_delta(d, np.array(counts) / n_pop)
        se = delta.std() / math.sqrt(reps)
        assert abs(delta.mean() - target) < 4 * se
        # ageing shift is deterministic
        np.testing.assert_array_equal(new[:, 1:], x[:, :-1])


def test_step_constant_absorbing_states():
    d = validate_distribution([0.5, 0.5])
    rng = np.random.default_rng(0)
    zero = np.zeros(2, dtype=np.int64)
    np.testing.assert_array_equal(generation(zero, d, 100, 100, rng), [zero])
    full = np.array([100, 100], dtype=np.int64)
    np.testing.assert_array_equal(generation(full, d, 100, 100, rng), [full])


def test_step_slow_conditional_mean():
    # integer xi * N on both generations so the floor is exact
    d = validate_distribution([0.5, 0.3, 0.2])
    n_pop = 1000
    xi_now, xi_next = 0.9, 0.95
    counts = np.array([200, 150, 100], dtype=np.int64)
    rng = np.random.default_rng(11)
    reps = 10**6
    x = np.tile(counts, (reps, 1))
    new = generation(x, d, _mature_size(xi_now, n_pop), _mature_size(xi_next, n_pop), rng)
    delta = (new[:, 0] - x[:, 0]) / n_pop

    b = d.array
    xf = counts / n_pop
    s_all = float(b @ xf)
    h = (xi_now - xf[0]) + s_all
    target = (xi_next - xi_now) * s_all / h + (xi_now - xf[0]) * (
        float(b[1:] @ xf[1:]) - (1.0 - b[0]) * xf[0]
    ) / h
    se = delta.std() / math.sqrt(reps)
    assert abs(delta.mean() - target) < 4 * se
    np.testing.assert_array_equal(new[:, 1:], x[:, :-1])


def expected_fast_delta(d, fenv, n_pop, x, upsilon):
    """Conditional mean increment averaged over the fresh mark (frequencies)."""
    b = d.array
    p = fenv.p
    s_n = fenv.s_of_N(n_pop)
    s_weighted = float(np.sum(b[1:] * (1.0 + upsilon) * x[1:]))
    a_front = 1.0 - (1.0 - b[0]) * x[0]
    h = a_front + s_weighted
    first = (
        2.0
        * p
        * s_n**2
        * (1.0 - x[0])
        * a_front
        * s_weighted
        / ((h**2 - s_n**2 * a_front**2) * h)
    )
    second = (1.0 - x[0]) * (s_weighted - (1.0 - b[0]) * x[0]) / h
    return first + second


@pytest.mark.parametrize(
    "b, counts, marks",
    [
        ([0.7, 0.3], (120,), (1,)),
        ([0.7, 0.3], (250,), (-1,)),
        ([0.5, 0.3, 0.2], (100, 60), (1, -1)),
    ],
)
def test_step_fast_conditional_mean(b, counts, marks):
    d = validate_distribution(b)
    fenv = FastEnvSpec(p=0.3, s=1.0)
    n_pop = 400
    s_n = fenv.s_of_N(n_pop)
    rng = np.random.default_rng(13)
    reps = 10**6
    x0_count = 160
    x = np.tile(np.array((x0_count,) + counts, dtype=np.int64), (reps, 1))
    mark_block = np.tile(np.array(marks, dtype=np.int64), (reps, 1))
    fresh = fenv.sample_marks(rng, reps)
    # the weights register holds the last K marks' weights in front; its last
    # column is aged out by the fresh mark's weight
    weights = 1.0 + s_n * np.hstack([mark_block, np.zeros((reps, 1))])
    before = weights.copy()
    new = generation(x, d, n_pop, n_pop, rng, weights, 1.0 + s_n * fresh)
    delta = (new[:, 0] - x[:, 0]) / n_pop

    xf = x[0] / n_pop
    target = expected_fast_delta(d, fenv, n_pop, xf, s_n * np.asarray(marks, dtype=float))
    se = delta.std() / math.sqrt(reps)
    assert abs(delta.mean() - target) < 4 * se
    # the weights register shifts like the seed bank does
    np.testing.assert_array_equal(weights[:, 0], 1.0 + s_n * fresh)
    np.testing.assert_array_equal(weights[:, 1:], before[:, :-1])


def test_make_env_process_validation():
    make_env_process("deterministic_logistic", 0.5, 2.0, 100, r=1.0, xi_inf=1.5)
    with pytest.raises(ValidationError):
        make_env_process("deterministic_logistic", 0.5, 2.0, 100, r=1.0)
    with pytest.raises(ValidationError):
        make_env_process("reflected_walk", 0.5, 2.0, 100, alpha=lambda x: 0.0)
    with pytest.raises(ValidationError):
        make_env_process("brownian", 0.5, 2.0, 100, r=1.0, xi_inf=1.0)
    with pytest.raises(ValidationError):
        EnvProcess(xi_min=0.5, xi_max=2.0, alpha=lambda x: 0.0, eta=lambda x: 0.0,
                   kind="reflected-walk", n_pop=100)
    # eta must vanish on the boundary, alpha must point inward
    with pytest.raises(BoundaryConditionViolated):
        make_env_process(
            "reflected_walk", 0.5, 2.0, 100, alpha=lambda x: 0.0, eta=lambda x: 0.1
        )
    with pytest.raises(BoundaryConditionViolated):
        make_env_process(
            "deterministic_logistic", 0.5, 2.0, 100, r=1.0, xi_inf=0.3
        )
    # r and xi_inf must be finite: a NaN once passed every boundary check
    for bad in ({"r": math.nan}, {"xi_inf": math.nan}, {"r": math.inf},
                {"xi_inf": math.inf}, {"r": -math.inf}):
        with pytest.raises(ValidationError, match="finite"):
            make_env_process("deterministic_logistic", 0.5, 2.0, 100,
                             **{"r": 1.0, "xi_inf": 1.5, **bad})
    # the box itself must be valid: 0 < xi_min < xi_max
    with pytest.raises(ValidationError):
        make_env_process(
            "reflected_walk", 2.0, 0.5, 100, alpha=lambda x: 0.0, eta=lambda x: 0.0
        )
    with pytest.raises(ValidationError):
        make_env_process(
            "reflected_walk", 0.0, 2.0, 100, alpha=lambda x: 0.0, eta=lambda x: 0.0
        )


def test_logistic_env_tracks_continuous_curve():
    n_pop = 2000
    r, xi_inf = 1.0, 1.5
    env = make_env_process("deterministic_logistic", 0.5, 2.0, n_pop, r=r, xi_inf=xi_inf)
    rng = np.random.default_rng(0)
    xi = 1.0
    for _ in range(n_pop):  # one unit of diffusion time
        xi = env.step(xi, rng)
    assert abs(xi - logistic_xi(r, xi_inf, 1.0)) < 5e-3


# (N, r, xi_inf, xi0) on the box [0.5, 1.5]: a path inside the box, a path
# that overshoots xi_max on its second step, one that undershoots xi_min on
# its first
_LOGISTIC_PATHS = [(300, 20.0, 0.8, 1.0), (30, 50.0, 1.5, 0.5), (30, 50.0, 0.5, 1.5)]


@pytest.mark.parametrize("n_pop, r, xi_inf, xi0", _LOGISTIC_PATHS)
def test_logistic_float_path_equals_array_path(n_pop, r, xi_inf, xi0):
    # a Monte Carlo block advances one Python float xi and int floor(xi N)
    # for the deterministic process; they must be the per-row array values
    env = make_env_process("deterministic_logistic", 0.5, 1.5, n_pop, r=r, xi_inf=xi_inf)
    rng = _philox(1)
    xi, xs = float(xi0), np.full(3, float(xi0))
    clamped = 0
    for _ in range(10**4):
        free = xi + env.alpha(xi) / n_pop
        xi, xs = env.step(xi, rng), env.step(xs, rng)
        trials, trials_rows = _mature_size(xi, n_pop), _mature_size(xs, n_pop)
        assert type(xi) is float and type(trials) is int
        assert (xs == xi).all() and (trials_rows == trials).all()
        clamped += free != xi
    # the process draws nothing
    assert rng.random() == _philox(1).random()
    if xi0 == 1.0:
        assert clamped == 0
    else:
        # the clamp engages (and holds the path at the box's edge)
        assert clamped >= 1 and xi in (0.5, 1.5)
    # numpy scalars step to a Python float too
    assert type(env.step(np.float64(xi0), rng)) is float


def test_reflected_walk_moments_and_box():
    n_pop = 1000
    eta = lambda x: 0.4 * (x - 0.5) * (2.0 - x)
    env = make_env_process(
        "reflected_walk", 0.5, 2.0, n_pop, alpha=lambda x: 0.0, eta=eta
    )
    rng = np.random.default_rng(5)
    xi0 = 1.2
    steps = np.array([env.step(xi0, rng) for _ in range(20000)])
    increments = steps - xi0
    # away from the boundary each step is exactly +/- eta/sqrt(N)
    np.testing.assert_allclose(increments**2 * n_pop, eta(xi0) ** 2, atol=1e-12)
    se = eta(xi0) / math.sqrt(n_pop * increments.size)
    assert abs(increments.mean()) < 4 * se
    # an array of environment values steps with one independent sign per entry
    many = env.step(np.full(20000, xi0), rng)
    np.testing.assert_allclose((many - xi0) ** 2 * n_pop, eta(xi0) ** 2, atol=1e-12)
    assert abs((many - xi0).mean()) < 4 * se
    # a long trajectory stays inside the box
    xi = 0.52
    for _ in range(20000):
        xi = env.step(xi, rng)
        assert 0.5 <= xi <= 2.0


def test_run_fixation_validation_and_edges():
    d = validate_distribution([0.5, 0.5])
    with pytest.raises(ValidationError):
        run_fixation("constant", d, 100, 0.3, 50, 1000, seed=1)
    with pytest.raises(ValidationError):
        run_fixation("weird", d, 100, 0.3, 200, 1000, seed=1)
    with pytest.raises(ValidationError):
        run_fixation("slow", d, 100, 0.3, 200, 1000, seed=1)
    with pytest.raises(ValidationError):
        run_fixation("fast", d, 100, 0.3, 200, 1000, seed=1)

    env = make_env_process("deterministic_logistic", 0.5, 2.0, 120, r=2.0, xi_inf=1.0)
    with pytest.raises(ValidationError):
        run_fixation("slow", d, 100, 0.3, 200, 1000, seed=1, env=env)

    # more starting mutants than the floor(xi0 * N) mature individuals
    env = make_env_process("deterministic_logistic", 0.2, 2.0, 100, r=2.0, xi_inf=1.0)
    with pytest.raises(ValidationError):
        run_fixation("slow", d, 100, 0.8, 200, 1000, seed=1, env=env, xi0=0.5)
    # xi0 outside the environment's box
    with pytest.raises(ValidationError):
        run_fixation("slow", d, 100, 0.3, 200, 1000, seed=1, env=env, xi0=5.0)

    # a box whose floor(xi_min * N) is 0: an empty mature population once read
    # as fixation (the draw 0 equals the 0 trials), 200 of 200 fixed
    env = make_env_process("deterministic_logistic", 0.1, 2.0, 8, r=20.0, xi_inf=0.11)
    with pytest.raises(ValidationError, match="xi_min"):
        run_fixation("slow", d, 8, 0.125, 200, 1000, seed=1, env=env, xi0=1.0)

    # not a population size, a frequency or a budget
    base = dict(n_pop=100, start=0.3, replicates=200, max_generations=1000, seed=1)
    for bad in [{"n_pop": 10.5}, {"n_pop": 0}, {"n_pop": np.int64(-3)},
                {"start": float("nan")}, {"start": 1.5}, {"start": -0.1},
                {"max_generations": 0}, {"replicates": 150.5}]:
        with pytest.raises(ValidationError):
            run_fixation("constant", d, **{**base, **bad})
    # numpy integers are integers
    est = run_fixation("constant", d, np.int64(100), 0.3, np.int64(200), 1000, seed=1)
    assert est == run_fixation("constant", d, 100, 0.3, 200, 1000, seed=1)

    # the master seed is an integer in [0, 2**64): below or above that range
    # it once raised OverflowError, and 1.5 once ran as seed 1
    for seed in (-1, 2**64, 1.5, np.float64(1.0), True, "1", None):
        with pytest.raises(ValidationError, match="seed"):
            run_fixation("constant", d, 100, 0.3, 200, 1000, seed=seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert run_fixation("constant", d, 100, 0.3, 200, 1000, seed=seed).master_seed == seed

    est = run_fixation("constant", d, 100, 0.0, 200, 1000, seed=1)
    assert est.p_hat == 0.0 and est.lost_count == 200
    est = run_fixation("constant", d, 100, 1.0, 200, 1000, seed=1)
    assert est.p_hat == 1.0 and est.fixed_count == 200

    est = run_fixation("constant", d, 100, 0.3, 200, 1, seed=1)
    assert est.censored_count == 200 and math.isnan(est.p_hat)


def test_fixation_estimate_numpy_seed_is_json_safe():
    # a numpy-integer seed runs the draws of the equal Python int, and the
    # estimate stores that int, so to_dict() passes through json.dumps
    d = validate_distribution([0.5, 0.5])
    for seed in (np.uint64(5), np.int64(7)):
        est = run_fixation("constant", d, 50, 0.2, 200, 1000, seed=seed)
        want = run_fixation("constant", d, 50, 0.2, 200, 1000, seed=int(seed)).to_dict()
        assert est.to_dict() == want
        assert type(est.master_seed) is int
        assert json.loads(json.dumps(est.to_dict())) == want


def test_run_fixation_neutral_matches_start():
    d = validate_distribution([1.0, 0.0])
    est = run_fixation("constant", d, 100, 0.3, 20000, 10000, seed=42)
    assert est.censored_count == 0
    assert abs(est.p_hat - 0.3) < 3 * est.std_err


def test_run_fixation_deterministic_and_thread_invariant(monkeypatch):
    # three blocks, each on its own streams, run on min(blocks, usable CPUs)
    # threads: the CPUs of the affinity, else os.cpu_count(), else one; the
    # counts are the same on every pool size
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    d = validate_distribution([0.6, 0.4])
    kwargs = dict(n_pop=80, start=0.2, replicates=2 * BLOCK_SIZE + 100,
                  max_generations=4000)
    runs = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        runs.append(run_fixation("constant", d, seed=9, **kwargs))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus in (2, None):
        monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
        runs.append(run_fixation("constant", d, seed=9, **kwargs))
    assert pools == [2, 3, 2]
    assert all(est == runs[0] for est in runs)
    other = run_fixation("constant", d, seed=10, **kwargs)
    assert other.fixed_count != runs[0].fixed_count or other.lost_count != runs[0].lost_count


def test_run_fixation_one_block_builds_no_pool(monkeypatch):
    # one block needs one worker, however many CPUs are usable
    def no_pool(*args, **kwargs):
        raise AssertionError("thread pool built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    d = validate_distribution([0.6, 0.4])
    est = run_fixation("constant", d, 80, 0.2, BLOCK_SIZE, 4000, seed=9)
    assert est.fixed_count + est.lost_count + est.censored_count == BLOCK_SIZE


def test_degenerate_regimes_bit_identical_to_constant():
    d = validate_distribution([0.6, 0.25, 0.15])
    kwargs = dict(n_pop=120, start=0.25, replicates=2000, max_generations=5000)
    base = run_fixation("constant", d, seed=17, **kwargs)

    env = make_env_process("deterministic_logistic", 0.5, 2.0, 120, r=2.0, xi_inf=1.0)
    slow = run_fixation("slow", d, seed=17, env=env, xi0=1.0, **kwargs)
    assert slow.fixed_count == base.fixed_count
    assert slow.lost_count == base.lost_count

    fenv = FastEnvSpec(p=0.0, s=1.0)
    fast = run_fixation("fast", d, seed=17, fenv=fenv, **kwargs)
    assert fast.fixed_count == base.fixed_count
    assert fast.lost_count == base.lost_count


def test_reflected_walk_std_err_matches_seed_spread():
    # Every replicate follows its own environment path, so the replicates of
    # one run are independent and the binomial std_err describes the spread
    # of p_hat across master seeds.  With 20 seeds the sample sd estimates
    # the true sd with a relative error of about 1/sqrt(2 * 19) = 0.16; if
    # std_err is honest the ratio lies in [0.6, 1.5] with probability above
    # 99% (chi-square with 19 degrees of freedom).  When the replicates of a
    # block share one path, the ratio is about 2.6 for this environment.
    d = validate_distribution([0.5, 0.5])
    n_pop = 40
    env = make_env_process(
        "reflected_walk", 0.5, 2.0, n_pop,
        alpha=lambda x: 0.0 * x, eta=lambda x: (x - 0.5) * (2.0 - x),
    )
    estimates = [
        run_fixation("slow", d, n_pop, 0.3, 2048, 10**5, seed=seed, env=env, xi0=1.0)
        for seed in range(1, 21)
    ]
    assert all(est.censored_count == 0 for est in estimates)
    p_hat = np.array([est.p_hat for est in estimates])
    std_err = np.array([est.std_err for est in estimates])
    assert 0.6 <= p_hat.std(ddof=1) / std_err.mean() <= 1.5


@pytest.mark.parametrize(
    "regime, extra, counts",
    [
        ("constant", {}, (688, 2805, 1507)),
        ("fast", {"fenv": FastEnvSpec(p=0.25, s=1.0)}, (862, 2576, 1562)),
        (
            "slow",
            {
                "env": make_env_process(
                    "deterministic_logistic", 0.5, 2.0, 60, r=2.0, xi_inf=0.8
                ),
                "xi0": 1.0,
            },
            (932, 2926, 1142),
        ),
        # deep banks: the dormant sum runs over K = 5 (or 3) terms per row
        ("constant", {"b": DEEP_B}, (496, 1677, 2827)),
        ("fast", {"b": DEEP_B, "fenv": FastEnvSpec(p=0.25, s=1.0)}, (641, 1475, 2884)),
        (
            "slow",
            {
                "b": [0.5, 0.2, 0.2, 0.1],
                "env": make_env_process(
                    "reflected_walk", 0.5, 2.0, 60, alpha=lambda x: 1.0 - x,
                    eta=lambda x: 0.5 * (x - 0.5) * (2.0 - x),
                ),
                "xi0": 1.0,
            },
            (701, 2513, 1786),
        ),
    ],
)
def test_run_fixation_pinned_counts(regime, extra, counts):
    # exact (fixed, lost, censored) over two replicate blocks: any change to
    # the draw order or to the per-generation update shows up here
    extra = dict(extra)
    d = validate_distribution(extra.pop("b", [0.5, 0.3, 0.2]))
    est = run_fixation(regime, d, 60, 0.2, 5000, 150, seed=5, **extra)
    assert (est.fixed_count, est.lost_count, est.censored_count) == counts


_TAIL_FENV = FastEnvSpec(p=0.25, s=1.0)


@pytest.mark.parametrize(
    "regime, b, extra, max_generations, counts",
    [
        ("constant", [0.6, 0.4], {}, 10**6, (54, 146, 0)),
        ("constant", DEEP_B, {}, 10**6, (74, 126, 0)),
        ("constant", DEEP_B, {}, 400, (60, 113, 27)),
        (
            "slow",
            [0.5, 0.3, 0.2],
            {
                "env": make_env_process(
                    "deterministic_logistic", 0.5, 2.0, 60, r=2.0, xi_inf=0.8
                ),
                "xi0": 1.0,
            },
            10**6,
            (58, 142, 0),
        ),
        (
            "slow",
            [0.5, 0.2, 0.2, 0.1],
            {
                "env": make_env_process(
                    "reflected_walk", 0.5, 2.0, 60, alpha=lambda x: 1.0 - x,
                    eta=lambda x: 0.5 * (x - 0.5) * (2.0 - x),
                ),
                "xi0": 1.0,
            },
            10**6,
            (72, 128, 0),
        ),
        ("fast", [0.5, 0.3, 0.2], {"fenv": _TAIL_FENV}, 10**6, (71, 129, 0)),
        ("fast", DEEP_B, {"fenv": _TAIL_FENV}, 10**6, (79, 121, 0)),
    ],
    ids=["constant-K1", "constant-K5", "constant-K5-censored", "slow-logistic",
         "slow-reflected-walk", "fast-K2", "fast-K5"],
)
def test_run_fixation_pinned_tail_counts(regime, b, extra, max_generations, counts):
    # 200 replicates run (nearly) to absorption, so most generations have only
    # a handful of live rows: pins the draws of the small-block path
    est = run_fixation(regime, validate_distribution(b), 60, 0.2, 200,
                       max_generations, seed=11, **extra)
    assert (est.fixed_count, est.lost_count, est.censored_count) == counts


@pytest.mark.parametrize(
    "regime, extra, replicates, counts",
    [
        ("slow", {"env": make_env_process("deterministic_logistic", 0.5, 1.5, 30,
                                          r=50.0, xi_inf=1.5), "xi0": 0.5},
         5000, (2049, 2951, 0)),
        ("slow", {"env": make_env_process("deterministic_logistic", 0.5, 1.5, 30,
                                          r=50.0, xi_inf=1.5), "xi0": 0.5},
         200, (70, 130, 0)),
        ("fast", {"fenv": FastEnvSpec(p=0.0, s=1.0)}, 5000, (1393, 3607, 0)),
        ("fast", {"fenv": FastEnvSpec(p=0.0, s=1.0)}, 200, (51, 149, 0)),
        ("fast", {"fenv": FastEnvSpec(p=0.5, s=1.0)}, 5000, (2019, 2981, 0)),
        ("fast", {"fenv": FastEnvSpec(p=0.5, s=1.0)}, 200, (74, 126, 0)),
    ],
    ids=["slow-clamped", "slow-clamped-tail", "fast-p0", "fast-p0-tail", "fast-p0.5",
         "fast-p0.5-tail"],
)
def test_run_fixation_pinned_environment_edges(regime, extra, replicates, counts):
    # at N=30 the logistic path is clamped at xi_max on its second step; the
    # fast regime at the ends of its mark law (no marks, or no mark 0)
    est = run_fixation(regime, validate_distribution([0.5, 0.3, 0.2]), 30, 0.2,
                       replicates, 10**6, seed=5, **extra)
    assert (est.fixed_count, est.lost_count, est.censored_count) == counts


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5])
def test_mark_classes_and_weight_table_match_the_mark_law(p):
    # the Monte Carlo block looks its weights up in 1 + s_N * MARKS by
    # mark_class; sample_marks draws MARKS by the same classes.  Both must be
    # the two-threshold law on the same uniforms, and the weights its products
    fenv = FastEnvSpec(p=p, s=1.0)
    s_n = fenv.s_of_N(30)
    edges = [0.0, p, 2 * p, np.nextafter(p, 0), np.nextafter(p, 1),
             np.nextafter(2 * p, 0), np.nextafter(2 * p, 1), np.nextafter(1.0, 0)]
    u = np.concatenate([edges, _philox(2).random(10**5)])
    law = np.where(u < p, -1, np.where(u < 2 * p, 1, 0))
    np.testing.assert_array_equal(fenv.MARKS[fenv.mark_class(u)], law)
    np.testing.assert_array_equal(
        (1.0 + s_n * fenv.MARKS).take(fenv.mark_class(u)), 1.0 + s_n * law)
    marks = fenv.sample_marks(_philox(2), 10**5)
    assert marks.dtype == np.int64
    np.testing.assert_array_equal(marks, law[len(edges):])


def test_scalar_and_array_binomial_draws_agree():
    # the tail of a block draws row by row with scalar arguments; numpy runs
    # the same routine on the same stream for scalar and array arguments
    p = np.array([0.0, 1.0, 1e-300, 0.3, 0.5, 0.5000001, 0.97, 1.0 - 1e-16, 0.0, 1.0])
    n_rows = np.array([0, 7, 60, 60, 3, 1000, 60, 5, 9, 200], dtype=np.int64)
    for n in (60, n_rows):
        array_draws = _philox(8).binomial(n, p)
        gen = _philox(8)
        scalar_draws = [gen.binomial(m, q)
                        for m, q in zip(np.broadcast_to(n, p.shape).tolist(), p.tolist())]
        np.testing.assert_array_equal(array_draws, scalar_draws)


@pytest.mark.parametrize("b", [[0.6, 0.4], DEEP_B])
def test_step_block_equals_rows_from_one_stream(b):
    # a block generation is R one-row generations drawn in row order from the
    # same stream, in each regime's setup of the kernel
    d = validate_distribution(b)
    n_pop, reps = 50, 40
    s_n = FastEnvSpec(p=0.25, s=1.0).s_of_N(n_pop)
    rng = np.random.default_rng(21)
    # at most floor(xi_now * N) mature mutants, as the slow chain requires
    x = rng.integers(0, n_pop // 2 + 1, (reps, d.k + 1))
    xi_now, xi_next = rng.uniform(0.5, 1.0, reps), rng.uniform(0.5, 1.0, reps)
    weights = 1.0 + s_n * rng.integers(-1, 2, (reps, d.k + 1))
    fresh = 1.0 + s_n * rng.integers(-1, 2, reps)

    block = generation(x, d, n_pop, n_pop, _philox(3))
    gen = _philox(3)
    rows = [generation(row, d, n_pop, n_pop, gen)[0] for row in x]
    np.testing.assert_array_equal(block, rows)

    block = generation(x, d, _mature_size(xi_now, n_pop), _mature_size(xi_next, n_pop),
                       _philox(4))
    gen = _philox(4)
    rows = [generation(x[i], d, _mature_size(xi_now[i], n_pop),
                       _mature_size(xi_next[i], n_pop), gen)[0] for i in range(reps)]
    np.testing.assert_array_equal(block, rows)

    block_weights = weights.copy()
    block = generation(x, d, n_pop, n_pop, _philox(5), block_weights, fresh)
    gen = _philox(5)
    rows = [generation(x[i], d, n_pop, n_pop, gen, weights[i:i + 1], fresh[i:i + 1])[0]
            for i in range(reps)]
    np.testing.assert_array_equal(block, rows)
    # each row's register is aged as the block's rows are
    np.testing.assert_array_equal(weights, block_weights)


def loop_run_block(regime, d, n_pop, start_count, block_size, seed, block_index,
                   max_generations, env=None, fenv=None, xi0=1.0):
    """One replicate block with every generation on arrays of the live rows
    (the reference for the Python-number tail).  Returns the (fixed, lost,
    censored) counts and, per generation, the registers and the success
    probabilities of the draws."""
    gen_rng = _block_rng(seed, block_index, 0)  # the genetic channel
    env_rng = _block_rng(seed, block_index, 1)  # the environment channel
    b = d.array
    x = np.full((block_size, d.k + 1), float(start_count))
    trials_next = np.full(block_size, n_pop)
    xi = np.full(block_size, float(xi0))
    weights = np.ones((block_size, d.k + 1))
    seen = []
    fixed = lost = 0
    for _ in range(max_generations):
        if not len(x):
            break
        trials_now = trials_next
        if regime == "slow":
            xi = env.step(xi, env_rng)
            trials_next = np.floor(xi * n_pop).astype(np.int64)
        elif regime == "fast":
            fresh = 1.0 + fenv.s_of_N(n_pop) * fenv.sample_marks(env_rng, len(x))
            weights = np.hstack([fresh[:, None], weights[:, :-1]])
        x0, wild = x[:, 0], trials_now - x[:, 0]
        if regime == "fast":
            w0 = weights[:, 0]
            dormant = np.einsum("rk,rk->r", x[:, 1:], b[1:] * weights[:, 1:])
            p = (b[0] * w0 * x0 + dormant) / ((wild + b[0] * x0) * w0 + dormant)
        else:
            dormant = np.einsum("rk,k->r", x[:, 1:], b[1:])
            p = (b[0] * x0 + dormant) / (wild + b[0] * x0 + dormant)
        seen.append((x.tolist(), p.tolist()))
        new = gen_rng.binomial(trials_next, p)
        x = np.hstack([new[:, None].astype(float), x[:, :-1]])
        hit_fixed, hit_lost = new == trials_next, ~x.any(axis=1)
        fixed += int(hit_fixed.sum())
        lost += int(hit_lost.sum())
        keep = ~(hit_fixed | hit_lost)
        x, weights, xi, trials_next = x[keep], weights[keep], xi[keep], trials_next[keep]
    return (fixed, lost, len(x)), seen


def recorded_run_block(monkeypatch, *args, **kwargs):
    """``_run_block``'s counts and, per generation, the registers and the
    success probabilities that ``_transition_probs`` saw and gave."""
    seen = []
    probs = wf_simulators._transition_probs

    def recording(x, *rest):
        p = probs(x, *rest)
        seen.append((np.array(x).tolist(), np.asarray(p).tolist()))
        return p

    with monkeypatch.context() as patch:
        patch.setattr(wf_simulators, "_transition_probs", recording)
        return _run_block(*args, **kwargs), seen


_TAIL_ENVS = {
    "constant": {},
    "slow-logistic": {"env": make_env_process("deterministic_logistic", 0.5, 2.0, 30,
                                              r=2.0, xi_inf=0.8)},
    "slow-reflected-walk": {"env": make_env_process(
        "reflected_walk", 0.5, 2.0, 30, alpha=lambda x: 1.0 - x,
        eta=lambda x: 0.5 * (x - 0.5) * (2.0 - x))},
    "fast": {"fenv": FastEnvSpec(p=0.25, s=1.0)},
}
_TAIL_BANKS = {1: [0.6, 0.4], 2: [0.5, 0.3, 0.2], 3: [0.5, 0.2, 0.2, 0.1], 5: DEEP_B}


def runs_match_array_loop(monkeypatch, name, k):
    """``_run_block`` against ``loop_run_block`` from below, at and above
    ``TAIL_ROWS``, run to absorption and censored, over two seeds: asserts
    that every run's counts, registers and probabilities are equal and
    returns the runs."""
    d = validate_distribution(_TAIL_BANKS[k])
    regime = name.split("-")[0]
    extra = dict(_TAIL_ENVS[name], xi0=1.0)
    runs = []
    for seed in (1, 2):
        for rows in (1, TAIL_ROWS, TAIL_ROWS + 1, 200):
            for max_generations in (10**6, 25):
                args = (regime, d, 30, 6, rows, seed, 3, max_generations)
                got = recorded_run_block(monkeypatch, *args, **extra)
                assert got == loop_run_block(*args, **extra)
                runs.append(got)
    return runs


@pytest.mark.parametrize("k", list(_TAIL_BANKS))
@pytest.mark.parametrize("name", list(_TAIL_ENVS))
def test_run_fixation_tail_matches_array_loop(monkeypatch, name, k):
    # once TAIL_ROWS or fewer rows are live a block steps them as Python
    # numbers: every register and probability, and so the counts, bit for bit
    # those of the array loop, from below, at and above the threshold,
    # absorbed or censored (also inside the tail), over two seeds
    counts = [got[0] for got in runs_match_array_loop(monkeypatch, name, k)]
    # some runs end censored inside the tail, and some absorb every row
    assert any(0 < censored <= TAIL_ROWS for _, _, censored in counts)
    assert any(censored == 0 for _, _, censored in counts)


@pytest.mark.parametrize("chunk", [3, 7])
@pytest.mark.parametrize("k", list(_TAIL_BANKS))
def test_fast_weight_stream_refills_inside_generations(monkeypatch, k, chunk):
    # the fast regime draws its environment uniforms ENV_CHUNK at a time and
    # hands each generation its next weights; loop_run_block draws them per
    # generation.  With a few uniforms per chunk, refills fall inside the
    # draws of array and tail generations alike, and every register and
    # probability must still be the loop's
    monkeypatch.setattr(wf_simulators, "ENV_CHUNK", chunk)
    split = {"array": False, "tail": False}
    for _, seen in runs_match_array_loop(monkeypatch, "fast", k):
        drawn = 0  # weights handed out before each generation
        for registers, _ in seen:
            rows = len(registers)
            if drawn % chunk + rows > chunk:
                split["tail" if rows <= TAIL_ROWS else "array"] = True
            drawn += rows
    assert split == {"array": True, "tail": True}


def test_fixation_estimate_to_dict():
    d = validate_distribution([0.5, 0.5])
    est = run_fixation("constant", d, 50, 0.2, 500, 2000, seed=3)
    out = est.to_dict()
    assert out["replicates"] == 500
    assert out["fixed_count"] + out["lost_count"] + out["censored_count"] == 500
    assert out["master_seed"] == 3
