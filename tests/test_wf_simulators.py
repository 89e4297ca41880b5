import math

import numpy as np
import pytest

from seedbank import FastEnvSpec, validate_distribution
from seedbank.diffusion_limits import logistic_xi
from seedbank.errors import BoundaryConditionViolated, ValidationError
from seedbank.wf_simulators import (
    EnvProcess,
    make_env_process,
    run_fixation,
    step_constant,
    step_fast,
    step_slow,
)


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
        new = step_constant(x, d, n_pop, rng)
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
    np.testing.assert_array_equal(step_constant(zero, d, 100, rng), zero)
    full = np.array([100, 100], dtype=np.int64)
    np.testing.assert_array_equal(step_constant(full, d, 100, rng), full)


def test_step_slow_conditional_mean():
    # integer xi * N on both generations so the floor is exact
    d = validate_distribution([0.5, 0.3, 0.2])
    n_pop = 1000
    xi_now, xi_next = 0.9, 0.95
    counts = np.array([200, 150, 100], dtype=np.int64)
    rng = np.random.default_rng(11)
    reps = 10**6
    x = np.tile(counts, (reps, 1))
    new = step_slow(x, xi_now, xi_next, d, n_pop, rng)
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
    new, new_marks = step_fast(x, mark_block, fresh, d, n_pop, fenv, rng)
    delta = (new[:, 0] - x[:, 0]) / n_pop

    xf = x[0] / n_pop
    target = expected_fast_delta(d, fenv, n_pop, xf, s_n * np.asarray(marks, dtype=float))
    se = delta.std() / math.sqrt(reps)
    assert abs(delta.mean() - target) < 4 * se
    # mark register shifts like the seed bank does
    np.testing.assert_array_equal(new_marks[:, 0], fresh)
    np.testing.assert_array_equal(new_marks[:, 1:], mark_block[:, :-1])


def test_step_fast_single_state_shapes():
    d = validate_distribution([0.7, 0.3])
    fenv = FastEnvSpec(p=0.2, s=0.5)
    rng = np.random.default_rng(3)
    x = np.array([30, 40], dtype=np.int64)
    marks = np.array([1], dtype=np.int64)
    new, new_marks = step_fast(x, marks, 0, d, 100, fenv, rng)
    assert new.shape == (2,) and new_marks.shape == (1,)
    assert new_marks[0] == 0


def test_steps_keep_one_row_shape():
    d = validate_distribution([0.7, 0.3])
    fenv = FastEnvSpec(p=0.2, s=0.5)
    rng = np.random.default_rng(5)
    x = np.array([[30, 40]], dtype=np.int64)
    assert step_constant(x, d, 100, rng).shape == (1, 2)
    assert step_slow(x, 0.9, 1.0, d, 100, rng).shape == (1, 2)
    new, new_marks = step_fast(x, np.array([[1]]), np.array([-1]), d, 100, fenv, rng)
    assert new.shape == (1, 2) and new_marks.shape == (1, 1)
    assert new_marks[0, 0] == -1


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

    # not a population size, a frequency, a budget or a thread count
    base = dict(n_pop=100, start=0.3, replicates=200, max_generations=1000, seed=1)
    for bad in [{"n_pop": 10.5}, {"n_pop": 0}, {"n_pop": np.int64(-3)},
                {"start": float("nan")}, {"start": 1.5}, {"start": -0.1},
                {"max_generations": 0}, {"threads": 0}, {"replicates": 150.5}]:
        with pytest.raises(ValidationError):
            run_fixation("constant", d, **{**base, **bad})
    # numpy integers are integers
    est = run_fixation("constant", d, np.int64(100), 0.3, np.int64(200), 1000, seed=1)
    assert est == run_fixation("constant", d, 100, 0.3, 200, 1000, seed=1)

    est = run_fixation("constant", d, 100, 0.0, 200, 1000, seed=1)
    assert est.p_hat == 0.0 and est.lost_count == 200
    est = run_fixation("constant", d, 100, 1.0, 200, 1000, seed=1)
    assert est.p_hat == 1.0 and est.fixed_count == 200

    est = run_fixation("constant", d, 100, 0.3, 200, 1, seed=1)
    assert est.censored_count == 200 and math.isnan(est.p_hat)


def test_run_fixation_neutral_matches_start():
    d = validate_distribution([1.0, 0.0])
    est = run_fixation("constant", d, 100, 0.3, 20000, 10000, seed=42)
    assert est.censored_count == 0
    assert abs(est.p_hat - 0.3) < 3 * est.std_err


def test_run_fixation_deterministic_and_thread_invariant():
    d = validate_distribution([0.6, 0.4])
    kwargs = dict(n_pop=80, start=0.2, replicates=8192, max_generations=4000)
    a = run_fixation("constant", d, seed=9, threads=1, **kwargs)
    b = run_fixation("constant", d, seed=9, threads=4, **kwargs)
    c = run_fixation("constant", d, seed=9, threads=1, **kwargs)
    assert a == b == c
    other = run_fixation("constant", d, seed=10, threads=1, **kwargs)
    assert other.fixed_count != a.fixed_count or other.lost_count != a.lost_count


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


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("b", [[0.6, 0.4], DEEP_B])
def test_step_block_equals_rows_from_one_stream(b):
    # a block step is R one-row steps drawn in row order from the same stream
    d = validate_distribution(b)
    fenv = FastEnvSpec(p=0.25, s=1.0)
    n_pop, reps = 50, 40
    rng = np.random.default_rng(21)
    # at most floor(xi_now * N) mature mutants, as the slow chain requires
    x = rng.integers(0, n_pop // 2 + 1, (reps, d.k + 1))
    xi_now, xi_next = rng.uniform(0.5, 1.0, reps), rng.uniform(0.5, 1.0, reps)
    marks, fresh = rng.integers(-1, 2, (reps, d.k)), rng.integers(-1, 2, reps)

    block = step_constant(x, d, n_pop, _philox(3))
    gen = _philox(3)
    rows = [step_constant(row, d, n_pop, gen) for row in x]
    assert block.dtype == np.int64
    np.testing.assert_array_equal(block, rows)

    block = step_slow(x, xi_now, xi_next, d, n_pop, _philox(4))
    gen = _philox(4)
    rows = [step_slow(x[i], xi_now[i], xi_next[i], d, n_pop, gen) for i in range(reps)]
    assert block.dtype == np.int64
    np.testing.assert_array_equal(block, rows)

    block, block_marks = step_fast(x, marks, fresh, d, n_pop, fenv, _philox(5))
    gen = _philox(5)
    rows = [step_fast(x[i], marks[i], fresh[i], d, n_pop, fenv, gen) for i in range(reps)]
    assert block.dtype == block_marks.dtype == np.int64
    np.testing.assert_array_equal(block, [r[0] for r in rows])
    np.testing.assert_array_equal(block_marks, [r[1] for r in rows])


def test_fixation_estimate_to_dict():
    d = validate_distribution([0.5, 0.5])
    est = run_fixation("constant", d, 50, 0.2, 500, 2000, seed=3)
    out = est.to_dict()
    assert out["replicates"] == 500
    assert out["fixed_count"] + out["lost_count"] + out["censored_count"] == 500
    assert out["master_seed"] == 3
