import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seedbank import (
    FastEnvSpec,
    SlowEnvSpec,
    tail_sums,
    validate_distribution,
)
from seedbank.errors import (
    BoundaryConditionViolated,
    NegativeEntry,
    NotOnSimplex,
    ValidationError,
    ZeroB0,
)
from conftest import random_simplex


def test_mean_time_examples():
    assert validate_distribution([1.0, 0.0]).mean_time == 0.0
    assert validate_distribution([0.5, 0.5]).mean_time == 0.5
    assert validate_distribution([0.6, 0.2, 0.2]).mean_time == pytest.approx(0.6)


def test_tail_sums_examples():
    np.testing.assert_allclose(tail_sums(validate_distribution([0.5, 0.5])).tail, [0.5])
    np.testing.assert_allclose(
        tail_sums(validate_distribution([0.6, 0.2, 0.2])).tail, [0.4, 0.2]
    )
    np.testing.assert_allclose(
        tail_sums(validate_distribution([0.25, 0.25, 0.25, 0.25])).tail,
        [0.75, 0.5, 0.25],
    )


def test_validation_accepts_and_rejects():
    validate_distribution([0.5, 0.5])
    with pytest.raises(ZeroB0):
        validate_distribution([0.0, 1.0])
    with pytest.raises(NotOnSimplex):
        validate_distribution([0.7, 0.4])
    with pytest.raises(NegativeEntry):
        validate_distribution([0.9, -0.2, 0.3])
    with pytest.raises(ValidationError):
        validate_distribution([1.0])
    # a NaN or infinite entry fails a check rather than passing every one
    for bad in ([math.nan, 0.5], [0.5, math.nan], [math.nan, math.nan],
                [0.5, 0.5, math.nan], [math.inf, 0.5]):
        with pytest.raises(NotOnSimplex):
            validate_distribution(bad)
    # so does anything that is not a sequence of numbers; "10" would otherwise
    # read as (1, 0)
    for bad in ("10", "0.5", b"10", ["abc", 0.5], [None, 1.0], 0.5, [[0.5], [0.5]]):
        with pytest.raises(ValidationError):
            validate_distribution(bad)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_distribution_invariants(k, seed):
    rng = np.random.default_rng(seed)
    d = random_simplex(rng, k)
    big_b = d.mean_time
    assert 0.0 <= big_b <= k * (1.0 - d.b[0]) + 1e-12
    assert k * (1.0 - d.b[0]) <= k
    ts = tail_sums(d)
    assert abs(ts.tail[0] + d.b[0] - 1.0) <= 1e-12
    # tails are non-increasing and B_j = B - T_j
    assert np.all(np.diff(ts.tail) <= 1e-15)
    np.testing.assert_allclose(ts.b_j, big_b - ts.tail, atol=1e-15)


def test_slow_env_spec_boundaries():
    SlowEnvSpec(0.5, 2.0, alpha=lambda x: 1.0 - x, eta=lambda x: (x - 0.5) * (2.0 - x))
    with pytest.raises(BoundaryConditionViolated):
        SlowEnvSpec(0.5, 2.0, alpha=lambda x: -1.0, eta=lambda x: 0.0)
    with pytest.raises(BoundaryConditionViolated):
        SlowEnvSpec(0.5, 2.0, alpha=lambda x: 0.0, eta=lambda x: 1.0)
    with pytest.raises(ValidationError):
        SlowEnvSpec(-1.0, 2.0, alpha=lambda x: 0.0, eta=lambda x: 0.0)
    with pytest.raises(ValidationError):
        SlowEnvSpec(2.0, 0.5, alpha=lambda x: 0.0, eta=lambda x: 0.0)
    # a NaN at either end fails its check instead of passing it
    nan = float("nan")
    nan_at = lambda end, value: (lambda x: nan if x == end else value)
    for alpha, eta in ((nan_at(0.5, 0.0), lambda x: 0.0), (nan_at(2.0, 0.0), lambda x: 0.0),
                       (lambda x: 0.0, nan_at(0.5, 0.0)), (lambda x: 0.0, nan_at(2.0, 0.0))):
        with pytest.raises(BoundaryConditionViolated):
            SlowEnvSpec(0.5, 2.0, alpha=alpha, eta=eta)


def test_fast_env_spec():
    spec = FastEnvSpec(p=0.25, s=1.0)
    assert spec.s_of_N(10**4) == pytest.approx(0.01)
    assert spec.s_of_N(1) < 1.0
    with pytest.raises(ValidationError):
        FastEnvSpec(p=0.6, s=1.0)
    with pytest.raises(ValidationError):
        FastEnvSpec(p=0.1, s=0.0)
    # 0 < s < inf: an infinite or NaN selection strength is bad input
    for s in (float("inf"), float("nan"), -float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            FastEnvSpec(p=0.1, s=s)


def test_fast_env_mark_law():
    spec = FastEnvSpec(p=0.3, s=1.0)
    rng = np.random.default_rng(0)
    marks = spec.sample_marks(rng, 200_000)
    assert set(np.unique(marks)) <= {-1, 0, 1}
    p_hat_minus = np.mean(marks == -1)
    p_hat_plus = np.mean(marks == 1)
    se = np.sqrt(0.3 * 0.7 / marks.size)
    assert abs(p_hat_minus - 0.3) < 4 * se
    assert abs(p_hat_plus - 0.3) < 4 * se
