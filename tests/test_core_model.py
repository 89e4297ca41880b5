import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seedbank import (
    Banks,
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
    # a stack's tails are its rows' tails, not the tails of its flat entries
    np.testing.assert_array_equal(tail_sums(Banks([[0.5, 0.3, 0.2], [0.6, 0.1, 0.3]])),
                                  [[0.5, 0.2], [0.4, 0.3]])
    np.testing.assert_allclose(tail_sums(validate_distribution([0.5, 0.5])), [0.5])
    np.testing.assert_allclose(
        tail_sums(validate_distribution([0.6, 0.2, 0.2])), [0.4, 0.2]
    )
    np.testing.assert_allclose(
        tail_sums(validate_distribution([0.25, 0.25, 0.25, 0.25])),
        [0.75, 0.5, 0.25],
    )


# each bad bank, the error it raises and its exact message; a NaN or infinite
# entry fails a check rather than passing every one
BAD_BANKS = [
    ([0.0, 1.0], ZeroB0, "b0 must be strictly positive"),
    ([0.7, 0.4], NotOnSimplex, "sum(b) = 1.1 differs from 1 beyond 1e-12"),
    ([0.9, -0.2, 0.3], NegativeEntry, "negative probability -0.2 in b=(0.9, -0.2, 0.3)"),
    ([1.0], ValidationError, "need at least (b0, b1); use b=(1, 0) for no dormancy"),
    ([math.nan, 0.5], NotOnSimplex, "entry nan is not a probability in b=(nan, 0.5)"),
    ([0.5, math.nan], NotOnSimplex, "entry nan is not a probability in b=(0.5, nan)"),
    ([math.nan, math.nan], NotOnSimplex, "entry nan is not a probability in b=(nan, nan)"),
    ([0.5, 0.5, math.nan], NotOnSimplex,
     "entry nan is not a probability in b=(0.5, 0.5, nan)"),
    ([math.inf, 0.5], NotOnSimplex, "entry inf is not a probability in b=(inf, 0.5)"),
    # Python's sum starts at 0, so a sum of -0.0 reads 0.0
    ([-0.0, -0.0], NotOnSimplex, "sum(b) = 0.0 differs from 1 beyond 1e-12"),
    # the first bad entry decides, in the order of the row
    ([0.6, 0.6, -0.2], NegativeEntry, "negative probability -0.2 in b=(0.6, 0.6, -0.2)"),
    ([-math.inf, math.inf], NegativeEntry, "negative probability -inf in b=(-inf, inf)"),
]


def test_validation_accepts_and_rejects():
    validate_distribution([0.5, 0.5])
    for bad, error, message in BAD_BANKS:
        with pytest.raises(ValidationError) as caught:
            validate_distribution(bad)
        assert type(caught.value) is error and str(caught.value) == message
    # so does anything that is not a sequence of numbers; "10" would otherwise
    # read as (1, 0)
    for bad in ("10", "0.5", b"10", ["abc", 0.5], [None, 1.0], 0.5, [[0.5], [0.5]]):
        with pytest.raises(ValidationError, match="b must be a sequence of numbers"):
            validate_distribution(bad)
    # a stack raises the error of its first bad row, wherever that row is
    good = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]
    for bad, error, message in BAD_BANKS:
        if len(bad) != 3:
            continue
        for rows in ([bad, *good], [*good, bad], [good[0], bad, good[1], BAD_BANKS[2][0]]):
            with pytest.raises(ValidationError) as caught:
                Banks(rows)
            assert type(caught.value) is error and str(caught.value) == message
    with pytest.raises(ValidationError) as caught:
        Banks([[0.5, 0.5], [0.7, 0.4], [0.0, 1.0]])
    assert str(caught.value) == "sum(b) = 1.1 differs from 1 beyond 1e-12"
    with pytest.raises(ValidationError) as caught:
        Banks([[1.0], [1.0]])
    assert str(caught.value) == "need at least (b0, b1); use b=(1, 0) for no dormancy"
    # a stack is a non-empty 2-D array of numbers: no None, strings, ragged rows
    for bad in ([[None, 1.0]], "10", [[0.5, 0.5], [1.0]], [0.5, 0.5], np.empty((0, 2)),
                [["0.5", "0.5"]], [[0.5, 0.5j]]):
        with pytest.raises(ValidationError, match="banks must be a non-empty 2-D array"):
            Banks(bad)


@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_stack_rows_are_one_bank_views(k):
    # each row's mean time is the one-bank one bit for bit, and both are
    # Python's sum(i * b_i), left to right (b @ arange(K + 1) is not, in the
    # last bit, on some rows at K = 5, 10 and 20); the row is that bank, and
    # so are its tail sums, bit for bit
    rng = np.random.default_rng(k)
    rows = rng.dirichlet(np.ones(k + 1), 200)
    banks = Banks(rows)
    assert banks.k == k and banks.mean_time.shape == (200,)
    singles = [validate_distribution(row) for row in rows]
    by_sum = [float(sum(i * x for i, x in enumerate(row))) for row in rows.tolist()]
    for want in ([d.mean_time for d in singles], by_sum):
        assert banks.mean_time.tobytes() == np.array(want).tobytes()
    assert banks.array.tolist() == [list(d.b) for d in singles]
    tails = tail_sums(banks)
    assert tails.shape == (200, k)
    assert tails.tobytes() == np.array([tail_sums(d) for d in singles]).tobytes()
    # the columns the closed forms take
    big_b, *b = banks.columns
    assert big_b.shape == (200, 1) and len(b) == k + 1
    np.testing.assert_array_equal(np.hstack(b), rows)
    assert not banks.array.flags.writeable and not banks.mean_time.flags.writeable


def test_one_bank_fields_are_python_numbers():
    # b is repr'd back into a --b value: numpy 2 would write np.float64(...)
    d = validate_distribution(np.array([0.25, 0.25, 0.5]))
    assert type(d.k) is int and type(d.mean_time) is float
    assert all(type(x) is float for x in d.b)
    assert ",".join(map(repr, d.b)) == "0.25,0.25,0.5"
    assert d.columns == (1.25, 0.25, 0.25, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_distribution_invariants(k, seed):
    rng = np.random.default_rng(seed)
    d = random_simplex(rng, k)
    big_b = d.mean_time
    assert 0.0 <= big_b <= k * (1.0 - d.b[0]) + 1e-12
    assert k * (1.0 - d.b[0]) <= k
    tail = tail_sums(d)
    assert abs(tail[0] + d.b[0] - 1.0) <= 1e-12
    # tails are non-increasing
    assert np.all(np.diff(tail) <= 1e-15)


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
