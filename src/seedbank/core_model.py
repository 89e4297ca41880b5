"""Germination distributions and environment parameter records.

Everything downstream is parametrised by a germination distribution
b = (b0, ..., bK) on the simplex with b0 > 0: b_i is the probability that
a seed germinates exactly i generations after it was produced.  The mean
germination time B = sum(i * b_i) is cached because it appears in nearly
every closed-form expression.  ``Banks`` stacks M distributions of one K as
the rows of one array, checked at once; ``GerminationDistribution`` is one
bank, checked by the same code.  Both carry ``k``, ``mean_time`` and the
closed forms' (B, b0, ..., bK) ``columns``: floats, or (M, 1) for a stack.
"""

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import (
    BoundaryConditionViolated,
    NegativeEntry,
    NotOnSimplex,
    ValidationError,
    ZeroB0,
)

SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class GerminationDistribution:
    """Probabilities b = (b0, ..., bK) of germinating after 0..K generations:
    ``b`` a tuple of floats, ``k`` an int and ``mean_time`` a float."""

    b: tuple
    k: int = field(init=False)
    mean_time: float = field(init=False)

    def __post_init__(self):
        try:
            if isinstance(self.b, (str, bytes)):  # "10" would read as (1, 0)
                raise TypeError
            b = tuple(map(float, self.b))
        except (TypeError, ValueError):
            raise ValidationError(f"b must be a sequence of numbers, got {self.b!r}") from None
        object.__setattr__(self, "mean_time", float(Banks([b]).mean_time[0]))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", len(b) - 1)

    @property
    def array(self):
        return np.asarray(self.b)

    @property
    def columns(self):
        return (self.mean_time, *self.b)


@dataclass(frozen=True, eq=False)
class Banks:
    """M germination distributions of one depth K: the rows of ``array``, a
    read-only (M, K + 1) float array, with their (M,) ``mean_time``."""

    array: np.ndarray
    k: int = field(init=False)
    mean_time: np.ndarray = field(init=False)

    def __post_init__(self):
        try:  # numbers in equal rows: as floats, None would read as NaN
            a = np.array(self.array)
            if a.dtype.kind not in "biuf" or a.ndim != 2 or not len(a):
                raise ValueError
        except ValueError:
            raise ValidationError("banks must be a non-empty 2-D array of numbers, one "
                                  "row per distribution") from None
        a = a.astype(float, copy=False)  # np.array made a copy
        if a.shape[1] < 2:
            raise ValidationError("need at least (b0, b1); use b=(1, 0) for no dormancy")
        # a NaN fails both entry tests.  The sums skip a row's bad entries (it
        # fails on them) and add column by column, as Python's sum adds up a
        # row; it starts from 0, so a total of -0.0 reads 0.0
        ok_entry = (a >= 0.0) & (a <= 1.0)
        clean = np.where(ok_entry, a, 0.0)
        total = 0.0 + np.add.accumulate(clean, axis=1)[:, -1]
        mean_time = np.add.accumulate(clean * np.arange(a.shape[1]), axis=1)[:, -1]
        ok_sum = abs(total - 1.0) <= SIMPLEX_TOL
        ok = ok_entry.all(axis=1) & ok_sum & (a[:, 0] > 0.0)
        if not ok.all():  # the first failed check of the first bad row
            row = ok.argmin()
            b = tuple(a[row].tolist())
            if not ok_entry[row].all():
                x = b[ok_entry[row].argmin()]
                if x < 0.0:
                    raise NegativeEntry(f"negative probability {x!r} in b={b}")
                raise NotOnSimplex(f"entry {x!r} is not a probability in b={b}")
            if not ok_sum[row]:
                raise NotOnSimplex(f"sum(b) = {float(total[row])!r} differs from 1 beyond "
                                   f"{SIMPLEX_TOL}")
            raise ZeroB0("b0 must be strictly positive")
        a.setflags(write=False)
        mean_time.setflags(write=False)
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "k", a.shape[1] - 1)
        object.__setattr__(self, "mean_time", mean_time)

    @property
    def columns(self):
        return (self.mean_time[:, None], *self.array.T[:, :, None])


def tail_sums(d):
    """Tail sums T_i = sum(b_l for l >= i), i = 1..K: monotone non-increasing,
    with T_1 = 1 - b0; one row per distribution of a ``Banks`` stack.
    No subcommand reaches it; perfbench does, through ``eigvecs_on_gamma``
    (ROADMAP item 18)."""
    # cumulative sum from the right; drop the i=0 entry
    return np.cumsum(d.array[..., ::-1], axis=-1)[..., ::-1][..., 1:]


def validate_distribution(raw):
    """Build a GerminationDistribution from a raw sequence, raising on bad input."""
    return GerminationDistribution(raw)


def check_seed(seed, name="seed"):
    """Reject a master seed ``name`` that is not an integer in [0, 2**64) (a
    bool is not one): the seeds both random number generators take."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise ValidationError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


def check_positive_int(name, value):
    """Reject a count ``name`` that is not an integer >= 1 (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class SlowEnvSpec:
    """Slowly varying environment: population size factor xi in [xi_min, xi_max].

    ``alpha`` is the drift and ``eta`` the noise amplitude of xi; the boundary
    conditions alpha(xi_min) >= 0, alpha(xi_max) <= 0 and eta vanishing at both
    endpoints keep xi inside the box.
    """

    xi_min: float
    xi_max: float
    alpha: callable
    eta: callable

    def __post_init__(self):
        if not self.xi_min > 0:
            raise ValidationError("xi_min must be positive")
        if not self.xi_max > self.xi_min:
            raise ValidationError("xi_max must exceed xi_min")
        # written so that a NaN fails each check
        if not self.alpha(self.xi_min) >= 0:
            raise BoundaryConditionViolated("alpha(xi_min) must be >= 0")
        if not self.alpha(self.xi_max) <= 0:
            raise BoundaryConditionViolated("alpha(xi_max) must be <= 0")
        if not (self.eta(self.xi_min) == 0 and self.eta(self.xi_max) == 0):
            raise BoundaryConditionViolated("eta must vanish at xi_min and xi_max")


@dataclass(frozen=True)
class FastEnvSpec:
    """Rapidly fluctuating selection marks.

    Each generation carries a mark Upsilon in {-1, 0, +1} with
    P(-1) = P(+1) = p and P(0) = 1 - 2p; the selection strength scales like
    s_N = s / sqrt(N).
    """

    # the marks in the order of ``mark_class``'s classes
    MARKS = np.array([-1, 1, 0])

    p: float
    s: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValidationError("p must lie in [0, 1/2]")
        if not 0 < self.s < math.inf:
            raise ValidationError(f"s must be positive and finite, got {self.s!r}")

    def s_of_N(self, n):
        """Per-generation selection strength, clipped into [0, 1)."""
        return min(self.s / np.sqrt(n), 1.0 - 1e-12)

    def mark_class(self, u):
        """Index into ``MARKS`` of the mark each uniform ``u`` in [0, 1) draws:
        u < p draws -1, p <= u < 2p draws +1, and the rest 0.  The class is
        the number of the cuts p and 2p at or below u, added as integers (a
        plain ``+`` of two boolean arrays would be their logical or)."""
        return np.add(self.p <= u, 2 * self.p <= u, dtype=np.intp)

    def sample_marks(self, rng, size=None):
        """Draw marks from the three-point law {-1, 0, +1}."""
        return self.MARKS[self.mark_class(rng.random(size))]
