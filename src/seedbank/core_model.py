"""Germination distributions and environment parameter records.

Everything downstream is parametrised by a germination distribution
b = (b0, ..., bK) on the simplex with b0 > 0: b_i is the probability that
a seed germinates exactly i generations after it was produced.  The mean
germination time B = sum(i * b_i) is cached because it appears in nearly
every closed-form expression.
"""

import math
from collections import namedtuple
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

TailSums = namedtuple("TailSums", ["tail", "b_j"])


@dataclass(frozen=True)
class GerminationDistribution:
    """Probabilities b = (b0, ..., bK) of germinating after 0..K generations."""

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
        if len(b) < 2:
            raise ValidationError("need at least (b0, b1); use b=(1, 0) for no dormancy")
        # written so that a NaN fails the checks after the first
        for x in b:
            if x < 0.0:
                raise NegativeEntry(f"negative probability {x!r} in b={b}")
            if not x <= 1.0:
                raise NotOnSimplex(f"entry {x!r} is not a probability in b={b}")
        total = sum(b)
        if not abs(total - 1.0) <= SIMPLEX_TOL:
            raise NotOnSimplex(f"sum(b) = {total!r} differs from 1 beyond {SIMPLEX_TOL}")
        if not b[0] > 0.0:
            raise ZeroB0("b0 must be strictly positive")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "k", len(b) - 1)
        object.__setattr__(self, "mean_time", float(sum(i * x for i, x in enumerate(b))))

    @property
    def array(self):
        return np.asarray(self.b)


def tail_sums(d):
    """Tail sums T_i = sum(b_l for l >= i), i = 1..K, and B_j = B - T_j.

    ``tail`` is monotone non-increasing with tail[0] (i.e. T_1) equal to 1 - b0.
    """
    b = d.array
    # cumulative sum from the right; drop the i=0 entry
    tail = np.cumsum(b[::-1])[::-1][1:]
    return TailSums(tail=tail, b_j=d.mean_time - tail)


def validate_distribution(raw):
    """Build a GerminationDistribution from a raw sequence, raising on bad input."""
    return GerminationDistribution(raw)


def distribution_from_cli(text):
    """Parse a comma-separated flag value like "0.6,0.2,0.2"."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse --b value {text!r}") from exc
    return validate_distribution(values)


def check_seed(seed):
    """Reject a master seed that is not an integer in [0, 2**64) (a bool is
    not one): the seeds both random number generators take."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


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
    # (p, 2p): the uniforms that ``mark_class`` cuts at
    cuts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValidationError("p must lie in [0, 1/2]")
        if not 0 < self.s < math.inf:
            raise ValidationError(f"s must be positive and finite, got {self.s!r}")
        object.__setattr__(self, "cuts", np.array([self.p, 2 * self.p], dtype=float))

    def s_of_N(self, n):
        """Per-generation selection strength, clipped into [0, 1)."""
        return min(self.s / np.sqrt(n), 1.0 - 1e-12)

    def mark_class(self, u):
        """Index into ``MARKS`` of the mark each uniform ``u`` in [0, 1) draws:
        u < p draws -1, p <= u < 2p draws +1, and the rest 0."""
        return self.cuts.searchsorted(u, "right")

    def sample_marks(self, rng, size=None):
        """Draw marks from the three-point law {-1, 0, +1}."""
        return self.MARKS[self.mark_class(rng.random(size))]
