import numpy as np

from seedbank import Banks, validate_distribution
from seedbank.wf_simulators import _age, _generation


def random_simplex(rng, k):
    """A random germination distribution with b0 bounded away from 0."""
    raw = rng.dirichlet(np.ones(k + 1))
    raw[0] = max(raw[0], 0.05)
    raw /= raw.sum()
    return validate_distribution(raw)


def stack(ds):
    """The ``Banks`` stack of the one-bank distributions ``ds``, all of one K."""
    return Banks([d.b for d in ds])


def generation(x, d, trials_now, trials_next, rng, weights=None, fresh=None):
    """One Wright-Fisher generation of the integer states ``x`` (shape
    (R, K+1), or one state of shape (K+1,)) by the simulators' kernel, set
    up as a Monte Carlo block sets it up: C-contiguous float rows and, in
    the fast regime, a (R, K+1) float register of environment ``weights``
    aged in place by the ``fresh`` weights, w0 its first column and
    bw = b[1:] times the rest; without one every weight is 1.  Returns the
    new states, int64 of shape (R, K+1)."""
    state = np.array(x, dtype=float, order="C", ndmin=2)
    b = d.array
    w0, bw = None, b[1:]
    if weights is not None:
        _age(weights, fresh)
        w0, bw = weights[:, 0], b[1:] * weights[:, 1:]
    _generation(state, b, trials_now, trials_next, w0, bw, rng)
    return state.astype(np.int64)
