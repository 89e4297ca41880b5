"""The fast environment's extra-drift shape h at K = 1: its floating-point
evaluation against exact rational arithmetic, and its reduced form against
the four-term assembly of the generic engine's fast-regime Hessian."""

from fractions import Fraction

import numpy as np

from seedbank import h_function
from test_seedbank_flows import fast_pipeline_k1


def exact_h(x0, b0):
    """h at the floats x0 and b0, in exact rational arithmetic."""
    x0, b0 = Fraction(x0), Fraction(b0)
    q = 1 - b0
    qs = q * (1 - x0)
    return q * (4 + q - q * x0 * (5 + qs * (4 + qs))) / ((qs + 1) * (qs + 2))


def test_h_is_within_1e_15_of_exact_arithmetic():
    xs = np.linspace(0.0, 1.0, 101)  # the h-contour --grid 101 surface
    grid = np.broadcast_arrays(xs[:, None], xs)
    scattered = np.random.default_rng(29).random((2, 20000))
    for x0, b0 in (grid, scattered):
        got = h_function(x0, b0)
        worst = max(abs(Fraction(h) - exact_h(x, b))
                    for h, x, b in zip(got.ravel().tolist(), x0.ravel().tolist(),
                                       b0.ravel().tolist()))
        assert worst <= 1e-15


def test_h_is_the_four_term_assembly_of_the_engine_hessian():
    # h = q^2 x (1 - x) phi'' + H[2, 2] / (x (1 - x)) - 2 q H[0, 2]
    #     + 2 q ((1 - x) + b0 x) / (q (1 - x) + 1), H the fast-regime
    # projection map's Hessian from the generic reduction, phi'' its H[0, 0]
    rng = np.random.default_rng(129)
    for _ in range(30):
        b0 = rng.uniform(0.05, 1.0)
        x0 = rng.uniform(0.02, 0.98)
        _, hess = fast_pipeline_k1(b0, x0)
        q = 1.0 - b0
        var = x0 * (1.0 - x0)
        assembly = (q * q * var * hess[0, 0] + hess[2, 2] / var - 2.0 * q * hess[0, 2]
                    + 2.0 * q * ((1.0 - x0) + b0 * x0) / (q * (1.0 - x0) + 1.0))
        assert abs(h_function(x0, b0) - assembly) <= 1e-12
