"""The splice map psi of the critical branching phase.

While rare, a mutant lineage with a seed bank behaves like a critical
(K+1)-type branching process: type 0 counts mature mutant plants, type i >= 1
counts seeds that will germinate in i generations.  psi matches that phase's
outcomes between the seed-bank and neutral models; the fixation figures start
their diffusion at psi_B(y).  The process's mean matrix, survival and tail
constants and a simulator that checks them are test references, in
``tests/oracles.py``.
"""

import numpy as np


def psi(big_b, y):
    """Splice map matching branching outcomes to the neutral model.

    psi_B(y) = log((B+1)/(B+e^{-2y})) / (2 (B+1)^2); psi is increasing in y
    and decreasing in B.  psi_0(y) = y in exact arithmetic only: the rounding
    of e^{-2y} leaves an absolute error up to about 1.1e-16 for y in [0, 1]
    (psi(0, 0.01) is 0.009999999999999983).  B and y broadcast; (B + 1)^2 is
    a product, not a power, so a scalar and an array give the same bits.
    """
    big_b = np.asarray(big_b, dtype=float)
    y = np.asarray(y, dtype=float)
    big_b1 = big_b + 1.0
    out = np.log(big_b1 / (big_b + np.exp(-2.0 * y))) / (2.0 * (big_b1 * big_b1))
    return out.item() if out.ndim == 0 else out
