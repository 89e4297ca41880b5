"""The seed-bank flow field and its closed-form reduction quantities.

One field (``build_flow``), the drift of the Wright-Fisher chain with seed
bank, takes four tags, all sharing the attractor manifold "all generations at
the same mutant frequency":

* ``constant`` — the constant environment (dim K+1),
* ``linearized`` — without the rational denominator (dim K+1); its curvature
  matrix has a simple closed form, a test reference in ``tests/oracles.py``,
* ``slow_env`` — a frozen population-size coordinate xi in place of 1 (dim K+2),
* ``fast_env`` — dormant weights scaled by the last K environment marks, which
  age like the bank (dim 2K+1).

Alongside the generic engine interface (build_flow + closed Jacobians,
eigenvectors and Hessians on the manifold), this module exposes the headline
scalar quantities: the second derivative of the projection map (the diffusion
drift factor), its closed K=1 and K=2 forms and upper bound, the fast
environment's extra-drift function h at K=1 as one reduced rational function
(the fast-regime second derivatives it is assembled from are test references
in ``tests/oracles.py``), and ``drift_factor_fn``, which picks the drift
factor of every diffusion limit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core_model import GerminationDistribution, tail_sums
from .errors import SingularSystem, UnsupportedK, ValidationError
from .manifold_reduction import (
    FlowField,
    ManifoldChart,
    deflation_basis,
    diagonal_chart,
    schur_form,
    solve_lyapunov,
    solve_lyapunov_schur,
)

TAGS = ("constant", "linearized", "slow_env", "fast_env")


@dataclass(frozen=True)
class FlowKind:
    """Selects one of the field's four tags for a germination distribution."""

    tag: str
    d: GerminationDistribution
    env: object = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValidationError(f"unknown flow tag {self.tag!r}; expected one of {TAGS}")

    @property
    def dim(self):
        k = self.d.k
        return k + 1 + {"slow_env": 1, "fast_env": k}.get(self.tag, 0)


def _field(kind):
    """The seed-bank field of ``kind``: the mutant row
    (xi - x0)(w . x_1: - (1 - b0) x0) / ((xi - x0) + b0 x0 + w . x_1:), with
    xi the state's last coordinate for ``slow_env`` and 1 otherwise, weights
    w = b_1: (1 + marks) for ``fast_env`` and b_1: otherwise, and no
    denominator for ``linearized``; the bank rows and the marks age by one."""
    tag, b, k = kind.tag, kind.d.array, kind.d.k

    def func(state):
        x0 = state[0]
        free = (state[-1] if tag == "slow_env" else 1.0) - x0
        weights = b[1:] * (1.0 + state[k + 1 :]) if tag == "fast_env" else b[1:]
        dormant = weights @ state[1 : k + 1]
        out = np.empty_like(state)
        out[0] = free * (dormant - (1.0 - b[0]) * x0)
        if tag != "linearized":
            out[0] /= free + b[0] * x0 + dormant
        out[1:] = state[:-1] - state[1:]
        if tag == "slow_env":
            out[k + 1] = 0.0  # xi is frozen
        elif tag == "fast_env":
            out[k + 1] = -state[k + 1]  # the fresh mark is 0
        return out

    return func


def build_flow(kind):
    """Build the FlowField for a FlowKind.

    The field carries no analytic derivatives, so its ``jacobian`` and
    ``hessians`` are finite differences until the caller attaches ``jac`` and
    ``hess``; the ``reduce`` subcommand attaches ``jacobian_on_gamma`` and
    ``hessians_on_gamma``, which are exact on the manifold only.
    """
    k = kind.d.k
    domain = np.tile([0.0, 1.0], (kind.dim, 1))
    constraint = None
    if kind.tag == "slow_env":
        if kind.env is None:
            raise ValidationError("slow_env flow requires a SlowEnvSpec")
        domain[:, 1] = kind.env.xi_max
        domain[k + 1, 0] = kind.env.xi_min
        constraint = lambda s: s[0] <= s[k + 1] + 1e-9
    elif kind.tag == "fast_env":
        domain[k + 1 :, 0] = -1.0
    return FlowField(dim=kind.dim, domain=domain, func=_field(kind), constraint=constraint)


def jacobian_on_gamma(kind, x0):
    """Closed-form Jacobian at the manifold point with frequency x0 (marks 0)."""
    d = kind.d
    b = d.array
    k = d.k
    one_minus = 1.0 - x0
    # shared (K+1)x(K+1) block: rational and linearized fields agree on the manifold
    core = np.zeros((k + 1, k + 1))
    core[0, 0] = -(1.0 - b[0]) * one_minus
    core[0, 1:] = b[1:] * one_minus
    # ageing rows: 1 below the diagonal, -1 on it
    core[1:] = np.eye(k, k + 1) - np.eye(k, k + 1, 1)
    if kind.tag in ("constant", "linearized"):
        return core
    if kind.tag == "fast_env":
        jac = np.zeros((2 * k + 1, 2 * k + 1))
        jac[: k + 1, : k + 1] = core
        jac[0, k + 1 :] = b[1:] * x0 * one_minus
        jac[k + 1 :, k + 1 :] = np.eye(k, k, -1) - np.eye(k)  # the marks age likewise
        return jac
    raise UnsupportedK("no closed-form manifold Jacobian for the slow_env flow")


def eigvecs_on_gamma(kind, x0):
    """Closed-form null eigenvectors (u, v) on the manifold, with <u, v> = 1.
    No subcommand runs it: perfbench imports it (ROADMAP item 18)."""
    d = kind.d
    k = d.k
    tails = tail_sums(d)
    big_b = d.mean_time
    den = big_b * (1.0 - x0) + 1.0
    if kind.tag in ("constant", "linearized"):
        u = np.ones(k + 1)
        v = np.concatenate([[1.0], tails * (1.0 - x0)]) / den
        return u, v
    if kind.tag == "fast_env":
        u = np.concatenate([np.ones(k + 1), np.zeros(k)])
        v = np.concatenate(
            [[1.0], tails * (1.0 - x0), tails * x0 * (1.0 - x0)]
        ) / den
        return u, v
    raise UnsupportedK("no closed-form manifold eigenvectors for the slow_env flow")


def hessians_on_gamma(kind, x0):
    """Closed-form component Hessians on the manifold (marks 0 for fast_env).

    Only the first component of each flow is nonlinear; the ageing and mark
    components are linear, so their Hessians vanish.
    """
    d = kind.d
    b = d.array
    k = d.k
    x = x0
    one_minus = 1.0 - x

    hess_lin = np.zeros((k + 1, k + 1))
    hess_lin[0, 0] = 2.0 * (1.0 - b[0])
    hess_lin[0, 1:] = -b[1:]
    hess_lin[1:, 0] = -b[1:]
    if kind.tag == "linearized":
        return [hess_lin] + [np.zeros((k + 1, k + 1)) for _ in range(k)]

    hess0 = np.empty((k + 1, k + 1))
    hess0[0, 0] = 2.0 * (1.0 - b[0]) - 2.0 * (1.0 - b[0]) ** 2 * one_minus
    row = 2.0 * b[1:] * (1.0 - b[0]) * one_minus - b[1:]
    hess0[0, 1:] = row
    hess0[1:, 0] = row
    hess0[1:, 1:] = -2.0 * np.outer(b[1:], b[1:]) * one_minus
    if kind.tag == "constant":
        return [hess0] + [np.zeros((k + 1, k + 1)) for _ in range(k)]

    if kind.tag == "fast_env":
        dim = 2 * k + 1
        h = np.zeros((dim, dim))
        h[: k + 1, : k + 1] = hess0
        # mixed x-mark block
        x0_mark = 2.0 * b[1:] * (1.0 - b[0]) * x * one_minus - b[1:] * x
        h[0, k + 1 :] = x0_mark
        h[k + 1 :, 0] = x0_mark
        mixed = -2.0 * np.outer(b[1:], b[1:]) * x * one_minus
        diag = np.arange(k)
        mixed[diag, diag] += b[1:] * one_minus
        h[1 : k + 1, k + 1 :] = mixed
        h[k + 1 :, 1 : k + 1] = mixed.T
        # mark-mark block
        h[k + 1 :, k + 1 :] = -2.0 * np.outer(b[1:], b[1:]) * x**2 * one_minus
        return [h] + [np.zeros((dim, dim)) for _ in range(dim - 1)]
    raise UnsupportedK("no closed-form manifold Hessians for the slow_env flow")


def manifold_chart(kind):
    """Chart of the attractor manifold by the mutant frequency."""
    k = kind.d.k
    if kind.tag in ("constant", "linearized"):
        return diagonal_chart(k + 1)
    if kind.tag == "fast_env":
        mask = np.concatenate([np.ones(k + 1), np.zeros(k)])
        return ManifoldChart(
            gamma=lambda x0: x0 * mask,
            gamma_prime=lambda x0: mask.copy(),
            gamma_second=lambda x0: np.zeros(2 * k + 1),
        )
    raise UnsupportedK("the slow_env manifold is two-dimensional; no 1-D chart")


def delta_matrix(d):
    """The rank-one defect between the full and linearized Hessians.

    Hess F0 = Hess G0 + 2 (1 - x0) Delta on the manifold.  Returns the matrix
    and its spectrum {0 (multiplicity K), -( (1-b0)^2 + sum b_i^2 )}.  No
    subcommand runs it: perfbench imports it (ROADMAP item 18).
    """
    b = d.array
    w = np.concatenate([[1.0 - b[0]], -b[1:]])
    delta = -np.outer(w, w)
    spectrum = np.concatenate([np.zeros(d.k), [-(w @ w)]])
    return delta, spectrum


def drift_bound(big_b, x0):
    """Upper bound B(B(1-x0)+2)/(B(1-x0)+1)^3 for the drift second derivative."""
    b_s = big_b * (1.0 - x0)
    den = b_s + 1.0
    return big_b * (b_s + 2.0) / (den * den * den)


def _deflated_drift_pieces(d):
    """The x0-free pieces of the deflated defect equation, formed once per
    distribution: (B, A_1, w_0, row, Delta_W); for a ``Banks`` stack, B is
    its column and row and Delta_W have a leading bank axis.

    Along the manifold u = (1, ..., 1) is fixed, the Jacobian is
    J(1) + (1 - x0) e_0 r^T with r the first row of J(0), and the defect
    right-hand side is 2 (1 - x0) v_0 Delta with v_0 = 1 / (B (1 - x0) + 1);
    Delta u = 0, so the stable projections drop out.  With W the deflation
    basis of u, the deflated equation at x0 is A(x0)^T S + S A(x0) = c Delta_W
    with A(x0) = A_1 + s w_0 row^T, s = 1 - x0, c = 2 s / (B s + 1),
    A_1 = W^T J(1) W, w_0 = W^T e_0, row = W^T r and Delta_W = W^T Delta W,
    and phi''(x0) = drift_bound(B, x0) - w_0^T S w_0.  J(1) is the ageing
    rows alone, and with v = (1 - b0, -b1, ..., -bK), r = -v and
    Delta = -v v^T (``delta_matrix``): A_1 and w_0 depend on K alone.
    """
    k = d.k
    w = deflation_basis(np.ones(k + 1))
    a_settled = w.T @ np.vstack([np.zeros(k + 1), np.eye(k, k + 1) - np.eye(k, k + 1, 1)]) @ w
    v = np.concatenate([1.0 - d.array[..., :1], -d.array[..., 1:]], axis=-1)
    return (d.columns[0], a_settled, w[0], (-v[..., None, :] @ w)[..., 0, :],
            w.T @ -(v[..., :, None] * v[..., None, :]) @ w)


def drift_second_derivative(d, x0):
    """Second derivative of the projection map's first component on the
    manifold at x0 (a scalar or an array), at any dormancy depth, by one
    direct K x K Lyapunov solve per point.

    Computed as the closed-form bound minus the (0,0) entry of the curvature
    matrix attributable to the rank-one Hessian defect, the latter from the
    deflated semistable Lyapunov solve (``_deflated_drift_pieces``).  This is
    the oracle path; the diffusion limits use ``batched_drift_fn``, which is
    exact too and much cheaper per point.  ``d`` is one bank; a ``Banks``
    stack raises ``ValidationError`` (``drift_factor_fn`` takes a stack).
    No subcommand runs it: perfbench wraps it (ROADMAP item 18).
    """
    if np.ndim(d.mean_time):
        raise ValidationError("drift_second_derivative, the per-point oracle, takes "
                              "one bank; drift_factor_fn takes a Banks stack")
    big_b, a_settled, w0, row, delta_w = _deflated_drift_pieces(d)
    x0 = np.asarray(x0, dtype=float)
    out = np.empty(x0.shape)
    for idx, x in np.ndenumerate(x0):
        one_minus = 1.0 - x
        s = solve_lyapunov(a_settled + one_minus * np.outer(w0, row),
                           2.0 * one_minus / (big_b * one_minus + 1.0) * delta_w)
        out[idx] = drift_bound(big_b, x) - w0 @ s @ w0
    return out if out.ndim else out[()]


def batched_drift_fn(d):
    """``drift_second_derivative``'s phi''(x0), exact, batched over x0 by a
    rank-one update of one Lyapunov operator, for one bank or a ``Banks``
    stack, in ``drift_factor_fn``'s shapes.

    A(x0) = A_1 + s w_0 row^T (``_deflated_drift_pieces``), so with
    L_1(S) = A_1^T S + S A_1 and q = S w_0 the deflated equation reads
    L_1(S) + s (row q^T + q row^T) = c Delta_W, whence
    S = c S_C - s sum_j q_j M_j with S_C = L_1^{-1}(Delta_W) and
    M_j = L_1^{-1}(row e_j^T + e_j row^T).  Multiplying by w_0 leaves the
    K x K capacitance system (I + s G) q = c a, a = S_C w_0, G[:, j] = M_j w_0
    (Bartels & Stewart, CACM 15(9), 1972; Hager, SIAM Review 31(2), 1989).
    A_1 depends on K alone, so one Schur factorisation serves a stack; each
    bank adds K + 1 triangular solves, and a call one K x K solve per (bank,
    point), all batched; phi''(x0) = drift_bound(B, x0) - w_0^T q.

    Every point is checked against the full equation, as the direct solve
    checks it: with R_C and R_j the residuals of the K + 1 base solves, the
    residual of A(x0)^T S + S A(x0) = c Delta_W is at most
    c |R_C| + s sum_j |q_j| |R_j| + 2 s |row| |(I + s G) q - c a| (max
    norms; the last one is bounded in turn by the sum of the defect's
    entries), and a point whose bound exceeds 1e-8 max(1, c |Delta_W|), the
    direct solve's tolerance, raises SingularSystem, as does a failed
    factorisation or triangular solve, or a singular capacitance matrix.
    """
    big_b, a_settled, w0, row, delta_w = _deflated_drift_pieces(d)
    k = d.k
    eye = np.eye(k)
    t, z = schur_form(a_settled)
    # (bank, ...) arrays: one bank is a stack of one
    row, delta_w = row.reshape(-1, k), delta_w.reshape(-1, k, k)
    sym = row[:, None, :, None] * eye[:, None, :]  # sym[m, j] = row_m e_j^T
    rhs = np.concatenate([delta_w[:, None], sym + sym.swapaxes(2, 3)], axis=1)
    base = np.reshape([solve_lyapunov_schur(t, z, q) for q in rhs.reshape(-1, k, k)],
                      rhs.shape)
    base_res = np.max(np.abs(a_settled.T @ base + base @ a_settled - rhs), axis=(2, 3))
    # (bank, point, ...) arrays from here on
    res_c = base_res[:, :1, None, None]
    a = (base[:, 0] @ w0)[:, None, :, None]
    g = (base[:, 1:] @ w0).swapaxes(1, 2)[:, None]
    # weights of |q_j| and of the capacitance defect in the residual bound
    row_max = (2.0 * np.abs(row).max(axis=1, keepdims=True)).repeat(k, axis=1)
    weights = np.concatenate([base_res[:, 1:], row_max], axis=1)[:, None, None]
    delta_max = np.abs(delta_w).max(axis=(1, 2)).reshape(-1, 1, 1, 1)

    def phi2(x0):
        x0 = np.asarray(x0, dtype=float)
        s = 1.0 - x0.reshape(1, -1)
        c = 2.0 * s / (big_b * s + 1.0)  # B a float, or a stack's (M, 1) column
        s, c = s[..., None, None], c[..., None, None]
        cap = eye + s * g
        ca = c * a
        try:
            q = np.linalg.solve(cap, ca)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"capacitance matrix I + s G singular ({exc})") from None
        # the sum of the defect's entries bounds their maximum
        terms = np.abs(np.concatenate((q, cap @ q - ca), axis=2))
        abs_c = np.abs(c)
        bound = abs_c * res_c + np.abs(s) * (weights @ terms)
        worst = (bound / np.maximum(1.0, delta_max * abs_c)).max(initial=0.0)
        if not worst <= 1e-8:
            raise SingularSystem(f"Lyapunov residual bound {worst:.3g} max(1, c |Q|) is "
                                 "above the tolerance 1e-8 max(1, c |Q|), Q = Delta_W")
        out = drift_bound(big_b, x0)
        return out - (w0 @ q).reshape(out.shape)

    return phi2


def drift_k1_closed(b0, x0):
    """Closed-form drift second derivative for dormancy depth one."""
    q = 1.0 - b0
    one_minus = 1.0 - x0
    den = q * one_minus + 1.0
    return q * (2.0 - q * q * one_minus * one_minus) / (den * den * den)


def drift_k2_closed(d, x0):
    """Closed-form drift second derivative for dormancy depth two: of one
    bank, or of a ``Banks`` stack as (M, n) rows on an (n,) array x0."""
    if d.k != 2:
        raise UnsupportedK("this closed form requires K = 2")
    big_b, b0, b1, b2 = d.columns
    q = 1.0 - b0
    one_minus = 1.0 - x0
    num = one_minus * (
        big_b * q * (1.0 - q * one_minus) * (big_b * one_minus + 2.0)
        + b2 * (2.0 * b1 + 3.0 * b2)
    ) + big_b * (4.0 - big_b * big_b * one_minus * one_minus)
    den = big_b * one_minus + 1.0
    return num / (den * den * den * (q * one_minus + 2.0))


def drift_factor_fn(d):
    """Second derivative of the projection map as a callable of x0, scalar or
    array: the phi'' of every diffusion limit.

    The closed forms at K <= 2 (which equal the engine output); for deeper
    seed banks ``batched_drift_fn``: exact, with one Schur factorisation per
    build and one K x K solve per bank and point, all of a call batched, each
    checked against the full Lyapunov equation.  ``drift_second_derivative``
    keeps the direct per-point solve as the oracle.  Build the callable once
    per distribution or stack and call it on arrays.

    For a ``Banks`` stack of M distributions, at every K, the callable maps a
    scalar x0 to an (M, 1) column and an (n,) array to (M, n) rows, each bit
    for bit the distribution's own: one evaluation on the stack's (M, 1)
    columns.  The closed forms are sums, products and quotients, with no
    powers, so a scalar, an array and a column round alike.
    """
    if d.k == 1:
        return functools.partial(drift_k1_closed, d.columns[1])
    if d.k == 2:
        return functools.partial(drift_k2_closed, d)
    return batched_drift_fn(d)


def h_function(x0, b0):
    """Extra-drift shape of the fast environment (per unit p s^2 x0 (1-x0)).

    With q = 1 - b0 and s = 1 - x0,

        h = q (4 + q - q x0 (5 + q s (4 + q s))) / ((q s + 1)(q s + 2)).

    h is the K = 1 assembly q^2 x0 s phi'' + d2Phi0/dups0^2 / (x0 s)
    - 2 q d2Phi0/dx0 dups0 + 2 q (s + b0 x0) / (q s + 1) of the fast-regime
    projection map's second derivatives, whose denominators share the factor
    (q s + 1)^3; the sum cancels (q s + 1)^2, and the removable 1/(x0 s) of
    the mark-mark derivative cancels against its exact factor x0 s.  The
    derivation's pieces are test references in ``tests/oracles.py``; the
    tests check h against exact rational arithmetic and against the generic
    engine's Hessian.  Products only, no powers, so a scalar and an array
    round alike.
    """
    q = 1.0 - b0
    qs = q * (1.0 - x0)
    return q * (4.0 + q - q * x0 * (5.0 + qs * (4.0 + qs))) / ((qs + 1.0) * (qs + 2.0))
