"""Concrete seed-bank flow fields and their closed-form reduction quantities.

Four flows are provided, all sharing the attractor manifold "all generations at
the same mutant frequency":

* ``constant`` — the drift field of the constant-environment model (dim K+1),
* ``linearized`` — the same field with the rational denominator dropped
  (dim K+1); its curvature matrix has a simple closed form used as an oracle,
* ``slow_env`` — the field coupled to a population-size variable xi (dim K+2),
* ``fast_env`` — the field augmented with the last K environment marks
  (dim 2K+1).

Alongside the generic engine interface (build_flow + closed Jacobians,
eigenvectors and Hessians on the manifold), this module exposes the headline
scalar quantities: the second derivative of the projection map (the diffusion
drift factor), its closed K=1 and K=2 forms and upper bound, the fast-regime
mixed second derivatives for K=1, the extra-drift function h, and
``drift_factor_fn``, which picks the drift factor of every diffusion limit.
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
    """Selects one of the four built-in flows for a germination distribution."""

    tag: str
    d: GerminationDistribution
    env: object = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValidationError(f"unknown flow tag {self.tag!r}; expected one of {TAGS}")

    @property
    def dim(self):
        k = self.d.k
        return {"constant": k + 1, "linearized": k + 1, "slow_env": k + 2,
                "fast_env": 2 * k + 1}[self.tag]


def _constant_field(d):
    b = d.array

    def func(x):
        x0 = x[0]
        num = b[1:] @ x[1:] - (1.0 - b[0]) * x0
        den = (1.0 - x0) + b @ x
        out = np.empty_like(x)
        out[0] = (1.0 - x0) * num / den
        out[1:] = x[:-1] - x[1:]
        return out

    return func


def _linearized_field(d):
    b = d.array

    def func(x):
        x0 = x[0]
        out = np.empty_like(x)
        out[0] = (1.0 - x0) * (b[1:] @ x[1:] - (1.0 - b[0]) * x0)
        out[1:] = x[:-1] - x[1:]
        return out

    return func


def _slow_env_field(d):
    b = d.array
    k = d.k

    def func(state):
        x = state[: k + 1]
        xi = state[k + 1]
        num = b[1:] @ x[1:] - (1.0 - b[0]) * x[0]
        den = (xi - x[0]) + b @ x
        out = np.empty_like(state)
        out[0] = (xi - x[0]) * num / den
        out[1 : k + 1] = x[:-1] - x[1:]
        out[k + 1] = 0.0
        return out

    return func


def _fast_env_field(d):
    b = d.array
    k = d.k

    def func(state):
        x = state[: k + 1]
        ups = state[k + 1 :]
        weights = b[1:] * (1.0 + ups)
        num = weights @ x[1:] - (1.0 - b[0]) * x[0]
        den = (1.0 - x[0]) + b[0] * x[0] + weights @ x[1:]
        out = np.empty_like(state)
        out[0] = (1.0 - x[0]) * num / den
        out[1 : k + 1] = x[:k] - x[1 : k + 1]
        out[k + 1] = -ups[0]
        if k > 1:
            out[k + 2 :] = ups[:-1] - ups[1:]
        return out

    return func


def build_flow(kind):
    """Build the FlowField for a FlowKind.

    The field carries no analytic derivatives, so its ``jacobian`` and
    ``hessians`` are finite differences until the caller attaches ``jac`` and
    ``hess``; the ``reduce`` subcommand attaches ``jacobian_on_gamma`` and
    ``hessians_on_gamma``, which are exact on the manifold only.
    """
    d = kind.d
    k = d.k
    if kind.tag in ("constant", "linearized"):
        domain = np.tile([0.0, 1.0], (k + 1, 1))
        func = _constant_field(d) if kind.tag == "constant" else _linearized_field(d)
        return FlowField(dim=k + 1, domain=domain, func=func)
    if kind.tag == "slow_env":
        if kind.env is None:
            raise ValidationError("slow_env flow requires a SlowEnvSpec")
        xi_max = kind.env.xi_max
        domain = np.vstack([np.tile([0.0, xi_max], (k + 1, 1)), [[kind.env.xi_min, xi_max]]])
        return FlowField(
            dim=k + 2,
            domain=domain,
            func=_slow_env_field(d),
            constraint=lambda s: s[0] <= s[k + 1] + 1e-9,
        )
    # fast_env
    domain = np.vstack([np.tile([0.0, 1.0], (k + 1, 1)), np.tile([-1.0, 1.0], (k, 1))])
    return FlowField(dim=2 * k + 1, domain=domain, func=_fast_env_field(d))


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
    """Closed-form null eigenvectors (u, v) on the manifold, with <u, v> = 1."""
    d = kind.d
    b = d.array
    k = d.k
    tails = tail_sums(d).tail
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


def left_eigvec_prime(kind, x0):
    """Analytic derivative of v along the manifold chart (w.r.t. x0)."""
    d = kind.d
    k = d.k
    tails = tail_sums(d).tail
    big_b = d.mean_time
    den = big_b * (1.0 - x0) + 1.0
    vp_x = np.concatenate([[big_b], -tails]) / den**2
    if kind.tag in ("constant", "linearized"):
        return vp_x
    if kind.tag == "fast_env":
        vp_marks = tails * ((1.0 - 2.0 * x0) * den + big_b * x0 * (1.0 - x0)) / den**2
        return np.concatenate([vp_x, vp_marks])
    raise UnsupportedK("no closed-form eigenvector derivative for the slow_env flow")


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


def theta_g_closed(d, x0):
    """Closed-form curvature matrix of the linearized flow."""
    tails = tail_sums(d).tail
    big_b = d.mean_time
    den = big_b * (1.0 - x0) + 1.0
    w = np.concatenate([[-big_b], tails])
    return -np.outer(w, w) * (1.0 - x0) / den**3


def delta_matrix(d):
    """The rank-one defect between the full and linearized Hessians.

    Hess F0 = Hess G0 + 2 (1 - x0) Delta on the manifold.  Returns the matrix
    and its spectrum {0 (multiplicity K), -( (1-b0)^2 + sum b_i^2 )}.
    """
    b = d.array
    w = np.concatenate([[1.0 - b[0]], -b[1:]])
    delta = -np.outer(w, w)
    spectrum = np.concatenate([np.zeros(d.k), [-(w @ w)]])
    return delta, spectrum


def drift_bound(big_b, x0):
    """Upper bound B(B(1-x0)+2)/(B(1-x0)+1)^3 for the drift second derivative."""
    den = big_b * (1.0 - x0) + 1.0
    return big_b * (big_b * (1.0 - x0) + 2.0) / (den * den * den)


def _deflated_drift_pieces(d):
    """The x0-free pieces of the deflated defect equation, formed once per
    distribution: (B, A_1, w_0, row, Delta_W).

    Along the manifold u = (1, ..., 1) is fixed, the Jacobian is
    J(1) + (1 - x0) e_0 r^T with r the first row of J(0), and the defect
    right-hand side is 2 (1 - x0) v_0 Delta with v_0 = 1 / (B (1 - x0) + 1);
    Delta u = 0, so the stable projections drop out.  With W the deflation
    basis of u, the deflated equation at x0 is A(x0)^T S + S A(x0) = c Delta_W
    with A(x0) = A_1 + s w_0 row^T, s = 1 - x0, c = 2 s / (B s + 1),
    A_1 = W^T J(1) W, w_0 = W^T e_0, row = W^T r and Delta_W = W^T Delta W,
    and phi''(x0) = drift_bound(B, x0) - w_0^T S w_0.
    """
    kind = FlowKind("constant", d)
    w = deflation_basis(np.ones(d.k + 1))
    delta, _ = delta_matrix(d)
    return (d.mean_time, w.T @ jacobian_on_gamma(kind, 1.0) @ w, w[0],
            jacobian_on_gamma(kind, 0.0)[0] @ w, w.T @ delta @ w)


def drift_second_derivative(d, x0):
    """Second derivative of the projection map's first component on the
    manifold at x0 (a scalar or an array), at any dormancy depth, by one
    direct K x K Lyapunov solve per point.

    Computed as the closed-form bound minus the (0,0) entry of the curvature
    matrix attributable to the rank-one Hessian defect, the latter from the
    deflated semistable Lyapunov solve (``_deflated_drift_pieces``).  This is
    the oracle path; the diffusion limits use ``batched_drift_fn``, which is
    exact too and much cheaper per point.
    """
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
    rank-one update of one Lyapunov operator.

    A(x0) = A_1 + s w_0 row^T (``_deflated_drift_pieces``), so with
    L_1(S) = A_1^T S + S A_1 and q = S w_0 the deflated equation reads
    L_1(S) + s (row q^T + q row^T) = c Delta_W, whence
    S = c S_C - s sum_j q_j M_j with S_C = L_1^{-1}(Delta_W) and
    M_j = L_1^{-1}(row e_j^T + e_j row^T).  Multiplying by w_0 leaves the
    K x K capacitance system (I + s G) q = c a, a = S_C w_0, G[:, j] = M_j w_0
    (Bartels & Stewart, CACM 15(9), 1972; Hager, SIAM Review 31(2), 1989).
    One Schur factorisation of A_1 and K + 1 triangular solves are made once
    per distribution; each x0 then costs one K x K solve, batched over all
    points, and phi''(x0) = drift_bound(B, x0) - w_0^T q.

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
    sym = row[None, :, None] * eye[:, None, :]  # sym[j] = row e_j^T
    rhs = np.concatenate([delta_w[None], sym + sym.transpose(0, 2, 1)])
    base = np.array([solve_lyapunov_schur(t, z, q) for q in rhs])
    base_res = np.max(np.abs(a_settled.T @ base + base @ a_settled - rhs), axis=(1, 2))
    res_c, res_m = base_res[0], base_res[1:]
    a = (base[0] @ w0)[:, None]
    g = (base[1:] @ w0).T
    # weights of |q_j| and of the capacitance defect in the residual bound
    weights = np.concatenate([res_m, np.full(k, 2.0 * np.max(np.abs(row)))])[None]
    delta_max = np.max(np.abs(delta_w))

    def phi2(x0):
        x0 = np.asarray(x0, dtype=float)
        s = 1.0 - x0.reshape(-1, 1, 1)
        c = 2.0 * s / (big_b * s + 1.0)
        cap = eye + s * g
        ca = c * a
        try:
            q = np.linalg.solve(cap, ca)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"capacitance matrix I + s G singular ({exc})") from None
        # the sum of the defect's entries bounds their maximum
        terms = np.abs(np.concatenate((q, cap @ q - ca), axis=1))
        abs_c = np.abs(c)
        bound = abs_c * res_c + np.abs(s) * (weights @ terms)
        worst = (bound / np.maximum(1.0, delta_max * abs_c)).max(initial=0.0)
        if not worst <= 1e-8:
            raise SingularSystem(f"Lyapunov residual bound {worst:.3g} max(1, c |Q|) is "
                                 "above the tolerance 1e-8 max(1, c |Q|), Q = Delta_W")
        out = drift_bound(big_b, x0) - (w0 @ q).reshape(x0.shape)
        return out if out.ndim else out[()]

    return phi2


def drift_k1_closed(b0, x0):
    """Closed-form drift second derivative for dormancy depth one."""
    q = 1.0 - b0
    one_minus = 1.0 - x0
    den = q * one_minus + 1.0
    return q * (2.0 - q * q * one_minus * one_minus) / (den * den * den)


def _k2_closed(big_b, b0, b1, b2, x0):
    q = 1.0 - b0
    one_minus = 1.0 - x0
    num = one_minus * (
        big_b * q * (1.0 - q * one_minus) * (big_b * one_minus + 2.0)
        + b2 * (2.0 * b1 + 3.0 * b2)
    ) + big_b * (4.0 - big_b * big_b * one_minus * one_minus)
    den = big_b * one_minus + 1.0
    return num / (den * den * den * (q * one_minus + 2.0))


def drift_k2_closed(d, x0):
    """Closed-form drift second derivative for dormancy depth two."""
    if d.k != 2:
        raise UnsupportedK("this closed form requires K = 2")
    return _k2_closed(d.mean_time, *d.b, x0)


def drift_factor_fn(d):
    """Second derivative of the projection map as a callable of x0, scalar or
    array: the phi'' of every diffusion limit.

    The closed forms at K <= 2 (which equal the engine output); for deeper
    seed banks ``batched_drift_fn``: exact, with one Schur factorisation per
    distribution and one K x K solve per point, all points of a call
    batched, each checked against the full Lyapunov equation.
    ``drift_second_derivative`` keeps the direct per-point solve as the
    oracle.  Build the callable once per distribution and call it on arrays.

    For a sequence of M distributions the callable maps an (n,) array x0 to
    (M, n) rows, each bit for bit the distribution's own: one closed-form
    evaluation on (M, 1) columns of [B, b0, ..., bK] when all share K = 1 or
    all K = 2, else one call per distribution.  The closed forms are sums,
    products and quotients, with no powers, so a scalar, an array and a
    column round alike.
    """
    if isinstance(d, GerminationDistribution):
        if d.k == 1:
            return functools.partial(drift_k1_closed, d.b[0])
        return functools.partial(drift_k2_closed, d) if d.k == 2 else batched_drift_fn(d)
    ds = list(d)
    if not ds:
        raise ValidationError("a batch needs at least one distribution")
    depths = {di.k for di in ds}
    if depths in ({1}, {2}):
        big_b, *b = np.array([[di.mean_time, *di.b] for di in ds]).T[:, :, None]
        if depths == {1}:
            return functools.partial(drift_k1_closed, b[0])
        return functools.partial(_k2_closed, big_b, *b)
    rows = [drift_factor_fn(di) for di in ds]
    return lambda x0: np.array([fn(x0) for fn in rows])


def fast_second_derivatives_k1(b0, x0):
    """Mixed second derivatives of the fast-regime projection map at K = 1.

    Returns (d2Phi0/dx0 dups0, d2Phi0/dups0^2) evaluated on the manifold.
    Exact rational functions of q = 1 - b0 and x0.
    """
    return (_fast_x_ups_k1(b0, x0),
            x0 * (1.0 - x0) * _fast_ups_ups_reduced_k1(b0, x0))


def _fast_x_ups_k1(b0, x0):
    """d2Phi0/dx0 dups0 on the manifold at K = 1."""
    q = 1.0 - b0
    x = x0
    den1 = q * (1.0 - x) + 1.0
    den = (q * (1.0 - x) + 2.0) * (den1 * den1 * den1)
    p3 = (
        q * q * q * (x * x * x * x)
        - 3.0 * (q * q * q) * (x * x * x)
        + 3.0 * (q * q * q) * (x * x)
        - q * q * q * x
        - 2.0 * (q * q) * (x * x * x)
        + 3.0 * (q * q) * (x * x)
        - q * q
        - q * (x * x)
        + 3.0 * q * x
        - 2.0 * q
        + 3.0 * x
        - 1.0
    )
    return -q * p3 / den


def _fast_ups_ups_reduced_k1(b0, x0):
    """d2Phi0/dups0^2 divided by its exact factor x0 (1 - x0); boundary-safe."""
    q = 1.0 - b0
    x = x0
    den1 = q * (1.0 - x) + 1.0
    den = (q * (1.0 - x) + 2.0) * (den1 * den1 * den1)
    p4 = (
        2.0 * (q * q) * (x * x * x)
        - 5.0 * (q * q) * (x * x)
        + 4.0 * (q * q) * x
        - q * q
        - 6.0 * q * (x * x)
        + 8.0 * q * x
        - 2.0 * q
        + 5.0 * x
        - 1.0
    )
    return -(q * q) * p4 / den


def theta_fast_closed_k1(b0, x0):
    """Closed-form environment entries of the fast-regime curvature matrix at K=1.

    Returns (theta_x0_ups0, theta_ups0_ups0); the frequency-frequency block of
    the fast curvature matrix coincides with the constant-environment one.
    """
    q = 1.0 - b0
    x = x0
    den = (q * (1.0 - x) + 2.0) * (q * (1.0 - x) + 1.0) ** 3
    p1 = (
        q**3 * x**3
        - 2.0 * q**3 * x**2
        + q**3 * x
        - 2.0 * q**2 * x**2
        + 2.0 * q**2 * x
        + q * x
        - q
        - 1.0
    )
    theta_x_ups = -q * (1.0 - x) * p1 / den
    theta_ups_ups = (
        q**2
        * x
        * (1.0 - x) ** 2
        * (q**2 * (1.0 - x) + 2.0 * q * (2.0 - x) + 3.0)
        / den
    )
    return theta_x_ups, theta_ups_ups


def h_function(x0, b0):
    """Extra-drift shape of the fast environment (per unit p s^2 x0 (1-x0)).

    Assembled from the constant-environment drift second derivative and the
    fast-regime mixed derivatives; the removable 1/(x0 (1-x0)) singularity is
    cancelled algebraically using the exact x0 (1-x0) factor of the second
    mark derivative.
    """
    q = 1.0 - b0
    term1 = q * q * x0 * (1.0 - x0) * drift_k1_closed(b0, x0)
    term2 = _fast_ups_ups_reduced_k1(b0, x0)
    term3 = -2.0 * q * _fast_x_ups_k1(b0, x0)
    term4 = 2.0 * q * ((1.0 - x0) + b0 * x0) / (q * (1.0 - x0) + 1.0)
    return term1 + term2 + term3 + term4
