"""Generic reduction engine for flows with a one-dimensional attractor manifold.

Given a smooth flow field F whose zero set Gamma is a curve parametrised by the
first coordinate, and whose Jacobian on Gamma has exactly one null eigenvalue
with the remaining spectrum strictly stable, this module computes:

* the null eigenpair (u, v) and the centre/stable projections,
* the curvature matrix Theta of the nonlinear stable manifold, obtained as the
  unique symmetric solution of the semistable Lyapunov equation
  J^T Theta + Theta J = P_s^T (sum_i v_i Hess F_i) P_s  with  Theta u = 0,
* the curvature matrix by its integral formula, a quadrature oracle for the
  Lyapunov solve, and
* the first and second derivatives of the projection map Phi_0 (the
  infinite-time limit of the flow), via the Lyapunov-Schmidt / Parsons-Rogers
  style formulas.

Phi itself, by direct ODE integration, is a test reference in
``tests/oracles.py``.
"""

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DomainViolation,
    MultipleNullEigenvalues,
    NoNullEigenvalue,
    SingularSystem,
    SpectrumViolation,
    TruncationNotConverged,
)

JAC_FD_STEP = 1e-6
HESS_FD_STEP = 1e-4
VPRIME_FD_STEP = 1e-5
NULL_TOL = 1e-8
# theta_integral's first horizon and Simpson step
THETA_T_MAX = 20.0
THETA_QUAD_STEP = 0.005


def fd_jacobian(func, x):
    """Central-difference Jacobian of a vector field at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x))
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = JAC_FD_STEP
        jac[:, j] = (np.asarray(func(x + e)) - np.asarray(func(x - e))) / (2 * JAC_FD_STEP)
    return jac


def fd_hessians(func, x):
    """Central-difference Hessians of each component of a vector field at x.

    Returns a list of symmetric (dim x dim) matrices, one per component.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    f0 = np.asarray(func(x))
    m = f0.size
    hess = [np.empty((n, n)) for _ in range(m)]
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = HESS_FD_STEP
        fpp = np.asarray(func(x + ea))
        fmm = np.asarray(func(x - ea))
        diag = (fpp - 2 * f0 + fmm) / HESS_FD_STEP**2
        for comp in range(m):
            hess[comp][a, a] = diag[comp]
        for c in range(a + 1, n):
            ec = np.zeros(n)
            ec[c] = HESS_FD_STEP
            cross = (
                np.asarray(func(x + ea + ec))
                - np.asarray(func(x + ea - ec))
                - np.asarray(func(x - ea + ec))
                + np.asarray(func(x - ea - ec))
            ) / (4 * HESS_FD_STEP**2)
            for comp in range(m):
                hess[comp][a, c] = cross[comp]
                hess[comp][c, a] = cross[comp]
    return hess


@dataclass
class FlowField:
    """A smooth vector field on an axis-aligned box with optional analytic
    derivatives.

    ``domain`` has one (lo, hi) row per coordinate.  ``constraint`` is an
    optional extra domain predicate (e.g. x0 <= xi for the slow-environment
    flow) that the box cannot express.
    """

    dim: int
    domain: np.ndarray
    func: callable
    jac: callable = None
    hess: callable = None
    constraint: callable = None

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainViolation(f"point has shape {x.shape}, expected ({self.dim},)")
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        tol = 1e-9
        # written so that a NaN fails the check
        if not (np.all(x >= lo - tol) and np.all(x <= hi + tol)):
            raise DomainViolation(f"point {x} outside box {self.domain.tolist()}")
        if self.constraint is not None and not self.constraint(x):
            raise DomainViolation(f"point {x} violates the flow's domain constraint")
        return x

    def __call__(self, x):
        x = self._check_domain(x)
        return np.asarray(self.func(x), dtype=float)

    def jacobian(self, x):
        x = self._check_domain(x)
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=float)
        return fd_jacobian(self.func, x)

    def hessians(self, x):
        x = self._check_domain(x)
        if self.hess is not None:
            return [np.asarray(h, dtype=float) for h in self.hess(x)]
        return fd_hessians(self.func, x)


@dataclass
class ManifoldChart:
    """Parametrisation gamma of the attractor curve by the first coordinate."""

    gamma: callable
    gamma_prime: callable
    gamma_second: callable


def diagonal_chart(dim):
    """The straight diagonal chart gamma(x0) = (x0, ..., x0) in R^dim."""
    ones = np.ones(dim)
    return ManifoldChart(
        gamma=lambda x0: x0 * ones,
        gamma_prime=lambda x0: ones.copy(),
        gamma_second=lambda x0: np.zeros(dim),
    )


def null_eigenpair(j):
    """Right/left null eigenvectors (u, v) of j with <u, v> = 1.

    u is normalized so its first nonzero coordinate (preferring the first
    coordinate) is +1.
    """
    j = np.asarray(j, dtype=float)
    eigvals = np.linalg.eigvals(j)
    near_zero = np.abs(eigvals) < NULL_TOL
    if not near_zero.any():
        raise NoNullEigenvalue(f"no eigenvalue within {NULL_TOL} of 0: {eigvals}")
    if near_zero.sum() > 1:
        raise MultipleNullEigenvalues(f"{near_zero.sum()} eigenvalues near 0: {eigvals}")

    def null_vector(mat):
        # smallest right singular vector spans the (1-D) kernel
        _, s, vt = np.linalg.svd(mat)
        return vt[-1]

    u = null_vector(j)
    v = null_vector(j.T)
    if abs(u[0]) > 1e-12:
        u = u / u[0]
    else:
        pivot = np.argmax(np.abs(u))
        u = u / u[pivot]
    dot = v @ u
    if abs(dot) < 1e-14:
        raise SingularSystem("left and right null vectors are orthogonal")
    v = v / dot
    return u, v


def spectrum_gate(j):
    """Verify one null eigenvalue with the rest inside D(1) = {|z + 1| < 1}.

    Returns the spectrum on success; raises SpectrumViolation otherwise.
    """
    j = np.asarray(j, dtype=float)
    eigvals = np.linalg.eigvals(j)
    near_zero = np.abs(eigvals) < NULL_TOL
    if near_zero.sum() != 1:
        raise SpectrumViolation(
            f"expected exactly one null eigenvalue, found {near_zero.sum()}",
            eigenvalues=eigvals,
        )
    rest = eigvals[~near_zero]
    bad = np.abs(rest + 1.0) >= 1.0
    if bad.any():
        raise SpectrumViolation(
            f"eigenvalues outside D(1): {rest[bad]}", eigenvalues=eigvals
        )
    return eigvals


def projections(u, v):
    """Centre projection P_c = u v^T and stable projection P_s = I - u v^T."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    p_c = np.outer(u, v)
    p_s = np.eye(u.size) - p_c
    return p_c, p_s


def lyapunov_rhs(hessians, v, p_s):
    """Right-hand side P_s^T (sum_i v_i Hess F_i) P_s of the Lyapunov equation."""
    weighted = sum(vi * np.asarray(h, dtype=float) for vi, h in zip(v, hessians))
    return p_s.T @ weighted @ p_s


def deflation_basis(u):
    """Orthonormal basis W (dim x dim-1) of the complement of u.

    The columns of one Householder reflector that maps u onto a multiple of
    the first unit vector, less its first column.
    """
    u = np.asarray(u, dtype=float)
    h = u / np.linalg.norm(u)
    h[0] += 1.0 if h[0] >= 0.0 else -1.0
    reflector = np.eye(u.size) - np.outer(h, h) / abs(h[0])
    return reflector[:, 1:]


def _check_lyapunov_residual(a, x, q):
    """Raise SingularSystem unless A^T X + X A = Q to within 1e-8 max(1, |Q|)."""
    residual = np.max(np.abs(a.T @ x + x @ a - q))
    if not residual <= 1e-8 * max(1.0, np.max(np.abs(q))):
        raise SingularSystem(f"Lyapunov residual {residual} too large")


def _no_sort(wr, wi):
    return 0


@functools.cache
def _lapack():
    """scipy's compiled LAPACK wrappers (``scipy.linalg._flapack``), loaded on
    the first call only and by path: ``scipy/linalg/__init__.py``, which
    imports dozens of further scipy modules, never runs.  The routines are
    the very objects ``scipy.linalg.lapack`` exports.  Raises
    ImportError, naming the directory searched, if scipy has no such module.
    """
    import scipy  # its _distributor_init readies the libraries the wrappers link

    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"no scipy.linalg._flapack in {where}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack


def schur_form(a):
    """Real Schur form A = Z T Z^T (LAPACK gees) as (T, Z); raises
    SingularSystem when the factorisation fails."""
    t, _, _, _, z, _, info = _lapack().dgees(_no_sort, a)
    if info != 0:
        raise SingularSystem(f"Schur factorisation failed (gees info {info})")
    return t, z


def solve_lyapunov_schur(t, z, q):
    """S with A^T S + S A = Q for A = Z T Z^T in Schur form, without a
    residual check: the quasi-triangular Sylvester equation
    T^T Y + Y T = Z^T Q Z (LAPACK trsyl), S = Z Y Z^T.  Raises SingularSystem
    when two eigenvalues of A (nearly) sum to zero."""
    y, scale, info = _lapack().dtrsyl(t, t, z.T @ q @ z, trana="T")
    if info != 0:
        raise SingularSystem(
            f"Lyapunov operator singular: eigenvalues of A sum to ~0 (trsyl info {info})"
        )
    return z @ (y / scale) @ z.T


def solve_lyapunov(a, q):
    """S with A^T S + S A = Q, by the Bartels-Stewart method
    (``schur_form``, then ``solve_lyapunov_schur``).

    Raises SingularSystem when the factorisation fails, when two eigenvalues
    of A (nearly) sum to zero, or when the residual exceeds 1e-8 max(1, |Q|).
    """
    s = solve_lyapunov_schur(*schur_form(a), q)
    _check_lyapunov_residual(a, s, q)
    return s


def solve_theta(j, hessians, v, p_s, u):
    """Unique symmetric Theta with J^T Theta + Theta J = rhs and Theta u = 0.

    Both rhs and Theta vanish along u, so Theta = W S W^T with W an
    orthonormal basis of the complement of u (``deflation_basis``), and S
    solves the deflated Lyapunov equation A^T S + S A = W^T rhs W with
    A = W^T J W, whose spectrum is that of J without its null eigenvalue
    (``solve_lyapunov``, O(dim^3)).  Raises SingularSystem when the deflated
    equation is singular or the residual of the full equation exceeds
    1e-8 max(1, |rhs|).
    """
    j = np.asarray(j, dtype=float)
    rhs = lyapunov_rhs(hessians, v, p_s)
    w = deflation_basis(u)
    s = solve_lyapunov(w.T @ j @ w, w.T @ rhs @ w)
    theta = w @ s @ w.T
    theta = 0.5 * (theta + theta.T)
    _check_lyapunov_residual(j, theta, rhs)
    return theta


def step_exponential(a):
    """e^A for theta_integral's small step: scaled by 2^-s until
    ||A 2^-s||_1 <= 1/2, the Taylor series summed until a term no longer
    changes the sum, then squared s times."""
    squarings = math.ceil(math.log2(max(2.0 * np.linalg.norm(a, 1), 1.0)))
    a = a / 2.0 ** squarings
    total = term = np.eye(len(a))
    for k in itertools.count(1):
        term = term @ a / k
        if np.array_equal(total + term, total):
            break
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def theta_integral(j, hessians, v, p_s):
    """Theta via the integral formula -int_0^inf e^{J^T t} C e^{J t} dt.

    Composite Simpson quadrature on a uniform grid of step at most
    ``THETA_QUAD_STEP``, propagating e^{J t} by repeated multiplication with
    one precomputed step exponential (``step_exponential``).  The horizon
    starts at ``THETA_T_MAX`` and is doubled until the integrand's max-norm at
    the endpoint drops below 1e-12; a non-finite J raises
    TruncationNotConverged at once.  No subcommand runs it: perfbench imports
    it (ROADMAP item 18).
    """
    j = np.asarray(j, dtype=float)
    c_mat = lyapunov_rhs(hessians, v, p_s)
    if np.max(np.abs(c_mat)) == 0.0:
        return np.zeros_like(j)
    if not np.all(np.isfinite(j)):
        raise TruncationNotConverged("a non-finite Jacobian: the integrand has no tail")

    t_max = THETA_T_MAX
    t_cap = 20_000.0
    while True:
        n_steps = int(np.ceil(t_max / THETA_QUAD_STEP))
        if n_steps % 2 == 1:
            n_steps += 1
        h = t_max / n_steps
        step = step_exponential(j * h)
        prop = np.eye(j.shape[0])
        integral = np.zeros_like(j)
        last = None
        for i in range(n_steps + 1):
            f_val = prop.T @ c_mat @ prop
            if i == 0 or i == n_steps:
                weight = 1.0
            elif i % 2 == 1:
                weight = 4.0
            else:
                weight = 2.0
            integral += weight * f_val
            last = f_val
            if i < n_steps:
                prop = prop @ step
        if np.max(np.abs(last)) < 1e-12:
            integral *= h / 3.0
            result = -integral
            return 0.5 * (result + result.T)
        t_max *= 2
        if t_max > t_cap:
            raise TruncationNotConverged(
                f"integrand tail still {np.max(np.abs(last))} at t={t_max / 2}"
            )


def phi0_derivatives(chart, x0, v_fn, theta, v_prime_fn=None):
    """First and second derivatives of the projection map's first component.

    ``v_fn`` maps the chart parameter to the normalized left null eigenvector.
    The gradient is grad_i = v_i / sum_l v_l gamma'_l and the Hessian follows
    the second-derivative formula for projection maps onto a one-dimensional
    attractor, using v' along the chart (central differences of v_fn unless an
    analytic v_prime_fn is supplied) and the curvature matrix theta.
    """
    v = np.asarray(v_fn(x0), dtype=float)
    gp = np.asarray(chart.gamma_prime(x0), dtype=float)
    gss = np.asarray(chart.gamma_second(x0), dtype=float)
    denom = v @ gp
    grad = v / denom
    if v_prime_fn is not None:
        vp = np.asarray(v_prime_fn(x0), dtype=float)
    else:
        lo = max(x0 - VPRIME_FD_STEP, 0.0)
        hi = min(x0 + VPRIME_FD_STEP, 1.0)
        vp = (np.asarray(v_fn(hi)) - np.asarray(v_fn(lo))) / (hi - lo)
    correction = 2.0 * (vp @ gp) + v @ gss
    vp_grad = np.outer(vp, grad)
    full = (vp_grad + vp_grad.T - theta - np.outer(grad, grad) * correction) / denom
    # theta's upper triangle only, mirrored
    upper = np.triu(np.ones(full.shape, dtype=bool))
    return grad, np.where(upper, full, full.T)


@dataclass
class ReductionResult:
    """All reduction quantities at one point of the attractor manifold."""

    point: np.ndarray
    u: np.ndarray
    v: np.ndarray
    p_c: np.ndarray
    p_s: np.ndarray
    theta: np.ndarray
    phi0_grad: np.ndarray
    phi0_hess: np.ndarray

    def to_dict(self):
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


def reduce_point(flow, chart, x0):
    """Full reduction at the chart point gamma(x0) using generic machinery only."""

    def v_fn(s):
        jac = flow.jacobian(chart.gamma(s))
        return null_eigenpair(jac)[1]

    point = np.asarray(chart.gamma(x0), dtype=float)
    jac = flow.jacobian(point)
    spectrum_gate(jac)
    u, v = null_eigenpair(jac)
    p_c, p_s = projections(u, v)
    theta = solve_theta(jac, flow.hessians(point), v, p_s, u)
    grad, hess = phi0_derivatives(chart, x0, v_fn, theta)
    return ReductionResult(
        point=point,
        u=u,
        v=v,
        p_c=p_c,
        p_s=p_s,
        theta=theta,
        phi0_grad=grad,
        phi0_hess=hess,
    )
