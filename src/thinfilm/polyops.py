"""Exact algebra of the scaling-invariant quartic operators.

The linearized film operator splits as x^{-1} p(D) + x^{-2} q(D) where p and
q are quartics in D = x d/dx. Conjugating by (D-1) and then (D-2) shifts the
root patterns; those shifted families are what the coercivity analysis
consumes. Polynomials are stored by their real root multisets so that root
statistics are exact; the expanded form is derived on demand. The
commutation identities with (D-1) and (D-2) are checked in the tests.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from . import stencils

MAX_INTERVALS = 10**6  # sampling intervals of one integrate_coefficients trajectory

# Root multisets of the canonical quartics. Index = number of (D-1)/(D-2)
# conjugations applied to the full operator: 0 the operator itself, 1 once
# commuted, 2 twice commuted.
_CUBIC_ROOTS = {0: (0.0, 0.0, 1.0, 2.0), 1: (0.0, 0.0, 2.0, 2.0), 2: (0.0, 0.0, 2.0, 3.0)}
_QUAD_ROOTS = {0: (0.0, 1.0, 1.0, 2.0), 1: (0.0, 1.0, 2.0, 3.0), 2: (0.0, 1.0, 3.0, 4.0)}


@dataclass(frozen=True)
class PolynomialOperator:
    """Quartic in D stored by its sorted real root multiset."""

    roots: tuple

    def __post_init__(self):
        if len(self.roots) != 4:
            raise ValueError("expected exactly 4 roots")
        object.__setattr__(self, "roots", tuple(sorted(float(r) for r in self.roots)))

    def coefficients(self):
        """Monomial coefficients c[m] of sum c_m zeta^m, ascending; read-only."""
        return _coefficients(self.roots)

    def mean(self):
        return float(np.mean(self.roots))

    def sigma(self):
        m = self.mean()
        return float(np.sqrt(np.mean([(r - m) ** 2 for r in self.roots])))


@functools.lru_cache(maxsize=64)
def _coefficients(roots):
    """Read-only expanded coefficients of prod (zeta - root), computed once per root multiset."""
    c = np.polynomial.polynomial.polyfromroots(roots).real
    c.flags.writeable = False
    return c


def eval_poly(p, zeta):
    """prod (zeta - root)."""
    zeta = np.asarray(zeta, dtype=float)
    out = np.ones_like(zeta)
    for r in p.roots:
        out = out * (zeta - r)
    return out if out.ndim else float(out)


def symbol_pair(commutations=0):
    """(cubic-part, quadratic-part) quartics of the (commuted) operator.

    commutations = 0 gives the operator itself, 1 the once-commuted and
    2 the twice-commuted variant.
    """
    if commutations not in (0, 1, 2):
        raise ValueError("commutations must be 0, 1 or 2")
    return (PolynomialOperator(_CUBIC_ROOTS[commutations]),
            PolynomialOperator(_QUAD_ROOTS[commutations]))


def monomial_action(j):
    """Coefficients (a, b) with (operator) x^j = a x^{j-1} + b x^{j-2}."""
    p, q = symbol_pair(0)
    return float(eval_poly(p, j)), float(eval_poly(q, j))


def _symbol_values(values, h, *polys):
    """P(D) w for each P, from the expanded monomial forms, for the values of w
    on a grid of spacing h; zero terms are left out, and each D^m w is taken
    once for all of them."""
    derivs = {}
    outs = []
    for p in polys:
        coeffs = p.coefficients()
        out = coeffs[0] * values
        for m in range(1, len(coeffs)):
            if coeffs[m] != 0.0:
                if m not in derivs:
                    derivs[m] = stencils.apply_derivative(values, m, h)
                out += coeffs[m] * derivs[m]
        outs.append(out)
    return outs


def _operator_values(values, grid):
    """e^{-s} p(D) w + e^{-2s} q(D) w of the values of w on grid, as values:
    the one implementation of the operator on the stencils."""
    pw, qw = _symbol_values(values, grid.h, *symbol_pair(0))
    pw *= grid.inv_x
    qw *= grid.inv_x2
    pw += qw
    return pw


def apply_operator(w):
    """The operator applied on the grid: the public form of ``_operator_values``."""
    return gridmod.GridFunction(w.grid, _operator_values(w.values, w.grid))


@dataclass
class CoefficientVector:
    """Truncated expansion coefficients (u_1..u_J) with constant forcing (f_1..f_J).

    The truncation assumes u_{J+1} = u_{J+2} = 0 (see coefficient_matrix).
    """

    J: int
    u: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        if self.u.shape != (self.J,) or self.f.shape != (self.J,):
            raise ValueError("u and f must both have length J")
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.f))):
            raise ValueError("u and f must be finite")


@dataclass
class CoefficientTrajectory:
    times: np.ndarray
    u: np.ndarray  # shape (steps, J)


def coefficient_matrix(J):
    """M with du/dt = -M u + f for the truncated expansion recursion.

    Row j (1-based): du_j/dt + p(j+1) u_{j+1} + q(j+2) u_{j+2} = f_j, with
    zero padding beyond J. M is strictly upper triangular, hence nilpotent.
    """
    p, q = symbol_pair(0)
    m = np.zeros((J, J))
    for j in range(1, J + 1):
        if j + 1 <= J:
            m[j - 1, j] = eval_poly(p, j + 1)
        if j + 2 <= J:
            m[j - 1, j + 1] = eval_poly(q, j + 2)
    return m


def integrate_coefficients(cv0, dt, T):
    """Exact trajectory of du/dt = -M u + f from u(0) = cv0.u, f = cv0.f.

    M is nilpotent (M^J = 0), so the solution is the terminating Taylor
    series u(t) = sum_{k<=J} c_k t^k with c_0 = u(0), c_1 = f - M u(0) and
    c_k = -M c_{k-1} / k (the nilpotent case of Moler & Van Loan 2003,
    SIAM Review 45:3). dt only sets the sampling: max(1, round(T / dt))
    equal intervals, at most MAX_INTERVALS, that land exactly on T.
    """
    if not 0 < dt < np.inf or not 0 < T < np.inf:
        raise ValueError("dt and T must be positive and finite")
    if T > (MAX_INTERVALS + 0.5) * dt:  # a product: T / dt overflows for a subnormal dt
        raise ValueError(f"T / dt must be at most {MAX_INTERVALS}, got dt = {dt!r}, T = {T!r}")
    J = cv0.J
    m = coefficient_matrix(J)
    times = np.linspace(0.0, T, max(1, int(round(T / dt))) + 1)
    c = np.empty((J + 1, J))
    c[0] = cv0.u

    def trajectory():
        c[1] = cv0.f - m @ cv0.u
        for k in range(2, J + 1):
            c[k] = -(m @ c[k - 1]) / k
        return np.vander(times, J + 1, increasing=True) @ c

    return CoefficientTrajectory(
        times, gridmod._finite(trajectory, "non-finite coefficients", ValueError))
