"""The genericity polynomials P_m and the hull-shift combinator f ↦ f^omega.

P_m = prod_{i=1}^{n} prod_{j=1}^{m} (X_i - X_{i+1} - j) with X_{n+1} = X_1.
A weight tuple is generic for a polynomial P when P is nonzero mod p at
every embedding; `genericity` tests that, or depth.  A layer of its own: of
the commands, only `generic` runs it.
"""

from __future__ import annotations

from .affine_weyl import GroupContext, conv_lattice_points
from .errors import ArgumentError
from .weights import weight_depth

__all__ = ["Polynomial", "build_Pm", "superscript", "genericity"]


class Polynomial:
    """Integer polynomial in n variables, stored as {exponent tuple: coeff}."""

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0) + c

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.nvars, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def shift(self, nu):
        """Substitute t_i -> t_i - nu_i."""
        out = Polynomial.constant(self.nvars, 0)
        for e, c in self.terms.items():
            term = Polynomial.constant(self.nvars, c)
            for i, exp in enumerate(e):
                base = Polynomial.variable(self.nvars, i) - Polynomial.constant(
                    self.nvars, nu[i])
                for _ in range(exp):
                    term = term * base
            out = out + term
        return out

    def eval(self, point) -> int:
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, exp in zip(point, e):
                v *= x ** exp
            total += v
        return total

    def to_json(self):
        return {"nvars": self.nvars,
                "terms": [[list(e), c] for e, c in sorted(self.terms.items())]}


def build_Pm(n: int, m: int) -> Polynomial:
    """P_m = prod_{i=1}^{n} prod_{j=1}^{m} (X_i - X_{i+1} - j), X_{n+1} = X_1."""
    if m < 0:
        raise ArgumentError("m must be nonnegative")
    out = Polynomial.constant(n, 1)
    for i in range(n):
        xi = Polynomial.variable(n, i)
        xnext = Polynomial.variable(n, (i + 1) % n)
        for j in range(1, m + 1):
            out = out * (xi - xnext - Polynomial.constant(n, j))
    return out


def superscript(P: Polynomial, omega) -> Polynomial:
    """f^omega(t) = prod over nu in Conv(omega) of f(t - nu), omega dominant."""
    if any(omega[i] < omega[i + 1] for i in range(len(omega) - 1)):
        raise ArgumentError(f"superscript weight {omega} is not dominant")
    out = Polynomial.constant(P.nvars, 1)
    for nu in conv_lattice_points(tuple(omega)):
        out = out * P.shift(nu)
    return out


def genericity(ctx: GroupContext, mu, m: int | None = None,
               polynomial: Polynomial | None = None) -> bool:
    """m-mode: every embedding of the weight tuple mu is m-deep; polynomial
    mode: P(mu_j) is nonzero mod p for every embedding."""
    p = ctx.require_prime()
    mu = ctx.weight_tuple(mu, "mu")
    if polynomial is not None:
        return all(polynomial.eval(mu_j) % p != 0 for mu_j in mu)
    if m is None:
        raise ArgumentError("need a depth bound or a polynomial")
    return all(weight_depth(mu_j, p) >= m for mu_j in mu)
