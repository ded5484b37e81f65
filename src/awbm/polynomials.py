"""The genericity polynomials P_m and the hull-shift combinator f ↦ f^omega.

P_m = prod_{i=1}^{n} prod_{j=1}^{m} (X_i - X_{i+1} - j) with X_{n+1} = X_1.
A weight tuple is generic for a polynomial P when P is nonzero mod p at
every embedding; `genericity` tests that, or depth.  A layer of its own: of
the commands, only `generic` runs it.
"""

from __future__ import annotations

import math

from .affine_weyl import conv_lattice_points
from .context import GroupContext
from .errors import ArgumentError, CapacityError
from .weights import weight_depth

__all__ = ["Polynomial", "build_Pm", "superscript", "genericity"]

# Expanding d linear factors in n variables makes at most d·C(d + n, n) term
# updates, so past this bound an expansion is refused before any term is
# formed.  The largest admitted ones (n = 2, 3, 4, 5 at d = 98, 39, 24, 15)
# take 0.03-0.13 s in process (Python 3.11, one core of an Intel Xeon).
MAX_EXPANSION = 5 * 10 ** 5


class Polynomial:
    """A product of shifted P_m's in n variables: each part (m, s) is the
    factor P_m(X - s)."""

    def __init__(self, nvars: int, parts):
        self.nvars = nvars
        self.parts = tuple(parts)

    def __mul__(self, other):
        return Polynomial(self.nvars, self.parts + other.parts)

    def shift(self, nu):
        """Substitute X_i -> X_i - nu_i."""
        return Polynomial(self.nvars, [
            (m, tuple(a + b for a, b in zip(s, nu))) for m, s in self.parts])

    def _gaps(self, point):
        """(m, i, g) per part and i: that part's factors X_i - X_{i+1} - j,
        1 <= j <= m, take the values g - j at point."""
        for m, s in self.parts:
            x = [a - b for a, b in zip(point, s)]
            for i in range(self.nvars):
                yield m, i, x[i] - x[(i + 1) % self.nvars]

    def eval(self, point) -> int:
        """The exact value at point, the product of the factor values."""
        return math.prod(g - j for m, _, g in self._gaps(point)
                         for j in range(1, m + 1))

    def nonzero_mod(self, point, p: int) -> bool:
        """eval(point) % p != 0: a factor g - j, 1 <= j <= m, vanishes mod p
        exactly when (g - 1) % p < m."""
        return all((g - 1) % p >= m for m, _, g in self._gaps(point))

    def expand(self):
        """{exponent tuple: coefficient}, multiplied out one linear factor
        X_i - X_{i+1} + (g - j) at a time; refused past MAX_EXPANSION."""
        n = self.nvars
        d = n * sum(m for m, _ in self.parts)
        if d * math.comb(d + n, n) > MAX_EXPANSION:
            raise CapacityError(
                f"expanding {d} linear factors in {n} variables takes more "
                f"than MAX_EXPANSION = {MAX_EXPANSION} term updates")
        # g is the gap at the origin; the monomial with exponents e is the
        # key sum e_t·unit[t], whose digits base d + 1 are the exponents
        unit = [(d + 1) ** t for t in range(n)]
        terms = {0: 1}
        for m, i, g in self._gaps((0,) * n):
            ui, uk = unit[i], unit[(i + 1) % n]
            for j in range(1, m + 1):
                out = {}
                for e, a in terms.items():
                    out[e + ui] = out.get(e + ui, 0) + a
                    out[e + uk] = out.get(e + uk, 0) - a
                    out[e] = out.get(e, 0) + a * (g - j)
                terms = out
        return {tuple(e // u % (d + 1) for u in unit): a
                for e, a in terms.items() if a}

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.expand() == other.expand()

    def to_json(self):
        return {"nvars": self.nvars,
                "terms": [[list(e), c] for e, c in sorted(self.expand().items())]}


def build_Pm(n: int, m: int) -> Polynomial:
    """P_m = prod_{i=1}^{n} prod_{j=1}^{m} (X_i - X_{i+1} - j), X_{n+1} = X_1."""
    if m < 0:
        raise ArgumentError("m must be nonnegative")
    return Polynomial(n, [(m, (0,) * n)])


def superscript(P: Polynomial, omega) -> Polynomial:
    """f^omega(t) = prod over nu in Conv(omega) of f(t - nu), omega dominant."""
    if any(omega[i] < omega[i + 1] for i in range(len(omega) - 1)):
        raise ArgumentError(f"superscript weight {omega} is not dominant")
    out = Polynomial(P.nvars, ())
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
        return all(polynomial.nonzero_mod(mu_j, p) for mu_j in mu)
    if m is None:
        raise ArgumentError("need a depth bound or a polynomial")
    return all(weight_depth(mu_j, p) >= m for mu_j in mu)
