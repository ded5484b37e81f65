"""Serre weights of GL_n(F_{p^f}) through lowest alcove presentations.

A weight is named by a pair (w1, omega): an f-tuple w1 of restricted dominant
elements and an integer n x f weight matrix omega, taken modulo the diagonal
central-translation action (w1, omega) ~ (t_nu w1, omega - nu) for nu in
X^0(T)^J.  The presentation carries an algebraic central character, one
integer per embedding.  The module also provides the depth tests; the
highest weight kappa of a presentation, and the presentation of a kappa,
live in `highest_weights`, and the genericity polynomials P_m in
`polynomials`.
"""

from __future__ import annotations

from .affine_weyl import (
    Record,
    degree,
    element_depth,
    eta_vector,
    multiply,
    sort_key,
    translation,
)
from .context import WeylTuple, weight_depth_base
from .errors import ArgumentError

__all__ = [
    "SerreWeightPresentation",
    "CentralCharacter",
    "weight_depth",
    "weight_depth_base",
    "central_character",
]


# ---------------------------------------------------------------------------
# depth

def weight_depth(lam, p: int) -> int:
    """Largest m such that lam is m-deep in some p-alcove: m < |<lam+eta,
    alpha∨> + p k| for all alpha > 0 and k.  Returns -1 if on a wall: the
    depth of t_{lam+eta}."""
    return element_depth(translation(
        tuple(x + e for x, e in zip(lam, eta_vector(len(lam))))), p)


# ---------------------------------------------------------------------------
# presentations

class SerreWeightPresentation(Record):
    """A lowest alcove presentation (w1, omega) over a fixed context, stored
    as the canonical representative of its central-translation class, so
    that equality and hash of the fields are those of the class."""

    __slots__ = ("w1", "omega", "ctx")

    def __init__(self, w1, omega, ctx):
        if w1.f != ctx.f or w1.n != ctx.n:
            raise ArgumentError("presentation does not match its context")
        super().__init__(w1, ctx.weight_tuple(omega, "omega"), ctx)
        self.canonical()

    def canonical(self) -> "SerreWeightPresentation":
        """Move to the representative (t_c w1_j, omega_j - c) with
        max(w1_j.nu) = 0 at every embedding j; run once, at construction."""
        comps, rows = [], []
        for a, row in zip(self.w1, self.omega):
            c = max(a.nu)
            comps.append(multiply(translation((-c,) * self.ctx.n), a) if c else a)
            rows.append(tuple(x + c for x in row))
        object.__setattr__(self, "w1", WeylTuple(tuple(comps)))
        object.__setattr__(self, "omega", tuple(rows))
        return self

    def depth(self) -> int:
        p = self.ctx.require_prime()
        eta = eta_vector(self.ctx.n)
        return min(
            weight_depth(tuple(x - e for x, e in zip(row, eta)), p)
            for row in self.omega)

    def sort_key(self):
        return tuple(
            sort_key(a) + (row,) for a, row in zip(self.w1, self.omega))

    def to_json(self):
        return {"w1": self.w1.to_json(), "omega": [list(r) for r in self.omega],
                "zeta": list(central_character(self).zeta)}


class CentralCharacter(Record):
    """An algebraic central character, one integer per embedding via the
    identification X*(Z) = Z, lam ↦ sum(lam)."""

    __slots__ = ("zeta",)

    def __init__(self, zeta):
        object.__setattr__(self, "zeta", tuple(int(z) for z in zeta))

    @property
    def f(self):
        return len(self.zeta)


def central_character(lap: SerreWeightPresentation) -> CentralCharacter:
    """Per embedding, the degree of t_{omega - eta} w1 (independent of the
    representative)."""
    shift = sum(eta_vector(lap.ctx.n))
    return CentralCharacter(tuple(sum(row) - shift + degree(a)
                                  for a, row in zip(lap.w1, lap.omega)))
