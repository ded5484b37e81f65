"""Tame inertial types for GL_n over an unramified base, as combinatorial data.

A type is presented by a pair (s, mu): an f-tuple s of finite Weyl elements
and a weight tuple mu with mu_j + eta_j in the base alcove.  Its Weyl avatar
is w̃(tau) = t_{mu+eta} s per embedding; its descent data and inertial
weights are derived in `descent`.
"""

from __future__ import annotations

from .context import GroupContext, WeylTuple, weight_depth_base
from .group import (
    Record,
    WeylElement,
    eta_vector,
    finite,
    multiply,
    translation,
)
from .errors import ArgumentError, InputError
from .weights import CentralCharacter

__all__ = ["TameTypePresentation", "make_type", "compatible_zeta"]


class TameTypePresentation(Record):
    """A lowest alcove presentation (s, mu) of a tame inertial type; kind 'E'
    for types in characteristic zero, 'F' for mod-p types (the two differ only
    in how central characters are attached)."""

    __slots__ = ("s", "mu", "ctx", "kind")

    def __init__(self, s, mu, ctx, kind="E"):
        if kind not in ("E", "F"):
            raise InputError("kind must be 'E' (type) or 'F' (mod-p type)")
        if s.f != ctx.f or s.n != ctx.n:
            raise ArgumentError("Weyl tuple does not match the context")
        if any(c.nu != (0,) * ctx.n for c in s):
            raise ArgumentError("type data must have zero translation parts")
        super().__init__(s, ctx.weight_tuple(mu, "mu"), ctx, kind)

    @property
    def f(self):
        return self.ctx.f

    @property
    def n(self):
        return self.ctx.n

    def w_tilde(self) -> WeylTuple:
        """t_{mu+eta} s per embedding."""
        eta = eta_vector(self.n)
        return WeylTuple(tuple(
            multiply(translation(tuple(m + e for m, e in zip(self.mu[j], eta))),
                     self.s[j])
            for j in range(self.f)))

    def w_tilde_star(self) -> WeylTuple:
        return self.w_tilde().star()

    def depth(self) -> int:
        """Depth of mu in the base alcove (negative when not 0-generic)."""
        p = self.ctx.require_prime()
        return min(weight_depth_base(row, p) for row in self.mu)

    def sort_key(self):
        return tuple((self.s[j].w, self.mu[j]) for j in range(self.f))

    def to_json(self):
        return {"s": self.s.to_json(), "mu": [list(r) for r in self.mu],
                "kind": self.kind}


def make_type(ctx: GroupContext, s, mu, kind: str = "E") -> TameTypePresentation:
    """Build a presentation from finite Weyl parts and a weight tuple."""
    if isinstance(s, WeylTuple):
        st = s
    else:
        st = WeylTuple(tuple(
            c if isinstance(c, WeylElement) else finite(tuple(c)) for c in s))
    return TameTypePresentation(st, tuple(tuple(r) for r in mu), ctx, kind)


def compatible_zeta(tau: TameTypePresentation, lam=None) -> CentralCharacter:
    """The central character attached to the presentation: per embedding the
    degree of t_lam t_{mu+eta} s for kind 'E', of t_mu s for kind 'F'."""
    n, f = tau.n, tau.f
    eta_sum = sum(eta_vector(n))
    lam = tau.ctx.weight_tuple(((0,) * n,) * f if lam is None else lam, "lambda")
    if tau.kind == "E":
        zeta = tuple(sum(lam[j]) + sum(tau.mu[j]) + eta_sum for j in range(f))
    else:
        if any(any(x for x in row) for row in lam):
            raise ArgumentError("mod-p types only carry plain compatibility")
        zeta = tuple(sum(tau.mu[j]) for j in range(f))
    return CentralCharacter(zeta)
