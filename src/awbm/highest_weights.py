"""Highest weights of Serre weights: kappa from a lowest alcove presentation
and back.

For the p-dot action w̃·lam = w(lam + eta + p nu) - eta, the presentation
(w1, omega) of `weights` names the p-restricted highest weight

    kappa = pi^{-1}(w1) · (omega - eta),

computed embeddingwise by `serre_weight`.  `lap_of` inverts it: the alcove
of kappa + eta gives a presentation of F(kappa), and a central twist by
omega-powers moves it to the one whose central character is the given zeta.
Characters are compared modulo (p - pi) X^0(T)^J (`reduce_offset`).  Only the
`weight` and `lap` commands run this layer.
"""

from __future__ import annotations

from .affine_weyl import (WeylElement, eta_vector, invert, multiply,
                          omega_power, perm_act, wa_part_and_omega)
from .context import GroupContext, WeylTuple, weight_depth_base
from .errors import ArgumentError, CompatibilityError, DepthError, InternalError
from .weights import (CentralCharacter, SerreWeightPresentation,
                      central_character, weight_depth)

__all__ = ["serre_weight", "lap_of", "weights_equal_mod_center", "dot_action",
           "reduce_offset"]


# ---------------------------------------------------------------------------
# the p-dot action

def dot_action(a: WeylElement, lam, p: int):
    """w̃ · lam = w(lam + eta + p nu) - eta; for the carrier (w, m) = t_m ∘ w
    this is lam ↦ w(lam + eta) + p m - eta."""
    n = a.n
    eta = eta_vector(n)
    shifted = tuple(x + e for x, e in zip(lam, eta))
    moved = perm_act(a.w, shifted)
    return tuple(mv + p * c - e for mv, c, e in zip(moved, a.nu, eta))


def _alcove_element(num, p: int):
    """The unique u in W_a with num/p in u(A0), num off the walls mod p:
    t_nu ∘ w does it for nu = num // p and w sorting the residues num % p in
    decreasing order, and so does its W_a-part, as Omega stabilises A0."""
    order = sorted(range(len(num)), key=lambda i: num[i] % p, reverse=True)
    u = WeylElement(tuple(i + 1 for i in order), tuple(x // p for x in num))
    return wa_part_and_omega(u)[0]


# ---------------------------------------------------------------------------
# central characters modulo (p - pi)

def reduce_offset(zeta: CentralCharacter, other: CentralCharacter, p: int):
    """Solve (p - pi) xi = zeta - other; returns the integer vector xi or
    None when the difference is not in the image."""
    if zeta.f != other.f:
        raise ArgumentError("central characters over different embedding sets")
    d = [a - b for a, b in zip(zeta.zeta, other.zeta)]
    f = zeta.f
    num = sum(p ** (f - 1 - k) * d[k] for k in range(f))
    den = p ** f - 1
    if num % den != 0:
        return None
    xi = [num // den]
    for j in range(f - 1):
        xi.append(p * xi[-1] - d[j])
    if p * xi[-1] - d[f - 1] != xi[0]:
        raise InternalError("circulant solve failed")
    return tuple(xi)


def weights_equal_mod_center(k1, k2, p: int) -> bool:
    """Equality of highest weights in X*(T)^J / (p - pi) X^0(T)^J."""
    f = len(k1)
    diffs = []
    for j in range(f):
        d = [a - b for a, b in zip(k1[j], k2[j])]
        if len(set(d)) != 1:
            return False
        diffs.append(d[0])
    zero = CentralCharacter((0,) * f)
    return reduce_offset(CentralCharacter(tuple(diffs)), zero, p) is not None


# ---------------------------------------------------------------------------
# kappa <-> presentation

def serre_weight(lap: SerreWeightPresentation):
    """kappa = pi^{-1}(w1) · (omega - eta), computed embeddingwise."""
    ctx = lap.ctx
    p = ctx.require_prime()
    if not lap.w1.is_restricted():
        raise ArgumentError("w1 components must be restricted dominant")
    eta = eta_vector(ctx.n)
    shifted = lap.w1.pi_inverse()
    return tuple(
        dot_action(shifted[j],
                   tuple(x - e for x, e in zip(lap.omega[j], eta)), p)
        for j in range(ctx.f))


def _central_twist_weight(lap: SerreWeightPresentation, xi):
    """The presentation (w1 · pi(delta^{-1}), delta · (omega - eta) + eta) for
    the central-twist delta with degrees xi."""
    ctx = lap.ctx
    p = ctx.require_prime()
    eta = eta_vector(ctx.n)
    delta = [omega_power(ctx.n, x) for x in xi]
    comps, rows = [], []
    for j in range(ctx.f):
        comps.append(multiply(lap.w1[j], invert(delta[(j + 1) % ctx.f])))
        moved = dot_action(delta[j], tuple(x - e for x, e in zip(lap.omega[j], eta)), p)
        rows.append(tuple(x + e for x, e in zip(moved, eta)))
    return SerreWeightPresentation(WeylTuple(tuple(comps)), tuple(rows), ctx)


def lap_of(ctx: GroupContext, kappa, zeta: CentralCharacter) -> SerreWeightPresentation:
    """The unique lowest alcove presentation of the weight F(kappa) compatible
    with zeta; requires kappa to be 0-deep and p-restricted."""
    p = ctx.require_prime()
    kappa = ctx.weight_tuple(kappa, "kappa")
    if zeta.f != ctx.f:
        raise ArgumentError("central character has the wrong number of embeddings")
    eta = eta_vector(ctx.n)
    units, rows = [], []
    for j in range(ctx.f):
        if weight_depth(kappa[j], p) < 0:
            raise DepthError(
                f"kappa at embedding {j} is not 0-deep; presentation not unique")
        u = _alcove_element(tuple(x + e for x, e in zip(kappa[j], eta)), p)
        mu0 = dot_action(invert(u), kappa[j], p)
        if weight_depth_base(mu0, p) < 0:
            raise InternalError("alcove reduction gave a non-interior base weight")
        units.append(u)
        rows.append(tuple(x + e for x, e in zip(mu0, eta)))
    w1 = WeylTuple(tuple(units)).pi()
    cand = SerreWeightPresentation(w1, tuple(rows), ctx)
    got = central_character(cand)
    xi = reduce_offset(zeta, got, p)
    if xi is None:
        raise CompatibilityError(
            f"zeta {zeta.zeta} is not congruent to the weight's character {got.zeta}")
    for j, row in enumerate(kappa):
        if any(not 0 <= a - b < p for a, b in zip(row, row[1:])):
            raise ArgumentError(f"kappa at embedding {j} is not p-restricted: need "
                                f"0 <= kappa_i - kappa_(i+1) <= {p - 1}, have {row}")
    out = _central_twist_weight(cand, xi)
    if central_character(out).zeta != zeta.zeta:
        raise InternalError("central-character twist failed")
    if not weights_equal_mod_center(serre_weight(out), kappa, p):
        raise InternalError("lap_of did not invert serre_weight")
    return out
