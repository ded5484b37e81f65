"""Descent data and inertial weights of a tame type presentation (s, mu).

From the pair one derives the full descent-data bookkeeping over the
degree-f' = f·r extension (r the order of s_tau = s_0 s_1 ... s_{f-1}):

    alpha_j   = s_{f-1}^{-1} ... s_{f-j}^{-1} (mu_{f-j} + eta_{f-j}),
    alpha'_{j+kf} = s_tau^{-k}(alpha_j),
    a'^{(j')} = sum_i alpha'_{-j'+i} p^i          (indices mod f'),
    s'_or,{j+kf} = s_tau^{k+1} (s_{f-1}^{-1} ... s_{j+1}^{-1}),

with (s'_or,j')^{-1}(a'^{(j')}) dominant whenever mu is 0-generic.  The
characters of the type are powers of the niveau-f' fundamental character with
exponents a'^{(0)}_i mod p^{f'} - 1, and the inertial weights are

    a_tau,j' = (s'_or,j')^{-1}(a'^{(j')}) / (1 - p^{f'}),

whose mod-p reduction at j < f is s_j^{-1}(mu_j + eta_j).
"""

from __future__ import annotations

from fractions import Fraction

from .affine_weyl import (
    Record,
    eta_vector,
    pairing,
    perm_act,
    perm_compose,
    perm_identity,
    perm_inverse,
    positive_roots,
)
from .errors import ArgumentError, GenericityError, InternalError
from .inertial_types import TameTypePresentation

__all__ = ["DescentData", "descent_data", "a_tau"]


class DescentData(Record):
    """All derived descent data of a presentation over the f' = f·r cover."""

    __slots__ = (
        "s_tau", "r", "f_prime",
        "alpha_prime",    # f'-indexed weights
        "a_prime",        # f'-indexed weights a'^{(j')}
        "s_orient",       # f'-indexed permutations
        "chi_exponents",  # n exponents of the niveau-f' character, mod p^{f'}-1
        "a_tau_exact",    # f-indexed rational vectors
        "a_tau_modp",     # f-indexed vectors mod p
    )


def _perm_order(w) -> int:
    n = len(w)
    cur = tuple(w)
    order = 1
    while cur != perm_identity(n):
        cur = perm_compose(cur, w)
        order += 1
    return order


def descent_data(tau: TameTypePresentation) -> DescentData:
    p = tau.ctx.require_prime()
    n, f = tau.n, tau.f
    eta = eta_vector(n)
    if tau.depth() < 0:
        raise GenericityError("descent data needs a 0-generic presentation")
    s = [tau.s[j].w for j in range(f)]
    s_tau = perm_identity(n)
    for j in range(f):
        s_tau = perm_compose(s_tau, s[j])
    r = _perm_order(s_tau)
    f_prime = f * r
    s_tau_inv = perm_inverse(s_tau)

    alpha = []
    for j in range(f):
        if j == 0:
            alpha.append(tuple(m + e for m, e in zip(tau.mu[0], eta)))
        else:
            v = tuple(m + e for m, e in zip(tau.mu[f - j], eta))
            for t in range(f - 1, f - j - 1, -1):
                v = perm_act(perm_inverse(s[t]), v)
            alpha.append(v)

    alpha_prime = []
    for k in range(r):
        power = perm_identity(n)
        for _ in range(k):
            power = perm_compose(power, s_tau_inv)
        for j in range(f):
            alpha_prime.append(perm_act(power, alpha[j]))

    a_prime = []
    for jp in range(f_prime):
        total = (0,) * n
        for i in range(f_prime):
            term = alpha_prime[(-jp + i) % f_prime]
            total = tuple(t + (p ** i) * x for t, x in zip(total, term))
        a_prime.append(total)

    s_orient = []
    for k in range(r):
        s_tau_pow = perm_identity(n)
        for _ in range(k + 1):
            s_tau_pow = perm_compose(s_tau_pow, s_tau)
        for j in range(f):
            tail = perm_identity(n)
            for t in range(f - 1, j, -1):
                tail = perm_compose(tail, perm_inverse(s[t]))
            s_orient.append(perm_compose(s_tau_pow, tail))

    for jp in range(f_prime):
        v = perm_act(perm_inverse(s_orient[jp]), a_prime[jp])
        if any(pairing(v, root) < 0 for root in positive_roots(n)):
            raise GenericityError(
                f"orientation fails to dominate a'^{({jp})}; presentation too shallow")

    modulus = p ** f_prime - 1
    chi = tuple(a_prime[0][i] % modulus for i in range(n))

    exact, modp = [], []
    for j in range(f):
        v = perm_act(perm_inverse(s_orient[j]), a_prime[j])
        exact.append(tuple(Fraction(x, 1 - p ** f_prime) for x in v))
        modp.append(tuple(_fraction_mod_p(q, p) for q in exact[-1]))
        expected = perm_act(perm_inverse(s[j]),
                            tuple((m + e) % p for m, e in zip(tau.mu[j], eta)))
        if tuple(x % p for x in expected) != modp[-1]:
            raise InternalError("a_tau mod-p reduction check failed")

    return DescentData(s_tau, r, f_prime, tuple(alpha_prime), tuple(a_prime),
                       tuple(s_orient), chi, tuple(exact), tuple(modp))


def _fraction_mod_p(q, p: int) -> int:
    """The rational q (a Fraction) reduced mod p."""
    den = q.denominator % p
    if den == 0:
        raise ArgumentError("p divides a denominator")
    return (q.numerator % p) * pow(den, -1, p) % p


def a_tau(tau: TameTypePresentation):
    """The inertial weights, exactly and mod p."""
    dd = descent_data(tau)
    return dd.a_tau_exact, dd.a_tau_modp
