"""Descent data and inertial weights of a tame type presentation (s, mu).

From the pair one derives the full descent-data bookkeeping over the
degree-f' = f·r extension (r the order of s_tau = s_0 s_1 ... s_{f-1}):

    alpha_j   = s_{f-1}^{-1} ... s_{f-j}^{-1} (mu_{f-j} + eta_{f-j}),
    alpha'_{j+kf} = s_tau^{-k}(alpha_j),
    a'^{(j')} = sum_i alpha'_{-j'+i} p^i          (indices mod f'),
    s'_or,{j+kf} = s_tau^{k+1} (s_{f-1}^{-1} ... s_{j+1}^{-1}).

In every product written here the rightmost factor acts first.
(s'_or,j')^{-1}(a'^{(j')}) is dominant whenever mu is 0-generic.  The
characters of the type are powers of the niveau-f' fundamental character with
exponents a'^{(0)}_i mod p^{f'} - 1, and the inertial weights are

    a_tau,j' = (s'_or,j')^{-1}(a'^{(j')}) / (1 - p^{f'}),

whose mod-p reduction at j < f is s_j^{-1}(mu_j + eta_j).  As
1 - p^{f'} ≡ 1 (mod p), a_tau mod p is the oriented a' mod p.
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
from .errors import GenericityError, InternalError
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


def descent_data(tau: TameTypePresentation) -> DescentData:
    """The running product h_j = s_{f-1}^{-1} ... s_{f-j}^{-1} gives
    alpha_j = h_j(mu_{f-j} + eta) and the orientation tails
    s_{f-1}^{-1} ... s_{j+1}^{-1} = h_{f-1-j}.  One walk over the powers of
    s_tau gives alpha' and s'_or, and stops at r, where s_tau^r = 1."""
    p = tau.ctx.require_prime()
    n, f = tau.n, tau.f
    eta = eta_vector(n)
    if tau.depth() < 0:
        raise GenericityError("descent data needs a 0-generic presentation")
    s = [c.w for c in tau.s]
    h = [perm_identity(n)]  # h_0, ..., h_{f-1} and h_f = s_tau^{-1}
    for j in range(1, f + 1):
        h.append(perm_compose(h[-1], perm_inverse(s[f - j])))
    s_tau_inv = h.pop()
    s_tau = perm_inverse(s_tau_inv)
    alpha = [perm_act(h[j], tuple(m + e for m, e in zip(tau.mu[-j % f], eta)))
             for j in range(f)]
    alpha_prime, s_orient = [], []
    back, power = perm_identity(n), s_tau  # s_tau^{-k} and s_tau^{k+1}
    while True:
        alpha_prime += [perm_act(back, a) for a in alpha]
        s_orient += [perm_compose(power, tail) for tail in reversed(h)]
        if power == perm_identity(n):
            break
        back, power = perm_compose(back, s_tau_inv), perm_compose(power, s_tau)
    f_prime = len(alpha_prime)

    a_prime = [tuple(sum(x * p ** i for i, x in enumerate(column)) for column in
                     zip(*(alpha_prime[(i - jp) % f_prime] for i in range(f_prime))))
               for jp in range(f_prime)]
    oriented = [perm_act(perm_inverse(o), a) for o, a in zip(s_orient, a_prime)]
    for jp, v in enumerate(oriented):
        if any(pairing(v, root) < 0 for root in positive_roots(n)):
            raise GenericityError(
                f"orientation fails to dominate a'^{({jp})}; presentation too shallow")

    modp = tuple(tuple(x % p for x in v) for v in oriented[:f])
    for j in range(f):
        expected = tuple((m + e) % p for m, e in zip(tau.mu[j], eta))
        if perm_act(perm_inverse(s[j]), expected) != modp[j]:
            raise InternalError("a_tau mod-p reduction check failed")

    exact = tuple(tuple(Fraction(x, 1 - p ** f_prime) for x in v)
                  for v in oriented[:f])
    chi = tuple(x % (p ** f_prime - 1) for x in a_prime[0])
    return DescentData(s_tau, f_prime // f, f_prime, tuple(alpha_prime),
                       tuple(a_prime), tuple(s_orient), chi, exact, modp)


def a_tau(tau: TameTypePresentation):
    """The inertial weights, exactly and mod p."""
    dd = descent_data(tau)
    return dd.a_tau_exact, dd.a_tau_modp
