"""Tame inertial types for GL_n over an unramified base, as combinatorial data.

A type is presented by a pair (s, mu): an f-tuple s of finite Weyl elements
and a weight tuple mu with mu_j + eta_j in the base alcove.  Its Weyl avatar
is w̃(tau) = t_{mu+eta} s per embedding.  From the pair one derives the full
descent-data bookkeeping over the degree-f' = f·r extension (r the order of
s_tau = s_0 s_1 ... s_{f-1}):

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

from .affine_weyl import (
    GroupContext,
    Record,
    WeylElement,
    WeylTuple,
    eta_vector,
    finite,
    multiply,
    omega_power,
    pairing,
    perm_act,
    perm_compose,
    perm_identity,
    perm_inverse,
    positive_roots,
    translation,
    weight_depth_base,
)
from .errors import (
    ArgumentError,
    CompatibilityError,
    GenericityError,
    InputError,
    InternalError,
)
from .weights import CentralCharacter

__all__ = ["TameTypePresentation", "DescentData", "make_type", "descent_data",
           "a_tau", "compatible_zeta", "is_compatible", "compatible_presentation"]


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
        mu = tuple(tuple(int(x) for x in row) for row in mu)
        if len(mu) != ctx.f or any(len(r) != ctx.n for r in mu):
            raise ArgumentError("mu must be an f-tuple of length-n rows")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "kind", kind)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.s, self.mu, self.ctx, self.kind)
                == (other.s, other.mu, other.ctx, other.kind))

    def __hash__(self):
        return hash((self.s, self.mu, self.ctx, self.kind))

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

    def is_generic(self, m: int) -> bool:
        return self.depth() >= m

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
    # the one rational this layer builds; importing fractions (and with it
    # decimal) costs about 3 ms, which no weight-set job should pay
    from fractions import Fraction
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


def compatible_zeta(tau: TameTypePresentation, lam=None) -> CentralCharacter:
    """The central character attached to the presentation: per embedding the
    degree of t_lam t_{mu+eta} s for kind 'E', of t_mu s for kind 'F'."""
    n, f = tau.n, tau.f
    eta_sum = sum(eta_vector(n))
    if lam is None:
        lam = ((0,) * n,) * f
    lam = tuple(tuple(int(x) for x in row) for row in lam)
    if tau.kind == "E":
        zeta = tuple(sum(lam[j]) + sum(tau.mu[j]) + eta_sum for j in range(f))
    else:
        if any(any(x for x in row) for row in lam):
            raise ArgumentError("mod-p types only carry plain compatibility")
        zeta = tuple(sum(tau.mu[j]) for j in range(f))
    return CentralCharacter(zeta)


def is_compatible(tau: TameTypePresentation, zeta: CentralCharacter, lam=None) -> bool:
    return compatible_zeta(tau, lam).zeta == tuple(zeta.zeta)


def compatible_presentation(tau: TameTypePresentation, zeta: CentralCharacter,
                            lam=None) -> TameTypePresentation:
    """The unique presentation of the same type that is lam-compatible with
    zeta (1-generic input required), found by a central twist."""
    p = tau.ctx.require_prime()
    if not tau.is_generic(1):
        raise GenericityError("presentation enumeration needs a 1-generic type")
    current = compatible_zeta(tau, lam)
    xi = CentralCharacter(tuple(zeta.zeta)).reduce_offset(current, p)
    if xi is None:
        raise CompatibilityError(
            f"zeta {zeta.zeta} is incompatible with the type's character "
            f"{current.zeta} mod (p - pi)")
    out = _omega_twist_type(tau, xi)
    if compatible_zeta(out, lam).zeta != tuple(zeta.zeta):
        raise InternalError("type twist missed the target character")
    return out


def _omega_twist_type(tau: TameTypePresentation, xi) -> TameTypePresentation:
    """Twist (s, mu) ↦ (w s pi(w)^{-1}, w(mu + eta + p nu - s pi(nu)) - eta)
    by the length-zero tuple delta = w t_nu with degrees xi."""
    p = tau.ctx.require_prime()
    n, f = tau.n, tau.f
    eta = eta_vector(n)
    deltas = [omega_power(n, x) for x in xi]
    wparts = [d.w for d in deltas]
    nuparts = [perm_act(perm_inverse(d.w), d.nu) for d in deltas]  # d = w t_nu
    new_s, new_mu = [], []
    for j in range(f):
        wj = wparts[j]
        wnext = wparts[(j + 1) % f]
        new_s.append(finite(perm_compose(perm_compose(wj, tau.s[j].w),
                                         perm_inverse(wnext))))
        inner = tuple(
            m + e + p * nuparts[j][i] - perm_act(tau.s[j].w, nuparts[(j + 1) % f])[i]
            for i, (m, e) in enumerate(zip(tau.mu[j], eta)))
        moved = perm_act(wj, inner)
        new_mu.append(tuple(x - e for x, e in zip(moved, eta)))
    out = TameTypePresentation(WeylTuple(tuple(new_s)), tuple(new_mu),
                               tau.ctx, tau.kind)
    if out.depth() < 0:
        raise InternalError("twisted presentation left the base alcove")
    return out
