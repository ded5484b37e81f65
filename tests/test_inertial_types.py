"""Tame inertial type presentations and their descent data."""

import random
from fractions import Fraction

import pytest

from awbm.affine_weyl import (
    GroupContext,
    WeylElement,
    WeylTuple,
    eta_vector,
    finite,
    omega_power,
    pairing,
    perm_act,
    perm_compose,
    perm_identity,
    perm_inverse,
    positive_roots,
    translation,
)
from awbm.descent import DescentData, a_tau, descent_data
from awbm.errors import (
    ArgumentError,
    CompatibilityError,
    GenericityError,
    InternalError,
)
from awbm.highest_weights import reduce_offset
from awbm.inertial_types import TameTypePresentation, compatible_zeta, make_type
from awbm.weights import CentralCharacter
from conftest import perms, random_tuple_mu

# is_compatible and compatible_presentation are tested here and called by no
# command, so they live with their test


def is_compatible(tau: TameTypePresentation, zeta: CentralCharacter, lam=None) -> bool:
    return compatible_zeta(tau, lam).zeta == tuple(zeta.zeta)


def compatible_presentation(tau: TameTypePresentation, zeta: CentralCharacter,
                            lam=None) -> TameTypePresentation:
    """The unique presentation of the same type that is lam-compatible with
    zeta (1-generic input required), found by a central twist."""
    p = tau.ctx.require_prime()
    if tau.depth() < 1:
        raise GenericityError("presentation enumeration needs a 1-generic type")
    current = compatible_zeta(tau, lam)
    xi = reduce_offset(CentralCharacter(tuple(zeta.zeta)), current, p)
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

CTX = GroupContext(2, 1, 37)


def test_w_tilde_examples():
    tau = make_type(CTX, [(1, 2)], [(5, 0)])
    assert tau.w_tilde()[0] == translation((6, 0))
    tau2 = make_type(CTX, [(2, 1)], [(5, 0)])
    assert tau2.w_tilde_star()[0] == WeylElement((2, 1), (0, 6))
    ctx2 = GroupContext(2, 2, 37)
    tau3 = make_type(ctx2, [(2, 1), (1, 2)], [(5, 0), (7, 2)])
    assert tau3.w_tilde()[0] == WeylElement((2, 1), (6, 0))
    assert tau3.w_tilde()[1] == translation((8, 2))


def test_translation_parts_must_vanish():
    with pytest.raises(ArgumentError):
        make_type(CTX, [WeylElement((2, 1), (1, 0))], [(5, 0)])


def test_descent_data_split_case():
    tau = make_type(CTX, [(1, 2)], [(5, 0)])
    dd = descent_data(tau)
    assert dd.s_tau == (1, 2) and dd.r == 1 and dd.f_prime == 1
    assert dd.a_prime[0] == (6, 0)
    assert dd.chi_exponents == (6, 0)


def test_descent_data_niveau_two():
    tau = make_type(CTX, [(2, 1)], [(5, 0)])
    dd = descent_data(tau)
    assert dd.r == 2 and dd.f_prime == 2
    q = 37 ** 2 - 1
    # exponents (mu+eta)_1 + p (mu+eta)_2 and its Frobenius twin
    assert dd.chi_exponents == ((6 + 37 * 0) % q, (0 + 37 * 6) % q)


def test_s_tau_is_the_product():
    ctx2 = GroupContext(2, 2, 37)
    tau = make_type(ctx2, [(2, 1), (2, 1)], [(5, 0), (7, 2)], kind="F")
    dd = descent_data(tau)
    assert dd.s_tau == (1, 2)  # w0 * w0


def test_a_tau_split():
    tau = make_type(CTX, [(1, 2)], [(5, 0)])
    exact, modp = a_tau(tau)
    assert exact[0] == (Fraction(6, -36), Fraction(0, 1))
    assert modp[0] == (6, 0)


def test_a_tau_congruence_random():
    rng = random.Random(30)
    p = 211
    for n, f in [(2, 1), (3, 1), (3, 2), (2, 3)]:
        ctx = GroupContext(n, f, p)
        for _ in range(10):
            s = [rng.choice(perms(n)) for _ in range(f)]
            mu = random_tuple_mu(n, f, p, 1, rng)
            tau = make_type(ctx, s, mu)
            descent_data(tau)  # contains the internal mod-p assertion


def test_chi_exponents_well_defined():
    # the exponent sum over a Frobenius orbit may start at any k0: shifting
    # the window k -> k+1 changes it by a multiple of p^{f r} - 1
    from awbm.affine_weyl import perm_compose, perm_identity
    tau = make_type(CTX, [(2, 1)], [(5, 0)])
    dd = descent_data(tau)
    p, f = 37, 1
    q = p ** dd.f_prime - 1
    a0 = dd.a_prime[0] if dd.r == 1 else \
        tuple(sum(p ** j * dd.alpha_prime[j][i] for j in range(f))
              for i in range(2))
    powers = [perm_identity(2)]
    for _ in range(dd.r):
        powers.append(perm_compose(powers[-1], dd.s_tau))

    def exponent(i, k0):
        return sum(a0[powers[k][i - 1] - 1] * pow(p, f * k, q)
                   for k in range(k0, k0 + dd.r)) % q

    for i in (1, 2):
        assert exponent(i, 0) == dd.chi_exponents[i - 1] % q
        assert exponent(i, 1) % q == exponent(i, 0)


def _descent_reference(tau):
    """The descent data as the loops over the defining products build it, with
    no product reused: the reference for `descent_data`'s single pass."""
    p = tau.ctx.require_prime()
    n, f = tau.n, tau.f
    eta = eta_vector(n)
    if tau.depth() < 0:
        raise GenericityError("descent data needs a 0-generic presentation")
    s = [tau.s[j].w for j in range(f)]
    s_tau = perm_identity(n)
    for j in range(f):
        s_tau = perm_compose(s_tau, s[j])
    r, cur = 1, s_tau
    while cur != perm_identity(n):
        cur, r = perm_compose(cur, s_tau), r + 1
    f_prime = f * r
    s_tau_inv = perm_inverse(s_tau)

    alpha = []
    for j in range(f):
        v = tuple(m + e for m, e in zip(tau.mu[(f - j) % f], eta))
        for t in range(f - j, f):  # s_{f-j}^{-1} acts first
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
        modp.append(tuple(q.numerator * pow(q.denominator, -1, p) % p
                          for q in exact[-1]))
        expected = perm_act(perm_inverse(s[j]),
                            tuple((m + e) % p for m, e in zip(tau.mu[j], eta)))
        if expected != modp[-1]:
            raise InternalError("a_tau mod-p reduction check failed")

    return (s_tau, r, f_prime, tuple(alpha_prime), tuple(a_prime),
            tuple(s_orient), chi, tuple(exact), tuple(modp))


def _outcome(fn, tau):
    try:
        return fn(tau)
    except (GenericityError, InternalError) as exc:
        return type(exc), str(exc)


def test_descent_data_matches_the_reference_loops():
    # 0-generic types and shallow ones (mu drawn with no depth condition),
    # compared in every field and in the error raised
    rng = random.Random(2024)
    primes = [5, 7, 11, 13, 31, 37, 101, 211]
    answered = refused = 0
    for trial in range(1200):
        n, f, p = rng.randrange(2, 6), rng.randrange(1, 6), rng.choice(primes)
        s = [rng.choice(perms(n)) for _ in range(f)]
        if trial % 4:
            mu = random_tuple_mu(n, f, p, 0, rng)
        else:
            mu = [tuple(rng.randrange(-p, 2 * p) for _ in range(n))
                  for _ in range(f)]
        tau = make_type(GroupContext(n, f, p), s, mu)
        got = _outcome(descent_data, tau)
        if isinstance(got, DescentData):
            got = got._fields()
            answered += 1
        else:
            refused += 1
        assert got == _outcome(_descent_reference, tau), (n, f, p, s, mu)
    assert answered > 800 and refused > 200


def test_alpha_applies_the_rightmost_inverse_first():
    # alpha_j = s_{f-1}^{-1} ... s_{f-j}^{-1}(mu_{f-j} + eta): composing the
    # written product left to right and acting once must give alpha_j, and a
    # 0-generic type is never refused as too shallow
    rng = random.Random(24)
    for n, f, p in [(3, 3, 37), (3, 4, 211), (4, 3, 101), (4, 4, 211),
                    (5, 3, 211)]:
        ctx = GroupContext(n, f, p)
        eta = eta_vector(n)
        for _ in range(15):
            s = [rng.choice(perms(n)) for _ in range(f)]
            tau = make_type(ctx, s, random_tuple_mu(n, f, p, 0, rng))
            dd = descent_data(tau)
            for j in range(f):
                product = perm_identity(n)
                for t in range(f - 1, f - j - 1, -1):
                    product = perm_compose(product, perm_inverse(s[t]))
                shifted = tuple(m + e for m, e in zip(tau.mu[(f - j) % f], eta))
                assert dd.alpha_prime[j] == perm_act(product, shifted)


def test_depth_144_type_has_descent_data():
    ctx = GroupContext(3, 3, 1009)
    tau = make_type(ctx, [(3, 2, 1), (2, 1, 3), (3, 1, 2)],
                    [(449, 305, 108), (553, 273, 110), (515, 241, 59)])
    assert tau.depth() == 144
    dd = descent_data(tau)
    assert dd.r == 1 and dd.f_prime == 3
    assert dd.a_tau_modp == ((108, 306, 451), (274, 555, 110), (59, 517, 242))


def test_orientation_requires_genericity():
    ctx = GroupContext(2, 1, 5)
    bad = make_type(ctx, [(2, 1)], [(4, 0)])  # mu + eta = (5,0): on a wall
    with pytest.raises(GenericityError):
        descent_data(bad)


def test_compatibility_examples():
    tau = make_type(CTX, [(1, 2)], [(5, 0)])
    assert compatible_zeta(tau).zeta == (6,)
    assert is_compatible(tau, CentralCharacter((6,)))
    assert compatible_zeta(tau, ((1, 0),)).zeta == (7,)
    out = compatible_presentation(tau, CentralCharacter((6 + 36,)))
    assert compatible_zeta(out).zeta == (42,)
    with pytest.raises(CompatibilityError):
        compatible_presentation(tau, CentralCharacter((7,)))


def test_twist_preserves_type_well_formedness():
    rng = random.Random(31)
    p = 211
    ctx = GroupContext(3, 2, p)
    for _ in range(10):
        s = [rng.choice(perms(3)) for _ in range(2)]
        mu = random_tuple_mu(3, 2, p, 2, rng)
        tau = make_type(ctx, s, mu)
        z0 = compatible_zeta(tau)
        target = CentralCharacter(tuple(
            z + (p - 1) * rng.randrange(-2, 3) for z in z0.zeta))
        xi = reduce_offset(target, z0, p)
        if xi is None:
            continue
        out = compatible_presentation(tau, target)
        assert compatible_zeta(out).zeta == target.zeta
        assert out.depth() >= 0


def test_f_type_zeta_uses_unshifted_element():
    rho = make_type(CTX, [(1, 2)], [(5, 0)], kind="F")
    assert compatible_zeta(rho).zeta == (5,)
