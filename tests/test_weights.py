"""Serre weight presentations, central characters, and genericity polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from awbm.affine_weyl import (
    GroupContext,
    WeylElement,
    WeylTuple,
    conv_contains,
    conv_lattice_points,
    degree,
    evaluate,
    identity,
    translation,
)
from awbm.errors import (ArgumentError, CapacityError, CompatibilityError,
                         DepthError)
from awbm.highest_weights import (
    _alcove_element,
    lap_of,
    reduce_offset,
    serre_weight,
    weights_equal_mod_center,
)
from awbm.polynomials import build_Pm, genericity, superscript
from awbm.weights import (
    CentralCharacter,
    SerreWeightPresentation,
    central_character,
    weight_depth,
    weight_depth_base,
)

CTX = GroupContext(2, 1, 37)
WH = WeylElement((2, 1), (0, -1))


def pres(w1, omega, ctx=CTX):
    return SerreWeightPresentation(WeylTuple((w1,)), (omega,), ctx)


def test_serre_weight_examples():
    assert serre_weight(pres(identity(2), (5, 2))) == ((4, 2),)
    assert serre_weight(pres(WH, (10, 3))) == ((2, -27),)


def test_pi_is_identity_for_one_embedding():
    lap = pres(WH, (7, 0))
    assert serre_weight(lap) == ((-1, -30),)


def test_restricted_precondition():
    with pytest.raises(ArgumentError):
        serre_weight(pres(translation((1, 0)), (5, 0)))


def test_central_character_examples():
    assert central_character(pres(identity(2), (1, 0))).zeta == (0,)
    assert central_character(pres(WH, (1, 0))).zeta == (-1,)
    shifted = pres(translation((1, 1)), (0, -1))
    assert central_character(shifted).zeta == (0,)
    assert shifted == pres(identity(2), (1, 0))


def test_depth_of_presentation():
    # omega - eta = (5,0): pairing of (omega) with the coroot is 6
    assert pres(identity(2), (6, 0)).depth() == 5


def test_lap_of_base_alcove():
    out = lap_of(CTX, ((5, 0),), CentralCharacter((5,)))
    assert out.w1[0] == identity(2) and out.omega == ((6, 0),)
    assert serre_weight(out) == ((5, 0),)


def test_lap_of_round_trip_with_twists():
    rng = random.Random(20)
    ctx = GroupContext(2, 2, 37)
    for _ in range(20):
        rows = []
        while len(rows) < 2:
            a, b = rng.randrange(37), rng.randrange(37)
            hi, lo = max(a, b), min(a, b)
            if weight_depth((hi, lo), 37) >= 0:
                rows.append((hi, lo))
        kappa = tuple(rows)
        base_zeta = tuple(sum(k) for k in kappa)
        out = lap_of(ctx, kappa, CentralCharacter(base_zeta))
        assert weights_equal_mod_center(serre_weight(out), kappa, 37)
        # a shifted lift: (p - pi) xi with xi = (3, 5)
        target = CentralCharacter((base_zeta[0] + 37 * 3 - 5,
                                   base_zeta[1] + 37 * 5 - 3))
        out2 = lap_of(ctx, kappa, target)
        assert central_character(out2).zeta == target.zeta
        assert weights_equal_mod_center(serre_weight(out2), kappa, 37)


def test_lap_of_refuses_shallow_weights():
    # kappa on a wall: <kappa+eta, alpha> = 0 mod p
    with pytest.raises(DepthError):
        lap_of(CTX, ((36, 0),), CentralCharacter((36,)))


def test_lap_of_refuses_bad_zeta():
    with pytest.raises(CompatibilityError):
        lap_of(CTX, ((5, 0),), CentralCharacter((6,)))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_alcove_element_closed_form(data):
    # for 0-deep kappa, u has degree 0 and u(A0) is the alcove of num/p,
    # num = kappa + eta: u^{-1}(num/p) lies strictly inside A0
    n = data.draw(st.integers(2, 4))
    p = data.draw(st.sampled_from([7, 11, 101]))
    kappa = tuple(data.draw(st.integers(-10 ** 6, 10 ** 6)) for _ in range(n))
    assume(weight_depth(kappa, p) >= 0)
    num = tuple(k + n - 1 - i for i, k in enumerate(kappa))
    u = _alcove_element(num, p)
    assert degree(u) == 0
    inv = u.inverse()
    x = evaluate(inv, tuple(Fraction(c, p) for c in num))
    assert all(x[i] > x[i + 1] for i in range(n - 1)) and x[0] - x[-1] < 1


def test_depth_p_equivalence():
    # exhaustive box: mu - eta is m-deep in the base alcove iff P_m(mu) != 0,
    # whenever mu - eta lies in the base alcove at all
    p = 13
    ctx = GroupContext(2, 1, p)
    for m in (1, 2, 3):
        Pm = build_Pm(2, m)
        for a in range(-p, p):
            for b in range(-p, p):
                mu = (a, b)
                lam = (a - 1, b)  # mu - eta
                in_base = weight_depth_base(lam, p) >= 0
                if not in_base:
                    continue
                deep = weight_depth_base(lam, p) >= m
                assert deep == genericity(ctx, (mu,), polynomial=Pm)


def test_pm_example_values():
    P2 = build_Pm(2, 2)
    assert P2.eval((5, 0)) == 504
    ctx13 = GroupContext(2, 1, 13)
    assert genericity(ctx13, ((5, 0),), polynomial=P2)
    assert not genericity(ctx13, ((2, 0),), polynomial=P2)


def test_superscript():
    P2 = build_Pm(2, 2)
    assert superscript(P2, (0, 0)) == P2
    lifted = superscript(P2, (1, 0))
    pts = conv_lattice_points((1, 0))
    assert set(pts) == {(1, 0), (0, 1)}
    prod = P2.shift((1, 0)) * P2.shift((0, 1))
    assert lifted == prod
    with pytest.raises(ArgumentError):
        superscript(P2, (0, 1))


def _shifted(x, nu):
    return tuple(a - b for a, b in zip(x, nu))


def _random_product(rng, n, m):
    """superscript(P_m, omega) for a small dominant omega, sometimes times a
    shifted P_k."""
    omega = sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
    P = superscript(build_Pm(n, m), omega)
    if rng.random() < 0.5:
        nu = [rng.randint(-3, 3) for _ in range(n)]
        P = P * build_Pm(n, rng.randint(0, 3)).shift(nu)
    return P


def test_closed_form_and_expansion_agree_with_eval():
    # seeded: the closed form of nonzero_mod and genericity against
    # eval(point) % p at points with one gap g = 0, 1, m or m + 1 mod p, where
    # a part's factors g - j (1 <= j <= m) start and stop vanishing; shift and
    # superscript against their definitions through eval; the expanded terms
    # against eval at seeded points
    rng = random.Random(20261019)
    primes = (2, 3, 5, 7, 11, 13, 37, 101, 199)
    for _ in range(400):
        n, m = rng.randint(2, 4), rng.randint(0, 4)
        P = _random_product(rng, n, m)
        for _ in range(5):
            p = rng.choice(primes)
            k, s = rng.choice(P.parts)
            i = rng.randrange(n)
            x = [rng.randint(-3 * p, 3 * p) for _ in range(n)]
            g = (x[i] - s[i]) - (x[(i + 1) % n] - s[(i + 1) % n])
            target = rng.choice((0, 1, k, k + 1)) + p * rng.randint(-2, 2)
            x[i] += target - g
            x = tuple(x)
            want = P.eval(x) % p != 0
            assert P.nonzero_mod(x, p) == want
            assert genericity(GroupContext(n, 1, p), (x,), polynomial=P) == want
        nu = tuple(rng.randint(-4, 4) for _ in range(n))
        assert P.shift(nu).eval(x) == P.eval(_shifted(x, nu))
        omega = sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
        Q = build_Pm(n, m)
        want = 1
        for nu in conv_lattice_points(tuple(omega)):
            want *= Q.eval(_shifted(x, nu))
        assert superscript(Q, omega).eval(x) == want
    for _ in range(80):
        n = rng.randint(2, 4)
        P = _random_product(rng, n, rng.randint(0, 2))
        try:
            terms = P.expand()
        except CapacityError:
            continue
        for _ in range(3):
            x = [rng.randint(-20, 20) for _ in range(n)]
            value = 0
            for e, c in terms.items():
                for xi, ei in zip(x, e):
                    c *= xi ** ei
                value += c
            assert value == P.eval(x)


def test_conv_membership():
    assert conv_contains((1, 1), (2, 0))
    assert not conv_contains((3, -1), (2, 0))
    assert conv_contains((1, 1, 1), (2, 1, 0))
    assert not conv_contains((2, 2, -1), (2, 1, 0))


def test_dot_action_preserves_depth():
    rng = random.Random(21)
    p = 211
    ctx3 = GroupContext(3, 1, p)
    from awbm.affine_weyl import restricted_classes
    from awbm.highest_weights import dot_action
    from awbm.affine_weyl import eta_vector
    eta = eta_vector(3)
    for w1 in restricted_classes(3):
        for _ in range(10):
            from conftest import random_deep_mu
            mu = random_deep_mu(3, p, 3, rng)
            lam = tuple(m - e for m, e in zip(mu, eta))
            kappa = dot_action(w1, lam, p)
            assert weight_depth(kappa, p) == weight_depth(lam, p)


def test_character_reduction_consistency():
    # all presentations of one weight have characters congruent mod (p - pi)
    out1 = lap_of(CTX, ((5, 0),), CentralCharacter((5,)))
    out2 = lap_of(CTX, ((5, 0),), CentralCharacter((5 + 36,)))
    z1, z2 = central_character(out1), central_character(out2)
    assert reduce_offset(z1, z2, 37) is not None
    assert reduce_offset(z1, CentralCharacter((6,)), 37) is None
