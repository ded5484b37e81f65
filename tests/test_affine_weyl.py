"""Unit tests for the extended affine Weyl group layer.

Frozen expected values follow the convention (w, nu) <-> t_nu ∘ w; elements
are written below as (one-line image, translation vector).
"""

import contextlib
import io
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from awbm import cli, cli_orders  # noqa: F401  (imported before timing)
from awbm.affine_weyl import (
    MAX_INTERVAL,
    WeylElement,
    WeylTuple,
    adm,
    alcove_point,
    all_roots,
    ap_enumerate,
    bruhat_interval,
    bruhat_leq,
    classify,
    degree,
    dominant_witness,
    evaluate,
    finite,
    identity,
    invert,
    is_dominant,
    is_generic_element,
    is_regular,
    is_restricted,
    is_small,
    length,
    multiply,
    omega_power,
    pairing,
    positive_roots,
    regular_factorization,
    restricted_classes,
    smallness,
    sort_key,
    star,
    translation,
    up_leq,
    w0,
    w_h,
)
from awbm import affine_weyl
from awbm.affine_weyl import _interval_bound
from awbm.errors import (ArgumentError, CapacityError, InternalError,
                         RegularityError)
from awbm.modp_flag import cell_geometry
from awbm.oracles import adm_closure, ap_member, dual_bruhat_leq, dual_length
from awbm.primes import is_prime
from conftest import perms, random_element

E2 = identity(2)
S = finite((2, 1))
T10 = translation((1, 0))
SDELTA = WeylElement((2, 1), (1, 0))  # the length-zero generator for n = 2


def test_multiply_examples():
    assert multiply(WeylElement((1, 2), (1, 0)), S) == SDELTA
    assert invert(SDELTA) == WeylElement((2, 1), (0, -1))
    for n in (2, 3):
        rng = random.Random(0)
        for _ in range(30):
            a = random_element(n, rng)
            assert multiply(a, invert(a)) == identity(n)


def test_evaluate_examples():
    from fractions import Fraction
    assert evaluate(SDELTA, (Fraction(1, 2), 0)) == (1, Fraction(1, 2))
    x = (Fraction(3, 7), Fraction(1, 7))
    assert evaluate(E2, x) == x


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_is_an_action(data):
    n = data.draw(st.sampled_from([2, 3]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    a, b = random_element(n, rng), random_element(n, rng)
    x = tuple(data.draw(st.integers(-3, 3)) for _ in range(n))
    assert evaluate(multiply(a, b), x) == evaluate(a, evaluate(b, x))


def test_length_examples():
    assert length(translation((2, 1, 0))) == 4
    assert length(w0(3)) == 3
    assert length(SDELTA) == 0
    assert length(star(translation((2, 1, 0)))) == 4


def test_star_examples():
    assert star(SDELTA) == WeylElement((2, 1), (0, 1))
    assert star(translation((2, 1, 0))) == translation((2, 1, 0))


def test_star_is_anti_automorphism_and_preserves_dual_data():
    rng = random.Random(1)
    for n in (2, 3):
        for _ in range(60):
            a, b = random_element(n, rng), random_element(n, rng)
            assert star(multiply(a, b)) == multiply(star(b), star(a))
            assert dual_length(star(a)) == length(a)
            assert smallness(star(a)) == smallness(a)
            assert smallness(invert(a)) == smallness(a)


def test_star_intertwines_orders():
    rng = random.Random(2)
    for n in (2, 3):
        for _ in range(40):
            a, b = random_element(n, rng, span=2), random_element(n, rng, span=2)
            assert bruhat_leq(a, b) == dual_bruhat_leq(star(a), star(b))


def test_bruhat_examples():
    assert bruhat_leq(SDELTA, T10)
    assert not bruhat_leq(E2, T10)  # different degrees are incomparable
    assert not bruhat_leq(translation((0, 1)), T10)


def test_interval_examples():
    assert bruhat_interval(E2) == [E2]
    assert set(bruhat_interval(T10)) == {T10, SDELTA}
    assert len(bruhat_interval(w0(3))) == 6


def test_interval_bound_holds_on_seeded_elements():
    # a member's point keeps a's residues mod n and coordinate sum, and stays
    # in [min y, max y]; so the interval has at most B = min(2^l,
    # n!·K^(n-1)) members, K the number of quotients y // n in that range
    rng = random.Random(27)
    by_box = by_length = 0
    for n in (2, 3, 4, 5):
        for _ in range(40):
            a = random_element(n, rng, span=2 if n < 5 else 1)
            y = alcove_point(a)
            bound = _interval_bound(y)
            if bound > 3000:
                continue
            members = bruhat_interval(a)
            assert len(members) <= bound <= 2 ** length(a)
            by_box += bound < 2 ** length(a)
            by_length += bound == 2 ** length(a)
            for b in members:
                z = alcove_point(b)
                assert min(y) <= min(z) and max(z) <= max(y)
                assert sorted(c % n for c in z) == sorted(c % n for c in y)
                assert sum(z) == sum(y)
    assert by_box >= 20 and by_length >= 20, (by_box, by_length)
    # the box term decides at t_(20,10,0): 3!·21^2 = 2,646 against 2^40
    top = translation((20, 10, 0))
    assert _interval_bound(alcove_point(top)) == 2646
    assert len(bruhat_interval(top)) == 1740


def test_interval_past_the_bound_is_refused():
    # every element of length at most 12 (B <= 2^12) is admitted; past
    # MAX_INTERVAL the refusal comes before any member is built, also for
    # entries of 10^30, whose length no power of two can be formed for
    assert 2 ** 17 < MAX_INTERVAL < 2 ** 18
    big = 10 ** 30
    for nu, shown in (((300, 150, 0), "B = 543606"),
                      ((big, 0, -big), "B >= 2^64"),
                      ((big, 1, 0, -big), "B >= 2^64")):
        message = (f"Bruhat interval bound {shown} exceeds "
                   f"MAX_INTERVAL = {MAX_INTERVAL}")
        with pytest.raises(CapacityError, match=f"^{re.escape(message)}$"):
            bruhat_interval(translation(nu))
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["interval", "--n", str(len(nu)), "--a",
                            "e@" + ",".join(map(str, nu))])
        elapsed = time.perf_counter() - t0
        assert (code, out.getvalue()) == (3, "")
        assert err.getvalue().count("\n") == 1 and message in err.getvalue()
        assert elapsed < 0.1, elapsed


def test_up_examples():
    assert up_leq(w0(2), E2)
    assert up_leq(E2, WeylElement((2, 1), (1, -1)))
    assert not up_leq(E2, SDELTA)  # different cosets


def test_up_translation_invariance():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(25):
            a = random_element(n, rng, span=2)
            b = random_element(n, rng, span=2)
            nu = tuple(rng.randrange(-2, 3) for _ in range(n))
            t = translation(nu)
            assert up_leq(a, b) == up_leq(multiply(t, a), multiply(t, b))


def test_classify_examples():
    fl = classify(T10, m=1, p=37)
    assert fl.dominant and not fl.restricted and fl.regular and fl.m_small
    assert is_generic_element(T10, 0, 37) and not is_generic_element(T10, 1, 37)
    assert not is_regular(SDELTA)
    fl_e = classify(E2)
    assert fl_e.dominant and fl_e.restricted


def test_smallness_genericity_calculus():
    # translations: invariance under the finite Weyl group, additivity of
    # smallness, and genericity drop under small multiplication
    rng = random.Random(4)
    for n in (2, 3):
        p = 97
        for _ in range(40):
            nu = tuple(rng.randrange(-6, 7) for _ in range(n))
            for w in perms(n):
                from awbm.affine_weyl import perm_act
                assert smallness(translation(perm_act(w, nu))) == \
                    smallness(translation(nu))
                d1 = translation(nu)
                d2 = translation(perm_act(w, nu))
                for m in range(0, 4):
                    assert is_generic_element(d1, m, p) == \
                        is_generic_element(d2, m, p)
            a, b = random_element(n, rng, 3), random_element(n, rng, 3)
            assert is_small(multiply(a, b), smallness(a) + smallness(b))
            m_small = smallness(a)
            big = translation(tuple((n - i) * 20 for i in range(n)))
            from awbm.affine_weyl import element_depth
            mprime = element_depth(big, p)
            if mprime >= m_small:
                prod = multiply(big, a)
                assert element_depth(prod, p) >= mprime - m_small


def test_omega_powers():
    for n in range(1, 9):
        delta = omega_power(n, 1)
        # the generator t_(1,0,..,0) ∘ (i |-> i+1 mod n) and its inverse
        assert delta == WeylElement(tuple(range(2, n + 1)) + (1,),
                                    (1,) + (0,) * (n - 1))
        assert omega_power(n, -1) == invert(delta)
        for m in range(-2 * n, 2 * n + 1):
            d = omega_power(n, m)
            assert length(d) == 0 and degree(d) == m
            power = identity(n)
            for _ in range(abs(m)):
                power = multiply(power, omega_power(n, 1 if m > 0 else -1))
            assert d == power
        power = identity(n)
        for _ in range(n):
            power = multiply(power, delta)
        assert power == translation((1,) * n)
    assert omega_power(2, 1) == SDELTA


def test_adm_examples():
    A = adm((1, 0))
    assert set(A) == {T10, translation((0, 1)), SDELTA}
    R = adm((1, 0), "regular")
    assert set(R) == {T10, translation((0, 1))}
    assert len(adm((2, 1, 0), "regular")) == 9
    D = adm((1, 0), "dual")
    assert set(D) == {T10, translation((0, 1)), WeylElement((2, 1), (0, 1))}
    with pytest.raises(ArgumentError):
        adm((0, 1))


def test_regular_factorization_examples():
    w1, w2 = regular_factorization(T10)
    assert (w1, w2) == (E2, WeylElement((2, 1), (0, -1)))
    w1, w2 = regular_factorization(translation((0, 1)))
    assert (w1, w2) == (WeylElement((2, 1), (0, -1)), translation((-1, -1)))
    with pytest.raises(RegularityError):
        regular_factorization(SDELTA)


def test_regular_factorization_properties():
    rng = random.Random(5)
    for n in (2, 3):
        for _ in range(60):
            a = random_element(n, rng, span=3)
            if not is_regular(a):
                continue
            w1, w2 = regular_factorization(a)
            assert is_restricted(w1) and is_dominant(w2)
            assert multiply(invert(w2), multiply(w0(n), w1)) == a
            assert max(w1.nu) == 0  # canonical representative
            # converse of the factorization: products of dominants are regular
            assert is_regular(multiply(invert(w2), multiply(w0(n), w1)))


def test_products_of_dominants_are_regular():
    rng = random.Random(6)
    for n in (2, 3):
        count = 0
        while count < 40:
            w1 = random_element(n, rng, span=2)
            w2 = random_element(n, rng, span=2)
            if not (is_dominant(w1) and is_dominant(w2)):
                continue
            count += 1
            assert is_regular(multiply(invert(w2), multiply(w0(n), w1)))


def test_ap_examples():
    AP = ap_enumerate((1, 0))
    assert AP == [
        (E2, WeylElement((2, 1), (0, -1))),
        (WeylElement((2, 1), (0, -1)), translation((-1, -1))),
    ]
    assert len(ap_enumerate((2, 1, 0))) == 9
    assert ap_member(E2, WeylElement((2, 1), (0, -1)), (1, 0))
    assert not ap_member(T10, E2, (1, 0))  # first member not restricted


def _regular_by_filter(lam):
    """The regular members of Adm(lam), by testing every member of the
    whole set: the reference for the builder that prunes while it builds."""
    return [a for a in adm(lam) if is_regular(a)]


def _ap_by_elements(lam):
    """AP(lam) by factoring each regular member as an element."""
    pairs = [regular_factorization(a) for a in _regular_by_filter(lam)]
    assert len(set(pairs)) == len(pairs)
    return sorted(pairs, key=lambda pr: (sort_key(pr[0]), sort_key(pr[1])))


def test_pruned_builder_matches_filter_and_element_factorization():
    # seeded dominant weights with negative entries, n = 2-5; eta at n = 5
    # (1,640 pairs) puts every strip of a regular chain to the test
    rng = random.Random(25)
    weights = [(4, 3, 2, 1, 0)]
    for n, gap, count in ((2, 6, 6), (3, 4, 8), (4, 2, 6), (5, 1, 3)):
        for _ in range(count):
            low = rng.randrange(-3, 3)
            gaps = [rng.randrange(0, gap + 1) for _ in range(n - 1)]
            weights.append(tuple(low + sum(gaps[i:]) for i in range(n)))
    for lam in weights:
        assert adm(lam, "regular") == _regular_by_filter(lam), lam
        assert ap_enumerate(lam) == _ap_by_elements(lam), lam
    assert len(ap_enumerate((4, 3, 2, 1, 0))) == 1640
    # lam + eta at n = 5 for lam = (1,0,0,0,0) and (2,1,1,0,0) (4,770 and
    # 17,490 pairs): orbits filled by moving only the points
    for lam in ((5, 3, 2, 1, 0), (6, 4, 3, 1, 0)):
        assert ap_enumerate(lam) == _ap_by_elements(lam), lam
    # every dominant weight with n <= 4, entries in -1..3 and spread <= 3
    # (99 weights, among them (2,2,0), which is lam + eta for no dominant
    # lam): AP is factored once per Omega-orbit and filled in by conjugation
    sweep = [lam for n in (2, 3, 4)
             for lam in itertools.product(range(3, -2, -1), repeat=n)
             if lam == tuple(sorted(lam, reverse=True)) and lam[0] - lam[-1] <= 3]
    assert len(sweep) == 99
    for lam in sweep:
        assert ap_enumerate(lam) == _ap_by_elements(lam), lam
        for variant in ("all", "regular", "dual"):
            assert adm(lam, variant) == adm_closure(lam, variant), (lam, variant)


def test_ap_pairs_share_one_element_per_point():
    # `_point_reader` forms each distinct point's element once: eta at n = 5
    # (1,640 pairs on 120 points of w1 and 358 of w2) and lambda + eta for
    # lambda = (1,0,0,0,0) (4,770 pairs on 120 and 900)
    for lam, points in (((4, 3, 2, 1, 0), (120, 358)),
                        ((5, 3, 2, 1, 0), (120, 900))):
        pairs = ap_enumerate(lam)
        assert pairs == _ap_by_elements(lam), lam
        for side, count in zip(zip(*pairs), points):
            assert len({id(a) for a in side}) == len(set(side)) == count, lam


def test_ap_points_hold_the_least_rotation_of_each_orbit():
    # `_ap_points` keeps one member a per Omega-orbit, the one whose
    # z = point(a) + (0, 1, .., n-1) is the least of its rotations, and
    # `_orbit_pairs` expands it to the canonical pairs of omega^k·a·omega^{-k},
    # k = 0..n-1: over the entries these products are the regular members of
    # Adm(lam + eta), each once.  Lambda = 0 and two lambda != 0 at n = 2-5
    from awbm.affine_weyl import _ap_points, _from_point, _orbit_pairs
    for lam in [(1, 0), (2, 0), (3, 0), (2, 1, 0), (3, 1, 0), (4, 2, 0),
                (3, 2, 1, 0), (4, 2, 1, 0), (5, 3, 2, 0), (4, 3, 2, 1, 0),
                (5, 3, 2, 1, 0), (5, 4, 2, 1, 0)]:
        n = len(lam)
        omega = omega_power(n, 1)
        products = []
        for entry in _ap_points(lam):
            z = [c + i for i, c in enumerate(entry[2])]
            assert z == min(z[i:] + z[:i] for i in range(n)), (lam, entry)
            a = WeylElement(*_from_point(entry[2]))
            pairs = [(r1[0], r2[0]) for r1, r2 in _orbit_pairs([entry])]
            assert len(pairs) == n and pairs[0] == entry[:2], (lam, entry)
            for k1, k2 in pairs:
                w1, w2 = WeylElement(*k1[1:]), WeylElement(*k2[1:])
                assert max(w1.nu) == 0 and (length(w1), length(w2)) == \
                    (k1[0], k2[0]), (lam, k1, k2)
                assert multiply(invert(w2), multiply(w0(n), w1)) == a, (lam, k1)
                products.append(a)
                a = multiply(omega, multiply(a, invert(omega)))
            assert a == products[-n], (lam, entry)
        assert sorted(products, key=sort_key) == adm(lam, "regular"), lam


def test_every_pair_is_checked_on_points(monkeypatch):
    # a w2 off by a central translation fails the product check, both on
    # AP's orbit representatives and in regular_factorization
    factor = affine_weyl._factor_point

    def w2_off_center(y):
        z1, z2 = factor(y)
        return z1, [x + len(y) for x in z2]

    monkeypatch.setattr(affine_weyl, "_factor_point", w2_off_center)
    with pytest.raises(InternalError, match="product check failed"):
        ap_enumerate((3, 2, 1, 0))
    for a in adm((3, 2, 1, 0), "regular")[:5]:
        with pytest.raises(InternalError, match="product check failed"):
            regular_factorization(a)


def test_restricted_classes():
    assert [(x.w, x.nu) for x in restricted_classes(2)] == \
        [((1, 2), (0, 0)), ((2, 1), (0, -1))]
    assert len(restricted_classes(3)) == 6
    assert all(is_restricted(x) and max(x.nu) == 0 for x in restricted_classes(3))


def test_wh_is_restricted_unit():
    for n in (2, 3, 4):
        wh = w_h(n)
        assert is_restricted(wh)
        assert multiply(invert(wh), wh) == identity(n)


def test_tuples():
    t = WeylTuple((T10, SDELTA))
    assert t.pi()[0] == SDELTA and t.pi()[1] == T10
    assert (t * t.inverse())[0] == identity(2)
    one = WeylTuple((E2,) * 3)
    assert one.pi() == one
    rt = WeylTuple.from_json(t.to_json())
    assert rt == t


def test_base_point_orbit_avoids_walls():
    # n·x0 = eta pairs into (0, n) with every positive root, and no pairing
    # of a scaled image n·a(x0) is divisible by n
    rng = random.Random(7)
    for n in (2, 3, 4):
        x = alcove_point(identity(n))
        assert x == tuple(range(n - 1, -1, -1))
        for root in positive_roots(n):
            assert 0 < pairing(x, root) < n
        for _ in range(40):
            a = random_element(n, rng, span=4)
            y = alcove_point(a)
            x0 = [Fraction(e, n) for e in x]
            assert y == tuple(n * c for c in evaluate(a, x0))
            for root in all_roots(n):
                assert pairing(y, root) % n != 0


def _fraction_alcove_data(a):
    """Length, dual length, the alcove predicates, the dominant witness and
    the cell degrees and critical count of a, from the rational point
    a(x0), x0 = eta/n."""
    n = a.n
    x = tuple(Fraction(n - 1 - i, n) for i in range(n))
    xd = tuple(reversed(x))
    y, yd = evaluate(a, x), evaluate(a, xd)
    pos = positive_roots(n)

    def sep(y, x):
        return sum(abs(math.floor(pairing(y, r)) - math.floor(pairing(x, r)))
                   for r in pos)

    dominant = all(pairing(y, r) > 0 for r in pos)
    degrees = []
    for alpha in all_roots(n):
        d = math.floor(pairing(y, alpha)) - math.ceil(pairing(x, alpha))
        if d >= 0:
            degrees.append((alpha, d))
    return {
        "length": sep(y, x),
        "dual_length": sep(yd, xd),
        "dominant": dominant,
        "restricted": dominant and all(y[i] - y[i + 1] < 1
                                       for i in range(n - 1)),
        "regular": not any(0 < pairing(y, r) < 1 for r in pos),
        "witness": tuple(i + 1 for i in sorted(range(n), key=lambda i: -y[i])),
        "degrees": tuple(sorted(degrees)),
        "critical": sum(1 for r in pos if 0 < pairing(y, r) < 1),
    }


def test_integer_alcove_point_matches_fractions():
    rng = random.Random(41)
    for n in (2, 3, 4, 5):
        for _ in range(150):
            a = random_element(n, rng, span=5)
            geom = cell_geometry(a)
            assert _fraction_alcove_data(a) == {
                "length": length(a),
                "dual_length": dual_length(a),
                "dominant": is_dominant(a),
                "restricted": is_restricted(a),
                "regular": is_regular(a),
                "witness": dominant_witness(a),
                "degrees": geom.degrees,
                "critical": geom.critical,
            }


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_group_laws_hypothesis(data):
    n = data.draw(st.sampled_from([2, 3]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    a, b, c = (random_element(n, rng) for _ in range(3))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, invert(a)) == identity(n)
    assert invert(multiply(a, b)) == multiply(invert(b), invert(a))
    assert degree(multiply(a, b)) == degree(a) + degree(b)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_star_laws_hypothesis(data):
    n = data.draw(st.sampled_from([2, 3]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    a, b = random_element(n, rng), random_element(n, rng)
    assert star(multiply(a, b)) == multiply(star(b), star(a))
    assert star(star(a)) == a
    assert dual_length(star(a)) == length(a)


def test_omega_extension_rule_for_orders():
    # right translation by a length-zero element is an order isomorphism for
    # both orders
    rng = random.Random(8)
    for n in (2, 3):
        for _ in range(30):
            a = random_element(n, rng, span=2)
            b = WeylElement(a.w, tuple(
                x + rng.randrange(-1, 2) for x in a.nu))
            for m in (1, 2, n):
                d = omega_power(n, m)
                ad, bd = multiply(a, d), multiply(b, d)
                assert bruhat_leq(ad, bd) == bruhat_leq(a, b)
                assert up_leq(ad, bd) == up_leq(a, b)
                assert length(ad) == length(a)


def test_is_prime():
    def trial(m):
        return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))
    assert [m for m in range(-3, 3000) if is_prime(m)] == \
        [m for m in range(-3, 3000) if trial(m)]
    # strong pseudoprimes to the first 7, 9, 11, 12 and 13 prime bases; the
    # last, 1287836182261 * 2575672364521, is primes.PRIME_BOUND
    psi13 = 3317044064679887385961981
    for m in (3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461, psi13):
        assert not is_prime(m)
    from awbm.affine_weyl import GroupContext
    from awbm.bk_gauge import Coefficients
    from awbm.errors import ArgumentError
    from awbm.primes import PRIME_BOUND, check_prime
    assert psi13 == PRIME_BOUND == 1287836182261 * 2575672364521
    check_prime(2 ** 64 - 59)
    with pytest.raises(ArgumentError, match="not below PRIME_BOUND"):
        check_prime(psi13)
    for p in (2, 2 ** 31 - 1, 2 ** 64 - 59):
        assert is_prime(p)
        assert GroupContext(2, 1, p).p == p and Coefficients(p).p == p
    for q in (1, 4, 2 ** 64, 2 ** 64 - 57):
        for make in (lambda: GroupContext(2, 1, q), lambda: Coefficients(q)):
            with pytest.raises(ArgumentError):
                make()
