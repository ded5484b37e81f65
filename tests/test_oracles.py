"""The naive reference implementations against the main algorithms."""

import json
import random

import pytest

from awbm.affine_weyl import (
    WeylElement,
    adm,
    adm_member,
    ap_enumerate,
    bruhat_interval,
    bruhat_leq,
    degree,
    identity,
    invert,
    is_regular,
    length,
    multiply,
    sort_key,
    star,
    translation,
    up_leq,
    w0,
)
from awbm.errors import CapacityError
from awbm.oracles import (
    adm_closure,
    ap_member,
    chain_up_leq,
    enumerate_elements,
    im_length,
    oracle,
    subword_leq,
)
from conftest import random_element


def test_im_length_examples():
    assert im_length(translation((2, 1, 0))) == 4
    assert im_length(WeylElement((2, 1), (1, 0))) == 0
    assert im_length(identity(3).__class__((3, 2, 1), (0, 0, 0))) == 3


def test_lengths_agree_randomly():
    rng = random.Random(10)
    for n in (2, 3):
        for _ in range(120):
            a = random_element(n, rng, span=4)
            assert im_length(a) == length(a)


def test_subword_examples():
    assert subword_leq(WeylElement((2, 1), (1, 0)), translation((1, 0)))
    assert not subword_leq(translation((0, 1)), translation((1, 0)))


def test_enumerate_dihedral_count():
    assert len(enumerate_elements(2, 0, 2)) == 5
    assert len(enumerate_elements(2, 0, 0)) == 1


def test_enumerate_respects_cap():
    with pytest.raises(CapacityError):
        enumerate_elements(3, 0, 11)


def test_interval_against_enumeration():
    # the reflection closure on points against the oracle's breadth-first
    # enumeration, filtered by the counting test
    rng = random.Random(18)
    cases = []
    for n in (1, 2, 3, 4):
        for deg in range(-2, 3):
            pool = enumerate_elements(n, deg, 7)
            long = [a for a in pool if length(a) >= 5]
            cases += rng.sample(long, min(3, len(long))) + [rng.choice(pool)]
    assert sum(degree(a) != 0 for a in cases) >= 3  # a nonzero Omega part
    assert max(length(a) for a in cases) == 7
    for a in cases:
        below = [b for b in enumerate_elements(a.n, degree(a), length(a))
                 if bruhat_leq(b, a)]
        assert bruhat_interval(a) == below


def test_chain_up_against_main():
    rng = random.Random(11)
    for n in (2, 3):
        elems = enumerate_elements(n, 0, 3)
        for _ in range(60):
            a, b = rng.choice(elems), rng.choice(elems)
            assert chain_up_leq(a, b, 6) == up_leq(a, b)
    # degree 1, n = 4, and pairs of mixed degree, which are never comparable
    for n, length, count, bound in ((2, 3, 40, 6), (3, 3, 40, 6),
                                    (4, 1, 24, 2)):
        pools = [enumerate_elements(n, deg, length) for deg in (0, 1)]
        for _ in range(count):
            a, b = (rng.choice(rng.choice(pools)) for _ in "ab")
            assert chain_up_leq(a, b, bound) == up_leq(a, b)


def test_bruhat_oracle_against_main():
    # Each of these breaks the counting test and fails here: the window
    # w(i) + n·nu_i, dropping the max(0, ...) clip, dropping the [r <= i]
    # term, or dropping the degree check.  Two changes keep it correct and
    # pass: [r < i] for [r <= i] (it tests u[i-1, j], and u[0, j] = u[n, j+n]
    # by periodicity), and a j window one shorter at either end (the largest
    # difference of the counts is also reached at another break point).
    for n, degrees, length in ((2, (0, 1), 4), (3, (0,), 4), (3, (0, 1), 3),
                               (4, (0, 1), 3)):
        elems = [a for deg in degrees
                 for a in enumerate_elements(n, deg, length)]
        for a in elems:
            for b in elems:
                assert subword_leq(a, b) == bruhat_leq(a, b)


def test_dispatch():
    assert oracle("length", translation((2, 1, 0))) == 4
    assert oracle("bruhat", WeylElement((2, 1), (1, 0)), translation((1, 0)))
    assert len(oracle("enumerate", n=2, deg=0, bound=2)) == 5


def _permissible_set(lam):
    """Vertexwise permissibility: same W_a-coset as t_lam, and the
    displacement of every vertex (1^k, 0^(n-k)) of the base alcove lies in
    the orbit hull of lam.  For GL_n this characterizes the admissible set,
    through a path completely independent of the Bruhat recursion."""
    import itertools
    from awbm.affine_weyl import all_perms, conv_contains, evaluate
    n = len(lam)
    deg = sum(lam)
    span = max(abs(x) for x in lam) + 1
    vertices = [tuple(1 if i < k else 0 for i in range(n)) for k in range(n)]
    out = set()
    for w in all_perms(n):
        for nu in itertools.product(range(-span, span + 1), repeat=n):
            if sum(nu) != deg:
                continue
            el = WeylElement(w, nu)
            if all(conv_contains(tuple(a - b for a, b in zip(evaluate(el, v), v)),
                                 lam) for v in vertices):
                out.add(el)
    return out


def test_admissible_equals_permissible():
    expected_sizes = {(1, 0): 3, (2, 0): 5, (2, 1): 3, (3, 1): 5,
                      (1, 0, 0): 7, (1, 1, 0): 7, (2, 1, 0): 25}
    for lam, size in expected_sizes.items():
        A = set(adm(lam))
        assert len(A) == size
        assert A == _permissible_set(lam)
    # the vertexwise enumeration against the union of Bruhat intervals,
    # compared as sorted lists in every variant
    for lam in list(expected_sizes) + [(2, 1, 0, 0), (3, 2, 1, 0)]:
        for variant in ("all", "regular", "dual"):
            assert adm(lam, variant) == adm_closure(lam, variant)


def test_adm_and_ap_against_closure_gl4():
    # the subset-chain builder against the union of Bruhat intervals at GL4,
    # one closure per weight, the regular and dual lists derived from it
    regular = {}
    for lam in ((4, 2, 1, 0), (4, 3, 1, 0)):
        closure = adm_closure(lam)
        regular[lam] = [a for a in closure if is_regular(a)]
        assert adm(lam) == closure
        assert adm(lam, "regular") == regular[lam]
        assert adm(lam, "dual") == sorted(map(star, closure), key=sort_key)
    # AP(lam) from the factorization: every pair is admissible, w1 carries
    # the canonical shift, and (w1, w2) -> w2^{-1} w0 w1 is a bijection onto
    # the regular admissible set
    lam = (4, 3, 1, 0)
    pairs = ap_enumerate(lam)
    assert all(ap_member(w1, w2, lam) for w1, w2 in pairs)
    assert all(max(w1.nu) == 0 for w1, _ in pairs)
    products = [multiply(invert(w2), multiply(w0(4), w1)) for w1, w2 in pairs]
    assert len(set(products)) == len(pairs)
    assert sorted(products, key=sort_key) == regular[lam]


def test_adm_member_against_closure():
    rng = random.Random(12)
    for lam in [(2, 0), (3, 1), (2, 1, 0), (2, 0, 0), (2, 1, 0, 0)]:
        n = len(lam)
        closure = set(adm_closure(lam))
        for _ in range(300):
            a = random_element(n, rng, span=3)
            if rng.random() < 0.5:  # move a to the degree of lam
                nu = a.nu[:-1] + (sum(lam) - sum(a.nu[:-1]),)
                a = WeylElement(a.w, nu)
            assert adm_member(a, lam) == (a in closure)
        for a in closure:
            assert adm_member(a, lam)


def test_adm_cli_ignores_length_cap():
    # Adm(5,3,1,0) reaches length 17, and no length bound applies to it
    import subprocess
    import sys
    argv = [sys.executable, "-m", "awbm.cli", "adm", "--n", "4",
            "--lambda", "5,3,1,0"]
    res = subprocess.run(argv, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert len(json.loads(res.stdout)) == 2023


def test_jh_dimensions_add_up_to_the_type_degree():
    """At lam = 0 the JH constituents of sigmabar(tau) are the labels of
    `jh_set`, so their dimensions, prod_j dim F(kappa_j) for kappa =
    `serre_weight` of each label, must add up to deg sigma(tau): a check of
    the AP kernel by representation theory, on seeded deep types at n = 2-3
    and f = 1-3.  At f = 3 the cycle type of s_tau can depend on the order
    of the factors: `type_degree` forms s_0·s_1·s_2, rightmost first, which
    must be `descent`'s s_tau, and one GL3 type whose reversed product has
    another cycle type is included, so that the sum sees the order.  The
    sum is the same for the type (s, mu - eta), so the
    constituents must also have the central character of sigma(tau): the
    scalars z in F_q^x act on F(kappa) by z^e(kappa), e(kappa) =
    sum_j p^(f-1-j)·|kappa_j| mod q - 1 in the embedding order used here,
    and on sigma(tau) by z^e, e = sum_j p^(f-1-j)·|mu_j + eta|."""
    import math
    from functools import reduce
    from awbm.affine_weyl import finite, multiply
    from awbm.context import GroupContext, WeylTuple
    from awbm.descent import descent_data
    from awbm.highest_weights import serre_weight
    from awbm.inertial_types import make_type
    from awbm.oracles import serre_weight_dim, type_degree
    from awbm.weight_sets import jh_set
    from conftest import random_tuple_mu, random_weyl_tuple
    p = 211
    # trivial, Steinberg, principal series and cuspidal GL2 types
    assert serre_weight_dim((4, 4, 4), p) == 1
    assert serre_weight_dim((2 * p - 2, p - 1, 0), p) == p ** 3
    ctx = GroupContext(2, 1, p)
    assert type_degree(make_type(ctx, [(1, 2)], [(5, 0)])) == p + 1
    assert type_degree(make_type(ctx, [(2, 1)], [(5, 0)])) == p - 1
    rng = random.Random(23)
    types = [make_type(GroupContext(n, f, p), random_weyl_tuple(n, f, rng),
                       random_tuple_mu(n, f, p, 2 * n, rng))
             for n, f in [(2, 1), (2, 2), (3, 1), (3, 2)] * 6 + [(2, 3), (3, 3)] * 4]
    # s_0·s_1·s_2 is the identity and s_2·s_1·s_0 = (3,1,2) a 3-cycle
    s = [finite(w) for w in ((1, 3, 2), (2, 1, 3), (2, 3, 1))]
    mu = random_tuple_mu(3, 3, p, 6, rng)
    ctx = GroupContext(3, 3, p)
    types.append(make_type(ctx, WeylTuple(tuple(s)), mu))
    assert type_degree(types[-1]) != type_degree(
        make_type(ctx, WeylTuple(tuple(s[::-1])), mu))
    for tau in types:
        n, f = tau.n, tau.f
        assert descent_data(tau).s_tau == reduce(multiply, tau.s).w
        labels = jh_set(tau, ((0,) * n,) * f)
        assert sum(math.prod(serre_weight_dim(kappa, p)
                             for kappa in serre_weight(sigma))
                   for sigma in labels) == type_degree(tau), (tau.s, tau.mu)
        weights = [p ** (f - 1 - j) for j in range(f)]
        e = sum(c * (sum(mu) + n * (n - 1) // 2) for c, mu in zip(weights, tau.mu))
        assert {sum(c * sum(kappa) for c, kappa in zip(weights, serre_weight(sigma)))
                % (p ** f - 1) for sigma in labels} == {e % (p ** f - 1)}, \
            (tau.s, tau.mu)
