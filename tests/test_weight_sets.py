"""Predicted/JH weight sets, covering, defect, and the cycle solver."""

import collections
import functools
import itertools
import random
import re
from fractions import Fraction

import pytest

from awbm.affine_weyl import (
    GroupContext,
    WeylTuple,
    adm,
    bruhat_interval,
    identity,
    invert,
    is_restricted,
    length,
    multiply,
    translation,
    w0,
)
from awbm.errors import (
    ArgumentError,
    CompatibilityError,
    GenericityError,
    MembershipError,
)
from awbm.highest_weights import serre_weight
from awbm.inertial_types import make_type
from awbm.oracles import covers_up_oracle, jh_contains_fixed
from awbm.weight_sets import (
    bm_cycles,
    covers,
    defect,
    intersection,
    jh_set,
    max_defect_weight,
    w_question,
    w_rhobar_tau,
)
from awbm.weights import SerreWeightPresentation, central_character

CTX = GroupContext(2, 1, 37)
CTX3 = GroupContext(3, 1, 211)
RHO = make_type(CTX, [(1, 2)], [(5, 0)], kind="F")
TAU = make_type(CTX, [(1, 2)], [(5, 0)])
RHO3 = make_type(CTX3, [(1, 2, 3)], [(50, 25, 0)], kind="F")
TAU3 = make_type(CTX3, [(1, 2, 3)], [(50, 25, 0)])


def test_w_question_gl2():
    recs = w_question(RHO)
    assert sorted(serre_weight(r.presentation)[0] for r in recs) == \
        [(-1, -30), (5, 0)]
    assert all(r.obvious and r.defect == 0 for r in recs)


def test_w_question_gl3_counts():
    recs = w_question(RHO3)
    assert len(recs) == 9
    assert sum(1 for r in recs if r.obvious) == 6
    assert sorted(r.defect for r in recs) == [0] * 6 + [1] * 3
    assert all((r.defect == 0) == r.obvious for r in recs)
    # the dominant members of the pairs stay restricted (used by the solver)
    assert all(is_restricted(c) for r in recs for c in r.w2)


def test_w_question_compatibility():
    from awbm.inertial_types import compatible_zeta
    zeta = compatible_zeta(RHO3).zeta
    for r in w_question(RHO3):
        assert central_character(r.presentation).zeta == zeta


def test_w_question_genericity_check():
    shallow = make_type(CTX, [(1, 2)], [(1, 0)], kind="F")
    with pytest.raises(GenericityError):
        w_question(shallow)
    assert len(w_question(shallow, force=True)) == 2


def test_jh_set_gl2():
    out = jh_set(TAU, ((0, 0),))
    keys = {(s.w1[0].w, s.w1[0].nu, s.omega[0]) for s in out}
    assert keys == {((1, 2), (0, 0), (7, 0)), ((2, 1), (0, -1), (7, 1))}
    assert sorted(serre_weight(s)[0] for s in out) == [(0, -30), (6, 0)]
    # lambda = eta enlarges the set to |AP(2,0)| = 4
    assert len(jh_set(TAU, ((1, 0),))) == 4


def test_jh_counts_gl3():
    assert len(jh_set(TAU3, ((0, 0, 0),))) == 9


def test_jh_depth_bound():
    m = TAU.depth()
    for s in jh_set(TAU, ((1, 0),)):
        assert s.depth() >= m - 2  # h_{lambda+eta} = 2 for lambda = eta


def test_jh_fixed_criterion_matches():
    labels = set(jh_set(TAU, ((0, 0),)))
    candidates = list(labels)
    # some compatible non-member: a weight from a different type
    other = make_type(CTX, [(1, 2)], [(9, 0)])
    for s in jh_set(other, ((0, 0),)):
        shifted = SerreWeightPresentation(
            s.w1, tuple(tuple(x - 4 for x in row) for row in s.omega), CTX)
        candidates.append(shifted)
    for s in candidates:
        assert jh_contains_fixed(TAU, ((0, 0),), s) == (s in labels)


def test_w_question_inside_eta_shifted_jh():
    # with the eta-shifted auxiliary element, every predicted weight is a
    # constituent of the corresponding eta-twisted type
    for rho, ctx in [(RHO, CTX), (RHO3, CTX3)]:
        n = ctx.n
        eta = tuple(range(n - 1, -1, -1))
        shift = translation(tuple(-e - eta[-1 - i]
                                  for i, e in enumerate(eta)))  # -eta-w0(eta)
        comps = tuple(multiply(g, shift) for g in rho.w_tilde())
        from awbm.weight_sets import _aux_type_from_element
        R = _aux_type_from_element(ctx, WeylTuple(comps))
        jh = set(jh_set(R, (eta,) * ctx.f, force=True))
        for rec in w_question(rho):
            assert rec.presentation in jh


def test_covers_reflexive_and_examples():
    labels = jh_set(TAU3, ((0, 0, 0),))
    for s in labels:
        assert covers(s, s)
    by_key = {(s.w1[0].w, s.w1[0].nu): s for s in labels}
    # a longer restricted class covers a shorter one at matching omega data,
    # and the reverse fails
    upper = by_key[((1, 3, 2), (0, 0, -1))]
    lower = by_key[((3, 1, 2), (0, 0, -1))]
    assert upper.omega == lower.omega == ((54, 27, 1),)
    assert covers(upper, lower) and not covers(lower, upper)
    assert covers_up_oracle(upper, lower) and not covers_up_oracle(lower, upper)
    # for GL_2 the two constituents of one type never cover each other
    out2 = jh_set(TAU, ((0, 0),))
    for a in out2:
        for b in out2:
            assert covers(a, b, force=True) == (a == b)


def test_covers_requires_compatibility():
    out2 = jh_set(TAU, ((0, 0),))
    other = jh_set(make_type(CTX, [(1, 2)], [(6, 0)]), ((0, 0),))
    with pytest.raises(CompatibilityError):
        covers(out2[0], other[0], force=True)


def test_covers_length_monotone():
    rng = random.Random(40)
    labels = jh_set(TAU3, ((1, 1, 0),), force=True)
    for _ in range(40):
        s0, s1 = rng.choice(labels), rng.choice(labels)
        if covers(s0, s1, force=True):
            assert sum(map(length, s1.w1)) <= sum(map(length, s0.w1))


def _covers_by_containment(sigma0, sigma):
    """Covering as containment of the two intervals, both built as sets: the
    reference for `covers`, which builds only the lower one."""
    n = sigma0.ctx.n
    for j in range(sigma0.ctx.f):
        big = set(bruhat_interval(multiply(w0(n), sigma0.w1[j])))
        shift = translation(tuple(
            a - b for a, b in zip(sigma.omega[j], sigma0.omega[j])))
        for m in bruhat_interval(multiply(w0(n), sigma.w1[j])):
            if multiply(shift, m) not in big:
                return False
    return True


def test_covers_matches_interval_containment_gl4():
    # the 344 labels of `jh --n 4 --f 1 --p 211 --s 1,4,2,3@0,0,0,0 --mu
    # 232,178,72,44 --lambda 1,1,0,0`; uniform pairs are almost all false, so
    # most of the sample puts a longer class on top of omega data 0 or 1 less
    fam = jh_set(make_type(GroupContext(4, 1, 211), [(1, 4, 2, 3)],
                           [(232, 178, 72, 44)]), ((1, 1, 0, 0),), force=True)
    assert len(fam) == 344
    lengths = {s: sum(map(length, s.w1)) for s in fam}
    near = [(a, b) for a in fam for b in fam if lengths[a] > lengths[b]
            and all(0 <= x - y <= 1 for x, y in zip(a.omega[0], b.omega[0]))]
    rng = random.Random(41)
    pairs = rng.sample(near, 120) + [
        (rng.choice(fam), rng.choice(fam)) for _ in range(60)]
    answers = [covers(a, b, force=True) for a, b in pairs]
    assert answers == [_covers_by_containment(a, b) for a, b in pairs]
    assert 10 < sum(answers) < len(answers) - 10


def test_intersection_example():
    tau40 = make_type(CTX, [(1, 2)], [(4, 0)])
    out = intersection(RHO, tau40, ((0, 0),))
    assert len(out) == 1 and serre_weight(out[0]) == ((5, 0),)
    wq = {r.presentation for r in w_question(RHO)}
    assert set(out) == wq & set(jh_set(tau40, ((0, 0),)))


def test_intersection_requires_common_character():
    bad = make_type(CTX, [(1, 2)], [(3, 0)])
    with pytest.raises(CompatibilityError):
        intersection(RHO, bad, ((0, 0),))


def test_w_rhobar_tau():
    tau40 = make_type(CTX, [(1, 2)], [(4, 0)])
    assert w_rhobar_tau(RHO, tau40)[0] == translation((1, 0))


def test_defect_and_membership():
    K = max_defect_weight(RHO, make_type(CTX, [(1, 2)], [(4, 0)]))
    assert K == SerreWeightPresentation(WeylTuple((identity(2),)), ((6, 0),), CTX)
    assert defect(RHO, K) == 0
    stranger = SerreWeightPresentation(WeylTuple((identity(2),)), ((10, 0),), CTX)
    with pytest.raises(MembershipError):
        defect(RHO, stranger)


def test_max_defect_requires_admissible():
    # compatible characters, but w(rho,tau) = t_{(1,-1)}: regular, degree 0,
    # hence outside Adm(eta)
    rho6 = make_type(CTX, [(1, 2)], [(6, 0)], kind="F")
    skew = make_type(CTX, [(1, 2)], [(4, 1)], kind="E")
    with pytest.raises(ArgumentError):
        max_defect_weight(rho6, skew)


def test_max_defect_unique_maximizer_gl3():
    rng = random.Random(41)
    reg = adm((2, 1, 0), "regular")
    wt_rho = RHO3.w_tilde()
    from awbm.weight_sets import _aux_type_from_element
    for _ in range(25):
        g = rng.choice(reg)
        comps = WeylTuple((multiply(wt_rho[0], invert(g)),))
        # tau with w(rho, tau) = g
        tau = _aux_type_from_element(CTX3, comps)
        K = max_defect_weight(RHO3, tau)
        members = intersection(RHO3, tau, ((0, 0, 0),), force=True)
        assert K in members
        dk = defect(RHO3, K)
        for s in members:
            if s != K:
                assert defect(RHO3, s) < dk


def test_bm_cycles_gl2():
    solved = bm_cycles(RHO, force=True)
    assert len(solved) == 2
    for sigma, (d, expr) in solved.items():
        assert d == 0 and len(expr.terms) == 1
        assert expr.terms[0][1] == Fraction(1)


def test_bm_cycles_gl3_triangular():
    solved = bm_cycles(RHO3)
    assert sorted(d for d, _ in solved.values()) == [0] * 6 + [1] * 3
    for sigma, (d, expr) in solved.items():
        if d == 0:
            assert len(expr.terms) == 1 and expr.terms[0][1] == 1
        else:
            assert len(expr.terms) >= 2
            coeffs = dict(expr.terms)
            assert all(abs(c) == 1 for c in coeffs.values())


def test_bm_cycles_f2():
    ctx = GroupContext(2, 2, 37)
    rho = make_type(ctx, [(1, 2), (2, 1)], [(5, 0), (9, 2)], kind="F")
    solved = bm_cycles(rho)
    assert len(solved) == 4
    for sigma, (d, expr) in solved.items():
        assert d == 0
        assert len(expr.terms) == 1 and expr.terms[0][1] == 1


def test_jh_fixed_criterion_sampled_gl3():
    rng = random.Random(42)
    labels = set(jh_set(TAU3, ((0, 0, 0),)))
    pool = list(labels)
    # compatible non-members from a shifted type
    from awbm.weight_sets import _aux_type_from_element
    g = rng.choice(adm((2, 1, 0), "regular"))
    other = _aux_type_from_element(
        CTX3, WeylTuple((multiply(TAU3.w_tilde()[0], invert(g)),)))
    pool += list(jh_set(other, ((0, 0, 0),), force=True))
    for s in rng.sample(pool, 12):
        assert jh_contains_fixed(TAU3, ((0, 0, 0),), s) == (s in labels)


def test_defect_zero_intersections_are_singletons():
    # the auxiliary type of an obvious weight meets the predicted set in
    # exactly that weight
    from awbm.affine_weyl import perm_inverse, perm_act
    from awbm.weight_sets import _aux_type_from_element
    eta = (2, 1, 0)
    for rec in w_question(RHO3):
        if not rec.obvious:
            continue
        shift = translation(tuple(-x for x in perm_act(
            perm_inverse(rec.w[0].w), eta)))
        taux = _aux_type_from_element(
            CTX3, WeylTuple((multiply(RHO3.w_tilde()[0], shift),)))
        assert intersection(RHO3, taux, ((0, 0, 0),), force=True) == \
            [rec.presentation]


def test_bm_cycles_f2_gl3_tensor_structure():
    from collections import Counter
    ctx = GroupContext(3, 2, 211)
    rho = make_type(ctx, [(2, 1, 3), (1, 3, 2)],
                    [(60, 30, 0), (50, 20, 0)], kind="F")
    solved = bm_cycles(rho)
    assert len(solved) == 81
    hist = Counter(d for d, _ in solved.values())
    assert dict(hist) == {0: 36, 1: 36, 2: 9}
    terms = Counter(len(e.terms) for _, e in solved.values())
    assert dict(terms) == {1: 36, 2: 36, 4: 9}


def test_predicted_weights_inside_eta_shifted_jh_f2():
    ctx = GroupContext(2, 2, 37)
    rho = make_type(ctx, [(1, 2), (2, 1)], [(5, 0), (9, 2)], kind="F")
    n = 2
    shift = translation((-(n - 1),) * n)  # -eta - w0(eta)
    comps = tuple(multiply(g, shift) for g in rho.w_tilde())
    from awbm.weight_sets import _aux_type_from_element
    R = _aux_type_from_element(ctx, WeylTuple(comps))
    eta = tuple(range(n - 1, -1, -1))
    jh = set(jh_set(R, (eta,) * 2, force=True))
    for rec in w_question(rho):
        assert rec.presentation in jh


def test_jh_presentations_are_lambda_compatible():
    from awbm.inertial_types import compatible_zeta
    for lam in [((0, 0),), ((1, 0),), ((2, 1),)]:
        want = compatible_zeta(TAU, lam).zeta
        for s in jh_set(TAU, lam):
            assert central_character(s).zeta == want


def test_predicted_weights_match_classical_rank_two_shape():
    # niveau-one mod-p types of GL_2: the predicted pair consists of the
    # evident weight (r, 0) and its companion of symmetric-power degree
    # p - 3 - r twisted by the (r+1)-st determinant power, i.e. highest
    # weight (p-2, r+1) up to the central equivalence
    from awbm.highest_weights import weights_equal_mod_center
    p = 37
    for r in (3, 5, 11, 17, 20, 30):
        rho = make_type(CTX, [(1, 2)], [(r, 0)], kind="F")
        ks = [serre_weight(rec.presentation)[0] for rec in w_question(rho)]
        assert len(ks) == 2
        assert any(weights_equal_mod_center((k,), ((r, 0),), p) for k in ks)
        assert any(weights_equal_mod_center((k,), ((p - 2, r + 1),), p)
                   for k in ks)


def test_predicted_weights_match_classical_rank_two_irreducible():
    # irreducible (niveau-two) mod-p types of GL_2 with fundamental-character
    # exponent r+1: the classical pair is Sym^r and Sym^{p-1-r} det^r, the
    # latter with highest weight (p-1, r) up to the central equivalence
    from awbm.highest_weights import weights_equal_mod_center
    p = 37
    for r in (3, 5, 11, 17, 20, 30):
        rho = make_type(CTX, [(2, 1)], [(r, 0)], kind="F")
        ks = [serre_weight(rec.presentation)[0] for rec in w_question(rho)]
        assert len(ks) == 2
        assert any(weights_equal_mod_center((k,), ((r, 0),), p) for k in ks)
        assert any(weights_equal_mod_center((k,), ((p - 1, r),), p)
                   for k in ks)


# ---------------------------------------------------------------------------
# the factored W?, intersection and defect against record scans

@functools.lru_cache(maxsize=8)
def _scan_w_question(rho):
    """W? as one flat list of (presentation, w, w2, obvious, defect) over all
    pair tuples, sorted by presentation: the definition, without factors."""
    from awbm.affine_weyl import (bruhat_interval, evaluate, is_dominant,
                                  length, restricted_classes, w0, w_h)
    ctx, n = rho.ctx, rho.ctx.n
    wt = rho.w_tilde()
    eta = tuple(range(n - 1, -1, -1))
    pairs = [(w, w2) for w in restricted_classes(n)
             for w2 in bruhat_interval(w) if is_dominant(w2)]
    # the defect at embedding j depends on the pair at j only
    term = {(w, w2): length(translation(eta)) - length(multiply(
        invert(multiply(w_h(n), w)), multiply(w0(n), w2))) for w, w2 in pairs}
    out = []
    for combo in itertools.product(pairs, repeat=ctx.f):
        w = WeylTuple(tuple(c[0] for c in combo))
        w2 = WeylTuple(tuple(c[1] for c in combo))
        omega = tuple(evaluate(wt[j], evaluate(invert(w2[j]), (0,) * n))
                      for j in range(ctx.f))
        d = sum(term[c] for c in combo)
        out.append((SerreWeightPresentation(w, omega, ctx), w, w2, w == w2, d))
    return sorted(out, key=lambda r: r[0].sort_key())


def _scan_intersection(rho, tau, lam, arrow=None):
    """Every W? record through the arrow test at every embedding, with the
    right-hand side built from elements and ↑ decided by `arrow` (default
    `up_leq`)."""
    from awbm.affine_weyl import (dominant_witness, finite, is_dominant,
                                  perm_inverse, up_leq, w_h)
    arrow = arrow or up_leq
    n = rho.ctx.n
    wt_tau = tau.w_tilde()
    out = set()
    rhs = {}  # (j, omega_j) -> the right-hand side, as an element
    for sigma, *_ in _scan_w_question(rho):
        ok = True
        for j in range(rho.ctx.f):
            if (j, sigma.omega[j]) not in rhs:
                g = multiply(translation(tuple(-x for x in sigma.omega[j])),
                             wt_tau[j])
                w2 = multiply(finite(perm_inverse(dominant_witness(g))), g)
                assert is_dominant(w2)
                rhs[j, sigma.omega[j]] = multiply(
                    translation(lam[j]), multiply(invert(w_h(n)), w2))
            ok = ok and arrow(sigma.w1[j], rhs[j, sigma.omega[j]])
        if ok:
            out.add(sigma)
    return sorted(out, key=lambda s: s.sort_key())


def _lam_compatible_type(rho, lam, rng):
    """A type whose w̃(rhobar, tau) is drawn from Adm(lam_j + eta) at each
    embedding, so that tau is lam-compatible with rhobar."""
    from awbm.weight_sets import _aux_type_from_element
    n = rho.ctx.n
    eta = tuple(range(n - 1, -1, -1))
    comps = tuple(
        multiply(g, invert(rng.choice(adm(tuple(l + e for l, e in zip(row, eta))))))
        for g, row in zip(rho.w_tilde(), lam))
    return _aux_type_from_element(rho.ctx, WeylTuple(comps))


@pytest.mark.parametrize("n,f,seed", [(2, 2, 1), (2, 3, 2), (3, 2, 3), (3, 3, 4),
                                      (4, 1, 5), (4, 2, 6), (5, 1, 7)])
def test_factored_weight_sets_match_record_scans(n, f, seed):
    from conftest import random_tuple_mu, random_weyl_tuple
    rng = random.Random(seed)
    p = 211
    ctx = GroupContext(n, f, p)
    rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                    random_tuple_mu(n, f, p, 2 * n, rng), kind="F")
    scan = _scan_w_question(rho)
    recs = w_question(rho)
    assert [(r.presentation, r.w, r.w2, r.obvious, r.defect) for r in recs] \
        == scan
    for sigma, *_, d in rng.sample(scan, min(10, len(scan))):
        assert defect(rho, sigma) == d
    outsider = SerreWeightPresentation(
        scan[0][0].w1, ((p, 0) + (0,) * (n - 2),) + scan[0][0].omega[1:], ctx)
    with pytest.raises(MembershipError):
        defect(rho, outsider)
    lams = [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (1,) * (n - 2) + (0,)]
    for _ in range(4):
        lam = tuple(rng.choice(lams) for _ in range(f))
        tau = _lam_compatible_type(rho, lam, rng)
        got = intersection(rho, tau, lam, force=True)
        assert got == _scan_intersection(rho, tau, lam)
        assert got, "the drawn type meets W? in its defect maximizer at least"


@pytest.mark.parametrize("n,f,seed", [(3, 1, 41), (3, 2, 42), (4, 1, 43),
                                      (5, 1, 44)])
def test_intersection_is_the_jh_rows_that_are_w_question_rows(n, f, seed):
    """Per embedding, intersection_factors(rhobar, tau, lam) is the rows of
    jh_factors(tau, lam) that are also rows of w_question_factors(rhobar),
    in JH order: W?(rhobar) ∩ JH(tau), the set that the shape-keyed
    `_accepted_labels` computes without building either side."""
    from conftest import random_tuple_mu, random_weyl_tuple
    from awbm.weight_sets import (
        intersection_factors,
        jh_factors,
        w_question_factors,
    )
    rng = random.Random(seed)
    p = 211
    ctx = GroupContext(n, f, p)
    lam = ((0,) * n,) * f
    for _ in range(3):
        rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                        random_tuple_mu(n, f, p, 2 * n, rng), kind="F")
        tau = _lam_compatible_type(rho, lam, rng)
        wq = [{row for row, *_ in factor} for factor in w_question_factors(rho)]
        jh = jh_factors(tau, lam, force=True)
        got = intersection_factors(rho, tau, lam, force=True)
        assert [list(rows) for rows in got] == [
            [row for row in jh_j if row in wq_j] for jh_j, wq_j in zip(jh, wq)]
        assert all(0 < len(rows) < len(jh_j) for rows, jh_j in zip(got, jh))


def test_shifted_representative_is_the_canonical_presentation():
    rng = random.Random(7)
    from awbm.affine_weyl import restricted_classes
    ctx = GroupContext(3, 2, 211)
    for _ in range(20):
        w1 = WeylTuple(tuple(rng.choice(restricted_classes(3)) for _ in range(2)))
        omega = tuple(tuple(rng.randrange(-50, 300) for _ in range(3))
                      for _ in range(2))
        c = [rng.randrange(-5, 6) for _ in range(2)]
        shifted = SerreWeightPresentation(
            WeylTuple(tuple(multiply(translation((c[j],) * 3), w1[j])
                            for j in range(2))),
            tuple(tuple(x - c[j] for x in omega[j]) for j in range(2)), ctx)
        plain = SerreWeightPresentation(w1, omega, ctx)
        assert shifted == plain and hash(shifted) == hash(plain)
        assert shifted.to_json() == plain.to_json()
        assert shifted.sort_key() == plain.sort_key()
        assert all(max(a.nu) == 0 for a in shifted.w1)


def test_w_question_is_sorted_and_duplicate_free():
    rho = make_type(GroupContext(3, 2, 211), [(2, 1, 3), (1, 3, 2)],
                    [(60, 30, 0), (50, 20, 0)], kind="F")
    keys = [r.presentation.sort_key() for r in w_question(rho)]
    assert len(keys) == 81
    assert all(a < b for a, b in zip(keys, keys[1:]))


def _w_question_pairs_by_elements(n):
    """The W? pairs and summands through the group law: each pair (w1, w2)
    of AP(eta) as elements, R(w1) = w_h·w1, the central shift that makes
    max nu(w) zero, and l(t_eta) - l(w2^{-1}·w0·w1)."""
    from awbm.affine_weyl import ap_enumerate, length, w_h
    eta = tuple(range(n - 1, -1, -1))
    t_eta = length(translation(eta))
    out = {}
    for w1, w2 in ap_enumerate(eta):
        w = multiply(w_h(n), w1)
        shift = translation((-max(w.nu),) * n)
        out[multiply(shift, w), multiply(shift, w2)] = t_eta - length(
            multiply(invert(w2), multiply(w0(n), w1)))
    return out


def _table_pairs(n):
    """The pairs (w, w2) of the W? labels at rank n, read off the expanded
    table."""
    from awbm.weight_sets import _w_question_groups
    return [(label[1], label[3]) for group in _w_question_groups(n).values()
            for label in group]


def test_w_question_pairs_match_the_group_law():
    # `_w_question_groups` forms one label per Omega-orbit on the tuples and
    # points of the AP kernel and expands the orbits on points; the expanded
    # labels must give the same pairs and summands as the element products,
    # each filed under its own x, with w's sort key and point, and the W?
    # rows at a seeded avatar must be the rows of the validated
    # presentations, in their order
    from conftest import random_tuple_mu, random_weyl_tuple
    from awbm.affine_weyl import alcove_point, evaluate, sort_key
    from awbm.weight_sets import _w_question_groups, w_question_factors
    rng = random.Random(22)
    for n in (2, 3, 4, 5):
        groups, ref = _w_question_groups(n), _w_question_pairs_by_elements(n)
        labels = [label for group in groups.values() for label in group]
        got = {(w, w2): d for _, w, _, w2, _, d in labels}
        assert len(got) == len(labels) and got == ref, n
        assert all(type(w.w) is tuple and type(w.nu) is tuple
                   for pair in got for w in pair)
        # the summand vanishes exactly on the obvious pairs
        assert all((d == 0) == (w == w2) for (w, w2), d in got.items())
        assert all(label[:3] == (sort_key(label[1]), label[1], x)
                   and x == evaluate(invert(label[3]), (0,) * n)
                   and label[4] == alcove_point(label[1])
                   for x, group in groups.items() for label in group)
        rho = make_type(GroupContext(n, 1, 211), random_weyl_tuple(n, 1, rng),
                        random_tuple_mu(n, 1, 211, 2 * n, rng), kind="F")
        [factor] = w_question_factors(rho)
        g = rho.w_tilde()[0]
        assert [row for row, *_ in factor] == list(_rows_by_presentations(g, ref))
        assert all(d == ref[w, w2] for _, w, w2, d in factor)
    assert max(ref.values()) == 10


def _rows_by_presentations(wt_j, pairs):
    """The canonical rows of the one-embedding presentations
    (w, wt_j(w2^{-1}(0))), built and canonicalized by the validating
    constructor, in the order of their sort keys."""
    from awbm.affine_weyl import evaluate
    one = GroupContext(wt_j.n)
    zero = (0,) * wt_j.n
    pres = sorted((SerreWeightPresentation(
        WeylTuple((w,)), (evaluate(wt_j, evaluate(invert(w2), zero)),), one)
        for w, w2 in pairs), key=lambda s: s.sort_key())
    return tuple((s.w1[0], s.omega[0]) for s in pres)


def test_jh_rows_match_one_embedding_presentations():
    # `_rows` computes omega_j and the sort key on tuples; the JH factors
    # must equal the rows of the validated one-embedding presentations
    from awbm.affine_weyl import ap_enumerate
    from awbm.weight_sets import jh_factors
    from conftest import random_tuple_mu, random_weyl_tuple
    rng = random.Random(26)
    for n, f in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]:
        ctx = GroupContext(n, f, 211)
        tau = make_type(ctx, random_weyl_tuple(n, f, rng),
                        random_tuple_mu(n, f, 211, 2 * n, rng))
        eta = tuple(range(n - 1, -1, -1))
        for lam in [(0,) * n, (1,) + (0,) * (n - 1),
                    (2,) + (1,) * (n - 2) + (0,)]:
            lams = ((lam,) + ((0,) * n,) * (f - 1))[::rng.choice((1, -1))]
            got = jh_factors(tau, lams, force=True)
            assert got == [_rows_by_presentations(g, ap_enumerate(
                tuple(l + e for l, e in zip(row, eta))))
                for g, row in zip(tau.w_tilde(), lams)], (n, f, lams)


def test_jh_rows_share_one_element_per_point():
    # the rows of one embedding hold each distinct w as one object, read
    # once per point by the AP expansion
    from awbm.weight_sets import jh_factors
    ctx = GroupContext(4, 2, 211)
    tau = make_type(ctx, [(1, 4, 2, 3), (4, 1, 2, 3)],
                    [(232, 178, 72, 44), (200, 176, 126, 99)])
    for rows in jh_factors(tau, ((1, 1, 0, 0), (1, 0, 0, 0)), force=True):
        ws = [w for w, _ in rows]
        assert len(ws) > len(set(ws))
        assert len({id(w) for w in ws}) == len(set(ws))


def test_jh_factors_enumerate_each_distinct_row_once(monkeypatch):
    # equal rows of lambda share one AP(lambda_j + eta)
    from awbm import weight_sets
    ctx = GroupContext(4, 2, 211)
    tau = make_type(ctx, [(1, 4, 2, 3), (4, 1, 2, 3)],
                    [(232, 178, 72, 44), (200, 176, 126, 99)])
    calls = []
    ap_points = weight_sets._ap_points
    monkeypatch.setattr(weight_sets, "_ap_points",
                        lambda lam: calls.append(lam) or ap_points(lam))
    weight_sets.jh_factors(tau, ((1, 1, 0, 0),) * 2, force=True)
    assert calls == [(4, 3, 1, 0)]
    calls.clear()
    weight_sets.jh_factors(tau, ((1, 1, 0, 0), (1, 0, 0, 0)), force=True)
    assert sorted(calls) == [(4, 2, 1, 0), (4, 3, 1, 0)]


def test_bm_cycles_are_in_w_question_order():
    # bm writes bm_cycles' records as they come: their keys must be W?
    from conftest import random_tuple_mu, random_weyl_tuple
    rng = random.Random(27)
    for n, f in [(3, 2), (4, 1), (3, 3)]:
        ctx = GroupContext(n, f, 211)
        rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                        random_tuple_mu(n, f, 211, 2 * n, rng), kind="F")
        assert list(bm_cycles(rho)) == [r.presentation for r in w_question(rho)]


def test_bm_cycles_match_recursive_oracle():
    """The product of one-embedding solves equals the record-by-record
    recursion over all of W?: deep random types at GL2-GL3 with f = 1 to 3
    and GL4 with f = 1, then forced shallow types (depth 0) at small p."""
    from conftest import perms, random_deep_mu, random_tuple_mu, random_weyl_tuple
    from awbm.oracles import bm_cycles_recursive
    rng = random.Random(61)
    for n, f, p in [(2, 1, 37), (2, 2, 37), (2, 3, 37), (3, 1, 211),
                    (3, 2, 211), (3, 3, 211), (4, 1, 211)]:
        ctx = GroupContext(n, f, p)
        rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                        random_tuple_mu(n, f, p, 2 * n, rng), kind="F")
        assert bm_cycles(rho) == bm_cycles_recursive(rho), (n, f)
    for _ in range(40):
        n, f, p = rng.choice([(2, 1, 7), (2, 2, 7), (2, 3, 7), (3, 1, 11),
                              (3, 2, 7), (3, 2, 13)])
        rho = make_type(GroupContext(n, f, p),
                        [rng.choice(perms(n)) for _ in range(f)],
                        [random_deep_mu(n, p, 0, rng) for _ in range(f)], kind="F")
        assert bm_cycles(rho, force=True) == \
            bm_cycles_recursive(rho, force=True), (rho.s, rho.mu)


def test_point_scan_matches_element_scan():
    """The arrow scan on alcove points (`_accepted_labels`: right-hand sides by
    a sort, ↑ counted on points) against the record scan with right-hand
    sides built from elements: seeded GL4 types with f = 1 and 2 through
    `up_leq`, then forced shallow types (depth 0) at p in {7, 11, 13}
    through `oracles.count_up_leq`, which reads its windows off (w, nu) and
    counts at every j."""
    from conftest import random_deep_mu, random_tuple_mu, random_weyl_tuple
    from awbm.oracles import count_up_leq
    rng = random.Random(17)
    scanned = accepted = 0

    def check(rho, lam, arrow=None):
        nonlocal scanned, accepted
        tau = _lam_compatible_type(rho, lam, rng)
        got = intersection(rho, tau, lam, force=True)
        assert got == _scan_intersection(rho, tau, lam, arrow), (rho, tau, lam)
        scanned += len(w_question(rho, force=True))
        accepted += len(got)

    for f, lams in [(1, [((0, 0, 0, 0),), ((1, 0, 0, 0),), ((2, 1, 1, 0),)]),
                    (2, [((1, 0, 0, 0), (0, 0, 0, 0))])]:
        rho = make_type(GroupContext(4, f, 211), random_weyl_tuple(4, f, rng),
                        random_tuple_mu(4, f, 211, 8, rng), kind="F")
        for lam in lams:
            check(rho, lam)
    for _ in range(20):
        n, f, p = rng.choice([(3, 1, 7), (3, 2, 11), (3, 1, 13), (4, 1, 11),
                              (4, 1, 13)])
        rho = make_type(GroupContext(n, f, p), random_weyl_tuple(n, f, rng),
                        [random_deep_mu(n, p, 0, rng) for _ in range(f)], kind="F")
        lam = tuple(rng.choice([(0,) * n, (1,) + (0,) * (n - 1)]) for _ in range(f))
        check(rho, lam, count_up_leq)
    assert 0 < accepted < scanned


def _accepted_rows_by_avatars(wt_rho_j, wt_tau_j, lam_j):
    """The arrow scan keyed by both avatars, as it was before the table was
    keyed by shape: every W? row (w1, omega) at wt_rho_j, built here by the
    validating constructor, against the right-hand side read off the point
    of wt_tau_j less n·omega, sorted, then moved by t_{lam_j} w_h^{-1}."""
    from awbm.affine_weyl import alcove_point, perm_act, up_leq_points, w_h
    n = wt_rho_j.n
    whinv = invert(w_h(n))
    lift = [n * (l + m) for l, m in zip(lam_j, whinv.nu)]
    base = alcove_point(wt_tau_j)
    out = []
    for w1, omega in _rows_by_presentations(wt_rho_j, _table_pairs(n)):
        y = sorted((b - n * o for b, o in zip(base, omega)), reverse=True)
        assert len({c % n for c in y}) == n
        z = tuple(c + s for c, s in zip(perm_act(whinv.w, y), lift))
        if up_leq_points(alcove_point(w1), z):
            out.append((w1, omega))
    return tuple(out)


def _mu_at_depth(n, p, depth, rng):
    """A weight exactly depth-deep in the base alcove: a deeper one with one
    simple gap narrowed to depth."""
    from awbm.context import weight_depth_base
    from conftest import random_deep_mu
    for _ in range(100):
        mu = random_deep_mu(n, p, depth, rng)
        i = rng.randrange(n - 1)
        cut = mu[i] - mu[i + 1] - depth
        mu = tuple(m - cut if k <= i else m for k, m in enumerate(mu))
        if weight_depth_base(mu, p) == depth:
            return mu
    raise AssertionError(f"no weight exactly {depth}-deep for n={n}, p={p}")


def test_intersection_by_shape_matches_the_avatar_scan():
    """`intersection_factors` takes its rows from one table of accepted
    labels per (w̃(rhobar, tau)_j, lam_j), relabelled by w̃(rhobar)_j; they
    must be the rows of the scan keyed by both avatars, at n = 2-5 and
    f = 1-3, with lam = 0 and lam != 0, on types whose depth is random or
    exactly the gate.  Pairs that pass the gate are checked unforced."""
    from conftest import random_deep_mu, random_weyl_tuple
    from awbm.weight_sets import intersection_factors
    rng = random.Random(31)
    seen = {"lam != 0": 0, "rhobar at the gate": 0, "tau at the gate": 0,
            "forced": 0, "accepted": 0, "refused": 0}
    for n, f, p, tries in [(2, 1, 37, 6), (2, 3, 37, 4), (3, 1, 211, 6),
                           (3, 2, 211, 4), (3, 3, 211, 3), (4, 1, 211, 4),
                           (4, 2, 211, 2), (5, 1, 211, 2)]:
        ctx = GroupContext(n, f, p)
        eta = tuple(range(n - 1, -1, -1))
        gate = 2 * (n - 1)
        lams = [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (1,) * (n - 2) + (0,)]
        for t in range(tries):
            depth = [gate, gate + rng.randrange(3), 2 * n + 5][t % 3]
            rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                            [_mu_at_depth(n, p, depth, rng) if j == 0 else
                             random_deep_mu(n, p, depth, rng) for j in range(f)],
                            kind="F")
            for lam in lams:
                lam = tuple(rng.choice((lam, lams[0])) for _ in range(f))
                tau = _lam_compatible_type(rho, lam, rng)
                tau_gate = max(gate, (n - 1) + max(row[0] - row[-1] for row in lam))
                force = rho.depth() < gate or tau.depth() < tau_gate
                got = intersection_factors(rho, tau, lam, force=force)
                assert got == [_accepted_rows_by_avatars(a, b, row) for a, b, row
                               in zip(rho.w_tilde(), tau.w_tilde(), lam)], \
                    (rho, tau, lam)
                seen["lam != 0"] += any(map(any, lam))
                seen["rhobar at the gate"] += rho.depth() == gate and not force
                seen["tau at the gate"] += tau.depth() == tau_gate and not force
                seen["forced"] += force
                seen["accepted"] += sum(map(len, got))
                seen["refused"] += f * len(_table_pairs(n)) - sum(map(len, got))
    assert min(seen.values()) >= 1, seen


_NOT_PREDICTED = "^sigma does not lie in the predicted set of rhobar$"


@pytest.mark.parametrize("n,f,seed", [(2, 1, 51), (2, 2, 52), (3, 1, 53),
                                      (3, 2, 54), (4, 1, 55), (4, 2, 56),
                                      (5, 1, 57), (5, 2, 58)])
def test_defect_lookup_matches_the_w_question_rows(n, f, seed):
    """`defect` reads the row (w1_j, omega_j) off its own factorization:
    on every row of every W? factor, glued to random rows of the other
    factors, it must give the sum of the rows' summands.  The first four
    such presentations of each factor, and one in four of the rest, are
    also moved off W? at row j: by a w1_j of another row, by omega_j + e_k,
    by w1_j = w_h·w0·w2, which makes a = w2^{-1}·w0·w_h^{-1}·w1_j the
    identity, and by (t_lam·w1_j, w̃(rhobar)_j(w2^{-1}(-lam))),
    lam = (1, 0, .., 0), which keeps a and breaks w_h^{-1}·w1_j's
    restrictedness; the first four are also glued over another context.
    Each of these must raise MembershipError with its one message, and
    every refusal the closed form makes (`_refusal`) must occur."""
    from conftest import random_tuple_mu, random_weyl_tuple
    from awbm.affine_weyl import evaluate, w_h
    from awbm.weight_sets import w_question_factors
    rng = random.Random(seed)
    p = 211
    ctx, elsewhere = GroupContext(n, f, p), GroupContext(n, f, 223)
    rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                    random_tuple_mu(n, f, p, 2 * n, rng), kind="F")
    factors = w_question_factors(rho)
    rows = [{row for row, *_ in factor} for factor in factors]
    lam = (1,) + (0,) * (n - 1)
    members, seen = 0, collections.Counter()
    for j, (g, factor) in enumerate(zip(rho.w_tilde(), factors)):
        for k, ((w1, omega), _, w2, _) in enumerate(factor):
            picked = [rng.choice(fac) for fac in factors]
            picked[j] = factor[k]
            on = [r[0] for r in picked]
            assert defect(rho, _glue_checked(ctx, on)) == sum(r[3] for r in picked)
            members += 1
            moved = [(rng.choice(factor)[0][0], omega),
                     (w1, tuple(c + (i == k % n) for i, c in enumerate(omega))),
                     (multiply(w_h(n), multiply(w0(n), w2)), omega),
                     (multiply(translation(lam), w1),
                      evaluate(g, evaluate(invert(w2), tuple(-c for c in lam))))]
            for row in moved if k < 4 else moved[k % 4:k % 4 + 1]:
                sigma = _glue_checked(ctx, on[:j] + [row] + on[j + 1:])
                if (sigma.w1[j], sigma.omega[j]) in rows[j]:
                    continue
                seen[_refusal(rho, j, sigma)] += 1
                with pytest.raises(MembershipError, match=_NOT_PREDICTED):
                    defect(rho, sigma)
            if k < 4:
                seen["sigma over another context"] += 1
                with pytest.raises(MembershipError, match=_NOT_PREDICTED):
                    defect(rho, _glue_checked(elsewhere, on))
    assert members == sum(map(len, factors))
    assert min(seen[kind] for kind in (
        "w1 not restricted", "a not regular", "a regular outside Adm(eta)",
        "sigma over another context")) >= 1, seen


def _refusal(rho, j, sigma):
    """Why row j of sigma, off W?, is refused, by the group law: x =
    w̃(rhobar)_j^{-1}(omega_j), w2 = v^{-1}·t_{-x}, which has w2^{-1}(0) = x,
    for the v in W that makes it dominant (`dominant_witness`), w1 =
    w_h^{-1}·w1_j and a = w2^{-1}·w0·w1.  "w1 not restricted" and "a regular
    outside Adm(eta)" fail one condition of `defect` each; an irregular a
    comes with a w1 that is not restricted, as `defect`'s docstring proves."""
    from awbm.affine_weyl import (adm_member, dominant_witness, evaluate,
                                  finite, is_dominant, is_regular,
                                  perm_inverse, w_h)
    n = rho.n
    eta = tuple(range(n - 1, -1, -1))
    t = translation(tuple(-c for c in evaluate(invert(rho.w_tilde()[j]),
                                                sigma.omega[j])))
    w2 = multiply(finite(perm_inverse(dominant_witness(t))), t)
    assert is_dominant(w2)
    w1 = multiply(invert(w_h(n)), sigma.w1[j])
    a = multiply(invert(w2), multiply(w0(n), w1))
    if not is_regular(a):
        assert not is_restricted(w1), sigma
        return "a not regular"
    if not is_restricted(w1):
        return ("w1 not restricted" if adm_member(a, eta)
                else "w1 not restricted, a outside Adm(eta)")
    assert not adm_member(a, eta), sigma
    return "a regular outside Adm(eta)"


def _glue_checked(ctx, rows):
    """The presentation with canonical row j rows[j], built by the validating
    constructor."""
    w1, omega = zip(*rows)
    return SerreWeightPresentation(WeylTuple(w1), omega, ctx)


def test_repeated_ap_entries_fail_the_injectivity_check(monkeypatch):
    """The label lists are checked once to be distinct as (w, x): a kernel
    that repeats one entry must stop the JH, W? and intersection paths with
    the injectivity InternalError."""
    from awbm import weight_sets as ws
    from awbm.errors import InternalError
    ctx = GroupContext(3, 1, 211)
    rho = make_type(ctx, [(2, 3, 1)], [(182, 75, 41)], kind="F")
    lam = ((0, 0, 0),)
    tau = _lam_compatible_type(rho, lam, random.Random(5))
    ap_points = ws._ap_points
    monkeypatch.setattr(ws, "_ap_points", lambda lam: (
        lambda out: out + out[:1])(ap_points(lam)))
    caches = (ws._w_question_groups, ws._accepted_labels)
    try:
        for cache in caches:
            cache.cache_clear()
        for what, call in [
                ("JH", lambda: ws.jh_factors(tau, lam, force=True)),
                ("W?", lambda: ws.w_question_factors(rho)),
                ("W?", lambda: ws.intersection_factors(rho, tau, lam, force=True))]:
            with pytest.raises(InternalError, match=(
                    f"^{re.escape(what)} parametrization failed to be injective$")):
                call()
    finally:
        for cache in caches:
            cache.cache_clear()


@pytest.mark.parametrize("job", [
    ("wq", 4, (3, 4, 1, 2, 1, 3, 2, 4), 211,
     ((274, 264, 186, 149), (275, 204, 174, 98))),
    ("wq", 3, (2, 1, 3, 3, 2, 1, 2, 1, 3), 307,
     ((197, 144, 136), (427, 155, 141), (169, 76, 18))),
    ("jh", 4, (4, 1, 2, 3), 211, ((200, 176, 126, 99),)),
    ("bm", 3, (2, 3, 1, 1, 2, 3), 307, ((433, 426, 212), (413, 236, 206))),
], ids=["wq-gl4-f2", "wq-gl3-f3", "jh-gl4", "bm-gl3-f2"])
def test_glued_records_equal_validated_ones(monkeypatch, job):
    """`_glue` builds its records without the constructor's checks: on the
    heaviest catalog cases each one equals the validating constructor's
    record (value, hash, sort key and JSON), and every row handed to it by
    `_rows`, `w_question_factors`, `_accepted_labels` or the product in
    `bm_cycles` is canonical."""
    import awbm.weight_sets as ws
    kind, n, s, p, mu = job
    f = len(mu)
    ctx = GroupContext(n, f, p)
    perms = [s[j * n:(j + 1) * n] for j in range(f)]
    glued = []
    glue = ws._glue

    def recording(rows, over):
        glued.append((rows, glue(rows, over)))
        return glued[-1][1]

    monkeypatch.setattr(ws, "_glue", recording)
    for cache in (ws._w_question_cached, ws._accepted_labels):
        cache.cache_clear()
    if kind == "jh":
        jh_set(make_type(ctx, perms, mu), ((1, 1, 0, 0),))
    else:
        rho = make_type(ctx, perms, mu, kind="F")
        w_question(rho) if kind == "wq" else bm_cycles(rho)
    assert glued
    for rows, rec in glued:
        assert all(max(w1.nu) == 0 for w1, _ in rows)
        ref = SerreWeightPresentation(rec.w1, rec.omega, rec.ctx)
        assert rec == ref and hash(rec) == hash(ref)
        assert rec.sort_key() == ref.sort_key() and rec.to_json() == ref.to_json()
