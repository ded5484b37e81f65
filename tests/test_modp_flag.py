"""Charts, cells, the monodromy condition, and component fixed points."""

import contextlib
import hashlib
import io
import itertools
import json
import random

import pytest

from awbm import cli
from awbm.affine_weyl import (
    GroupContext,
    WeylElement,
    WeylTuple,
    adm,
    finite,
    identity,
    invert,
    multiply,
    perm_act,
    perm_inverse,
    star,
    translation,
    w_h,
)
from awbm.bk_gauge import Coefficients, SeriesMatrix
from awbm.errors import (ArgumentError, GenericityError, InternalError,
                         ZeroDivisorError)
from awbm.inertial_types import make_type
from awbm.modp_flag import (
    LaurentMatrix,
    _height_levels,
    cell_geometry,
    chart_template,
    component_data,
    monodromy_solve,
    nabla_matrix,
    required_genericity,
    special_fiber_components,
    verify_nabla,
    weyl_matrix,
)
from conftest import generic_modp_vector, glued


# ---------------------------------------------------------------------------
# Laurent arithmetic

F13 = Coefficients(13)


def test_laurent_poly_ring_ops():
    # 1 x 1 exact matrices are Laurent polynomials
    p = 13
    a = LaurentMatrix.from_entries(F13, 1, {(1, 1, -1): 3, (1, 1, 2): 5})
    b = LaurentMatrix.from_entries(F13, 1, {(1, 1, 0): 1, (1, 1, 1): 12})
    assert (a + b).entry(1, 1) == {-1: 3, 0: 1, 1: 12, 2: 5}
    assert (a * b).entry(1, 1) == {-1: 3, 0: 10, 2: 5, 3: 8}
    assert a.v_ddv().entry(1, 1) == {-1: -3 % p, 2: 10}
    assert a.shift(2).entry(1, 1) == {1: 3, 4: 5}
    assert (a * b).prec is None and isinstance(a * b, LaurentMatrix)


def test_matrix_inverse_monomial_det():
    m = LaurentMatrix.from_entries(
        F13, 2, {(1, 1, 2): 3, (2, 2, 0): 1, (1, 2, 0): 4, (1, 2, 1): 7})
    inv = m.inverse()
    prod = m * inv
    assert prod.entry(1, 1) == {0: 1}
    assert prod.entry(1, 2) == {}
    assert prod == LaurentMatrix.identity(F13, 2)
    bad = LaurentMatrix.from_entries(
        F13, 2, {(1, 1, 0): 1, (1, 1, 1): 1, (2, 2, 0): 1})
    with pytest.raises(ArgumentError):
        bad.inverse()


def test_json_round_trip():
    m = LaurentMatrix.from_entries(
        F13, 2, {(1, 1, 0): 1, (2, 2, 0): 1, (2, 1, -2): 5, (2, 1, 3): 1})
    doc = m.to_json()
    assert set(doc) == {"p", "entries"}
    assert doc["entries"][1][0] == {"-2": 5, "3": 1}
    assert LaurentMatrix.from_json(doc) == m


# ---------------------------------------------------------------------------
# charts

APPENDIX_Z = WeylElement((1, 3, 2), (2, 1, 1))  # (23) t_(2,1,1) in the dual group


def test_chart_matches_printed_matrix():
    T = chart_template(APPENDIX_Z, 0)
    assert not T.is_empty
    assert T.w == (1, 3, 2) and T.nu == (2, 1, 1)
    assert T.det_sign == -1 and T.det_power == 4
    assert T.prefactor == ((0, 0, 0), (1, 0, 0), (1, 1, 0))
    assert T.window_hi == ((2, 0, 0), (1, 0, 1), (1, 0, 1))
    assert all(lo == -0 for row in T.window_lo for lo in row)
    assert set(T.monic) == {(1, 1, 2), (3, 2, 0), (2, 3, 1)}


def test_chart_translation_case():
    T = chart_template(translation((2, 1, 0)), 0)
    assert list(T.monic) == [(1, 1, 2), (2, 2, 1), (3, 3, 0)]
    for i in range(3):
        for j in range(3):
            if i > j:
                assert T.prefactor[i][j] == 1


def test_chart_empty_flag():
    assert chart_template(translation((0, 0, -1)), 0).is_empty
    assert not chart_template(translation((0, 0, -1)), 2).is_empty


# ---------------------------------------------------------------------------
# cells

def test_cell_examples():
    g = cell_geometry(translation((1, 0)))
    assert g.support == ((2, 1),)
    assert g.degrees == (((1, 2), 0),)
    assert g.dim == 1 and g.critical == 0
    g0 = cell_geometry(WeylElement((2, 1), (1, 0)))
    assert g0.dim == 0 and g0.critical == 1
    g3 = cell_geometry(translation((2, 1, 0)))
    assert g3.dim == 3 and g3.critical == 0


def test_support_inside_witness_chamber():
    rng = random.Random(50)
    from conftest import random_element
    for n in (2, 3):
        for _ in range(60):
            a = random_element(n, rng, span=3)
            geom = cell_geometry(a)
            winv = perm_inverse(geom.witness)
            for (i, k) in geom.support:
                # -support ⊂ w(Phi+): the root (k,i) pulls back positive
                assert winv[k - 1] < winv[i - 1]
            d = n * (n - 1) // 2
            assert geom.dim == d - geom.critical


# ---------------------------------------------------------------------------
# monodromy

def test_monodromy_examples():
    A = monodromy_solve(translation((1, 0)), (5, 0), p=13)
    assert verify_nabla(A, (5, 0))
    W = weyl_matrix(star(WeylElement((2, 1), (3, 1))), 13)
    assert verify_nabla(W, (7, 2))


def test_monodromy_zero_pivot():
    with pytest.raises(ZeroDivisorError) as err:
        monodromy_solve(translation((2, 0)), (0, 1), p=13)
    assert err.value.root == (1, 2) and err.value.index == 0
    assert required_genericity(translation((2, 0))) == 2


def test_nabla_failure_case():
    A = LaurentMatrix.from_entries(
        F13, 2, {(1, 1, 1): 1, (2, 2, 0): 1, (2, 1, 0): 1})
    assert not verify_nabla(A, (5, 0))


def test_monodromy_dimension_over_admissible_set():
    rng = random.Random(51)
    for n, eta in [(2, (1, 0)), (3, (2, 1, 0))]:
        d = n * (n - 1) // 2
        for p in (11, 13):
            for wt in adm(eta):
                geom = cell_geometry(wt)
                h = required_genericity(wt)
                for _ in range(3):
                    a = generic_modp_vector(n, p, h, rng)
                    free = {alpha: rng.randrange(1, p)
                            for alpha, _ in geom.degrees}
                    A = monodromy_solve(wt, a, free, p=p)
                    assert verify_nabla(A, a)
                    assert geom.dim == d - geom.critical


def test_monodromy_linearity_in_free_values():
    # on a triangular instance, scaling all free top coefficients scales the
    # solved lower coefficients
    p = 13
    wt = translation((2, 1, 0))
    geom = cell_geometry(wt)
    rng = random.Random(52)
    a = generic_modp_vector(3, p, required_genericity(wt), rng)
    base = {alpha: 1 for alpha, _ in geom.degrees}
    scaled = {alpha: 2 for alpha, _ in geom.degrees}
    A1 = monodromy_solve(wt, a, base, p=p)
    A2 = monodromy_solve(wt, a, scaled, p=p)
    W = weyl_matrix(star(wt), p).inverse()
    N1, N2 = W * A1, W * A2
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            e1, e2 = N1.entry(i, j), N2.entry(i, j)
            assert e2 == {k: (2 * v) % p for k, v in e1.items()}


def test_translation_compatibility():
    p = 13
    s = (2, 1)
    mu = (7, 2)
    a = perm_act(perm_inverse(s), mu)
    A = monodromy_solve(translation((1, 0)), a, p=p)
    zp = multiply(finite(perm_inverse(s)),
                  translation(perm_act(perm_inverse(s), mu)))
    assert verify_nabla(A * weyl_matrix(zp, p), (0, 0))


# ---------------------------------------------------------------------------
# components

CTX = GroupContext(2, 1, 37)


def test_component_example_identity():
    cd = component_data(WeylTuple((identity(2),)), ((5, 0),), CTX)
    assert len(glued(cd.bound)) == 2 and cd.bound == cd.obvious
    # exactness is the same for every component: the writer states it
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["component", "--n", "2", "--f", "1", "--p", "37",
                        "--w1", "e", "--omega", "5,0"]) == 0
    assert json.loads(out.getvalue())["exactness"] == "conditional"


def test_component_example_wh():
    cd = component_data(WeylTuple((w_h(2),)), ((5, 0),), CTX)
    assert len(glued(cd.bound)) == 2
    assert set(glued(cd.obvious)) <= set(glued(cd.bound))


def test_component_genericity_guard():
    with pytest.raises(GenericityError):
        component_data(WeylTuple((identity(2),)), ((1, 0),), CTX)


def test_special_fiber_counts():
    tau = make_type(CTX, [(1, 2)], [(5, 0)])
    comps = list(itertools.product(
        *special_fiber_components(CTX, ((1, 0),), tau, None, force=True)))
    assert len(comps) == 2
    ctx3 = GroupContext(3, 1, 211)
    tau3 = make_type(ctx3, [(1, 2, 3)], [(50, 25, 0)])
    comps3 = list(itertools.product(
        *special_fiber_components(ctx3, ((2, 1, 0),), tau3, None)))
    assert len(comps3) == 9
    for rows in comps3:
        _, bound, obvious = zip(*rows)
        assert set(glued(obvious)) <= set(glued(bound))
    with pytest.raises(ArgumentError):
        special_fiber_components(CTX, ((1, 1),), tau, None)


def test_fixed_points_detect_predicted_weights():
    from awbm.weight_sets import w_question
    rho = make_type(CTX, [(1, 2)], [(5, 0)], kind="F")
    wstar = rho.w_tilde_star()
    predicted = {r.presentation for r in w_question(rho)}
    for rec in w_question(rho):
        cd = component_data(rec.presentation.w1, rec.presentation.omega, CTX,
                            force=True)
        if rec.obvious:
            assert wstar in glued(cd.bound)
        if wstar in glued(cd.bound):
            assert rec.presentation in predicted


def test_monodromy_constraints_are_necessary():
    # perturbing any solved (below-top) coefficient must break the condition,
    # so the solved cell is exactly the stated affine space
    rng = random.Random(53)
    p = 13
    for wt in (translation((2, 1, 0)), translation((2, 0)),
               WeylElement((1, 3, 2), (2, 1, 1))):
        n = wt.n
        geom = cell_geometry(wt)
        a = generic_modp_vector(n, p, required_genericity(wt), rng)
        A = monodromy_solve(wt, a, p=p)
        W = weyl_matrix(star(wt), p)
        N = W.inverse() * A
        for alpha, d in geom.degrees:
            if d == 0:
                continue
            i, k = alpha
            delta = 1 if i < k else 0
            bump = LaurentMatrix.from_entries(F13, n, {(k, i, delta): 1})
            assert not verify_nabla(W * (N + bump), a)


def test_fixed_points_two_embeddings():
    from awbm.weight_sets import w_question
    ctx = GroupContext(2, 2, 37)
    rho = make_type(ctx, [(1, 2), (2, 1)], [(5, 0), (9, 2)], kind="F")
    wstar = rho.w_tilde_star()
    predicted = {r.presentation for r in w_question(rho)}
    for rec in w_question(rho):
        cd = component_data(rec.presentation.w1, rec.presentation.omega, ctx,
                            force=True)
        assert set(glued(cd.obvious)) <= set(glued(cd.bound))
        if rec.obvious:
            assert wstar in glued(cd.bound)
        if wstar in glued(cd.bound):
            assert rec.presentation in predicted


def test_component_data_products_are_sorted():
    # bound and obvious are products of per-embedding lists sorted by
    # sort_key, taken without a sort of their own
    from awbm.affine_weyl import sort_key
    from awbm.weight_sets import w_question
    from conftest import random_tuple_mu, random_weyl_tuple
    rng = random.Random(27)
    for n, f in [(2, 2), (2, 3), (3, 2)]:
        ctx = GroupContext(n, f, 211)
        rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                        random_tuple_mu(n, f, 211, 2 * n, rng), kind="F")
        for rec in w_question(rho)[:4]:
            cd = component_data(rec.presentation.w1, rec.presentation.omega,
                                ctx, force=True)
            for fixed in (glued(cd.bound), glued(cd.obvious)):
                keys = [tuple(map(sort_key, t)) for t in fixed]
                assert keys == sorted(set(keys)), (n, f)


def test_component_data_reads_the_canonical_pair():
    # a label given as (t_c w1, omega - c) with c != 0 has the fixed-point
    # sets of the pair as stated: the bound set star(m)·t_omega over m below
    # w0 w1, and the obvious set star(t_omega u w1), computed here on the
    # shifted pair
    from awbm.affine_weyl import bruhat_interval, sort_key, w0
    from awbm.weight_sets import w_question
    from conftest import perms, random_tuple_mu, random_weyl_tuple
    rng = random.Random(28)
    for n, f in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        ctx = GroupContext(n, f, 211)
        rho = make_type(ctx, random_weyl_tuple(n, f, rng),
                        random_tuple_mu(n, f, 211, 2 * n, rng), kind="F")
        records = w_question(rho)
        for _ in range(6):
            label = rng.choice(records).presentation
            cs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(f)]
            w1 = WeylTuple(tuple(multiply(translation((c,) * n), a)
                                 for a, c in zip(label.w1, cs)))
            omega = tuple(tuple(x - c for x in row)
                          for row, c in zip(label.omega, cs))
            cd = component_data(w1, omega, ctx, force=True)
            assert cd.label == label
            bound = [sorted({multiply(star(m), translation(row))
                             for m in bruhat_interval(multiply(w0(n), a))},
                            key=sort_key) for a, row in zip(w1, omega)]
            obvious = [sorted({star(multiply(translation(row),
                                             multiply(finite(u), a)))
                               for u in perms(n)}, key=sort_key)
                       for a, row in zip(w1, omega)]
            assert glued(cd.bound) == glued(bound)
            assert glued(cd.obvious) == glued(obvious)


def _reference_fixed_points(label):
    """The bound and obvious sets of a label as the product over its
    embeddings, built label by label: star(m)·t_omega for m below w0·w1_j,
    and star(t_omega u w1_j) for u in W."""
    from awbm.affine_weyl import all_perms, bruhat_interval, sort_key, w0
    n = label.ctx.n
    bound, obvious = [], []
    for a, row in zip(label.w1, label.omega):
        t_om = translation(row)
        bound.append(sorted({multiply(star(m), t_om)
                             for m in bruhat_interval(multiply(w0(n), a))},
                            key=sort_key))
        obvious.append(sorted({star(multiply(t_om, multiply(finite(u), a)))
                               for u in all_perms(n)}, key=sort_key))
    return glued(bound), glued(obvious)


def test_fiber_rows_match_the_per_label_construction():
    # fiber computes each row's fixed points once and returns them as
    # factors; glued, they must be the sets built label by label.  One type
    # per case sits exactly at fiber's depth gate max(2n, h(lambda)); at
    # n = 3, f = 3 a sample of the 729 labels is checked
    from awbm.weight_sets import _glue, jh_set
    from conftest import perms, random_deep_mu
    rng = random.Random(32)
    checked = 0
    for n, f, p in [(2, 1, 37), (2, 2, 37), (2, 3, 37), (3, 1, 211),
                    (3, 2, 211), (3, 3, 211)]:
        ctx = GroupContext(n, f, p)
        lam = tuple(rng.choice([(2, 1, 0), (3, 1, 0), (4, 2, 0)] if n == 3
                               else [(1, 0), (2, 0), (5, 1)]) for _ in range(f))
        need = max(2 * n, *(max(row) - min(row) for row in lam))
        # consecutive gaps need + 1 of mu + eta: depth exactly need
        gate = tuple(need * (n - 1 - i) for i in range(n))
        mu = [gate] + [random_deep_mu(n, p, need, rng) for _ in range(f - 1)]
        tau = make_type(ctx, [rng.choice(perms(n)) for _ in range(f)], mu)
        assert tau.depth() == need
        factors = special_fiber_components(ctx, lam, tau, None)
        lam_minus = [tuple(x - e for x, e in zip(row, range(n - 1, -1, -1)))
                     for row in lam]
        combos = list(itertools.product(*factors))
        labels = [_glue([r for r, _, _ in rows], ctx) for rows in combos]
        assert labels == jh_set(tau, lam_minus)
        picks = (range(len(combos)) if len(combos) <= 40
                 else rng.sample(range(len(combos)), 40))
        for k in picks:
            _, bound, obvious = zip(*combos[k])
            reference = _reference_fixed_points(labels[k])
            cd = component_data(labels[k].w1, labels[k].omega, ctx, force=True)
            assert (glued(bound), glued(obvious)) == reference, (n, f, k)
            assert (glued(cd.bound), glued(cd.obvious)) == reference, (n, f, k)
            checked += 1
    assert checked > 100


SOLVER_CALLS = [
    # (argv, the cell, its number of height levels, the stdout sha256 of the
    # closed-form solver that formed one nabla per root)
    (["--n", "5", "--p", "211", "--w", "2,5,3,4,1@3,1,3,0,3",
      "--abar", "22,144,201,85,42"],
     WeylElement((2, 5, 3, 4, 1), (3, 1, 3, 0, 3)), 4,
     "386608bb236d923479a3f0ba44f2bc64832558aff978bf720a67a5d20a95f7dc"),
    (["--n", "6", "--p", "1009", "--w", "e@5,4,3,2,1,0",
      "--abar", "1,300,600,900,150,450"],
     translation((5, 4, 3, 2, 1, 0)), 5,
     "373a1c7f16b1220f2b045c7eec57e26c9ad9cd3f492359ee29ea6ba796ed88e5"),
    (["--n", "8", "--p", "1009", "--w", "e@7,6,5,4,3,2,1,0",
      "--abar", "1,300,600,900,150,450,750,50"],
     translation((7, 6, 5, 4, 3, 2, 1, 0)), 7,
     "dc884429e334669df9451f9d87d86305ee58c00ca05b2315b16a0dab8cc30541"),
]


@pytest.mark.parametrize("argv,wt,levels,digest", SOLVER_CALLS,
                         ids=[f"n{c[1].n}" for c in SOLVER_CALLS])
def test_solver_inverts_n_once_per_level(monkeypatch, argv, wt, levels,
                                         digest):
    # the solver forms nabla(N) once at the start and once per height level,
    # each with the kernel's inverse of N, and checks A = z·N with the last
    # one: its document is the one the closed-form N^{-1} gave
    inverse, calls = SeriesMatrix.inverse, []

    def counted(self, prec=None):
        calls.append(prec)
        return inverse(self, prec)

    monkeypatch.setattr(SeriesMatrix, "inverse", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["monodromy", *argv]) == 0
    monkeypatch.undo()
    assert len(_height_levels(cell_geometry(wt))) == levels
    assert calls == [None] * (1 + levels)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    A = LaurentMatrix.from_json(json.loads(out.getvalue()))
    assert verify_nabla(A, [int(a) for a in argv[-1].split(",")])


def _monomial_matrix(z, p):
    """v^nu · P_w for z = t_nu ∘ w, built here from its definition."""
    return SeriesMatrix.from_entries(
        Coefficients(p), z.n, {(w_j, j, z.nu[w_j - 1]): 1
                               for j, w_j in enumerate(z.w, 1)})


def test_monodromy_solve_on_random_cells():
    # A = monodromy_solve(wt, a) checked with the reference product of
    # oracles: N = z^{-1}·A is unipotent on the cell's support with the given
    # top coefficients, A·adj = det·I with det = sign(w)·v^deg(z), and
    # v·(v dA/dv + A·Diag(a))·adj/det is polynomial and upper triangular
    # mod v
    from awbm.group import perm_sign
    from awbm.oracles import series_matrix_product
    from conftest import random_element
    rng = random.Random(35)
    dims = []
    for n in range(2, 7):
        for _ in range(4):
            p = rng.choice([101, 211, 1009])
            wt = random_element(n, rng, span=2)
            geom = cell_geometry(wt)
            free = {alpha: rng.randrange(1, p) for alpha, _ in geom.degrees}
            a = generic_modp_vector(n, p, required_genericity(wt), rng)
            A = monodromy_solve(wt, a, free, p=p)
            z = star(wt)
            N, _ = series_matrix_product(_monomial_matrix(invert(z), p), A)
            # the -alpha entry has exponents [alpha>0] .. d + [alpha>0]
            window = {(k, i): (i < k, d + (i < k)) for (i, k), d in geom.degrees}
            assert sum(r == c for r, c in N) == n
            for (r, c), entry in N.items():
                if r == c:
                    assert entry == {0: 1}
                    continue
                low, top = window[(r, c)]
                assert min(entry) >= low and max(entry) == top
                assert entry[top] == free[(c, r)]
            adj, adj_det = A._adjugate()
            deg = sum(z.nu)
            det = {deg: perm_sign(z.w) % p}
            assert adj_det == det
            assert series_matrix_product(A, adj) == (
                {(i, i): det for i in range(1, n + 1)}, None)
            twisted = SeriesMatrix.from_entries(
                A.field, n, {(i, j, e): (e + a[j - 1]) * c
                             for i in range(1, n + 1) for j in range(1, n + 1)
                             for e, c in A.entry(i, j).items()})
            nabla, _ = series_matrix_product(twisted, adj)
            for (i, j), entry in nabla.items():
                assert min(entry) - deg >= (0 if i > j else -1), (wt, i, j)
            dims.append(geom.dim)
    assert max(dims) >= 10, dims


def test_monodromy_solve_checks_its_product(monkeypatch):
    # the final check catches an A that is not z·N: with a doubled Weyl
    # matrix, A·A^{-1} = 4
    import awbm.modp_flag as mf
    weyl = mf.weyl_matrix

    def doubled(z, p):
        two = LaurentMatrix.from_entries(
            Coefficients(p), z.n, {(i, i, 0): 2 for i in range(1, z.n + 1)})
        return weyl(z, p) * two

    monkeypatch.setattr(mf, "weyl_matrix", doubled)
    with pytest.raises(InternalError, match="fails the monodromy condition"):
        monodromy_solve(translation((2, 1, 0)), (5, 40, 80), p=101)


def _root_by_root(wt, a_bar, free, p):
    """The elimination one root at a time, in (height, back) order of the
    witness chamber, with nabla(N) formed afresh after every root."""
    n, field = wt.n, Coefficients(p)
    geom = cell_geometry(wt)
    winv = perm_inverse(geom.witness)

    def height_back(item):
        (i, k), _ = item
        back = (winv[i - 1], winv[k - 1])
        return abs(back[0] - back[1]), back

    terms = {(i, i, 0): 1 for i in range(1, n + 1)}
    for (i, k), d in geom.degrees:
        terms[(k, i, d + (i < k))] = free.get((i, k), 1)
    N = LaurentMatrix.from_entries(field, n, terms)
    for (i, k), d in sorted(geom.degrees, key=height_back):
        delta = int(i < k)
        band = nabla_matrix(N, a_bar).entry(k, i)
        for t in range(d):
            pivot = (t + delta + a_bar[i - 1] - a_bar[k - 1]) % p
            if pivot == 0:
                raise ZeroDivisorError((i, k), t)
            terms[(k, i, t + delta)] = (-band.get(t + delta, 0)
                                        * pow(pivot, -1, p) % p)
        N = LaurentMatrix.from_entries(field, n, terms)
    return weyl_matrix(star(wt), p) * N


def test_levels_solve_as_the_root_by_root_elimination():
    # one nabla per height level gives the A, or the first vanishing pivot,
    # of the elimination that forms nabla after every root; for about half
    # the cells a_bar makes a pivot of a random root vanish
    from conftest import random_element
    rng = random.Random(45)
    solved = vanished = deep = 0
    for n in range(2, 7):
        for _ in range(10):
            p = rng.choice([7, 11, 101, 1009])
            wt = random_element(n, rng, span=2)
            geom = cell_geometry(wt)
            free = {alpha: rng.randrange(p) for alpha, _ in geom.degrees}
            a = [rng.randrange(p) for _ in range(n)]
            roots = [(alpha, d) for alpha, d in geom.degrees if d]
            if roots and rng.random() < 0.5:
                (i, k), d = rng.choice(roots)
                a[i - 1] = (a[k - 1] - rng.randrange(d) - (i < k)) % p
            outcomes = []
            for solve in (monodromy_solve, _root_by_root):
                try:
                    outcomes.append(solve(wt, a, free, p=p))
                except ZeroDivisorError as exc:
                    outcomes.append((exc.root, exc.index))
            assert outcomes[0] == outcomes[1], (wt, a, free, p)
            vanished += isinstance(outcomes[0], tuple)
            solved += not isinstance(outcomes[0], tuple)
            deep += len(_height_levels(geom)) >= 3
    assert solved >= 20 and vanished >= 20 and deep >= 20, (solved, vanished,
                                                             deep)


def test_torus_fixed_points_decide_the_predicted_set():
    # the two sides of the description of the special fiber's components:
    # with P = star(w̃(rhobar)_j), a row sigma_j = (w1, omega) lies in the
    # W?(rhobar) factor exactly when P is in its bound set
    # {star(m)·t_omega : m <= w0·w1}, that is when star(P·t_{-omega}) <= w0·w1;
    # the candidates are the W? rows of rhobar and of types with mu moved by
    # at most 2.  For w̃(rhobar, tau) in Adm(lam + eta), the intersection's
    # rows are the JH rows whose bound set holds P
    from awbm.affine_weyl import bruhat_leq, eta_vector, w0
    from awbm.modp_flag import _fixed_points
    from awbm.weight_sets import (_aux_type_from_element, intersection_factors,
                                  w_question_factors)
    from conftest import perms, random_deep_mu
    rng = random.Random(16)
    answers, cache = set(), {}
    for n, f, p in [(2, 1, 37), (2, 2, 37), (3, 1, 211), (3, 2, 211),
                    (4, 1, 211), (4, 2, 211)]:
        ctx, eta = GroupContext(n, f, p), eta_vector(n)
        s = [rng.choice(perms(n)) for _ in range(f)]
        mu = [random_deep_mu(n, p, 2 * n + 2, rng) for _ in range(f)]
        rho = make_type(ctx, s, mu, "F")
        P = [star(g) for g in rho.w_tilde()]
        members = [{row for row, *_ in rows} for rows in w_question_factors(rho)]
        candidates = [set(rows) for rows in members]
        for _ in range(4 if n < 4 else 2):
            near = [tuple(c + rng.randint(-2, 2) for c in row) for row in mu]
            for j, rows in enumerate(w_question_factors(
                    make_type(ctx, s, near, "F"), force=True)):
                candidates[j] |= {row for row, *_ in rows}
        for j in range(f):
            rows = sorted(candidates[j], key=repr)
            for w1, omega in rows if n < 4 else rng.sample(rows, 60):
                bound = _fixed_points((w1, omega), cache)[0]
                by_leq = bruhat_leq(
                    star(multiply(P[j], translation(tuple(-c for c in omega)))),
                    multiply(w0(n), w1))
                assert ((w1, omega) in members[j]) == (P[j] in bound) == by_leq
                answers.add(by_leq)
        for _ in range(3 if n < 4 else 2):
            lam = [tuple(sorted((rng.randrange(2) if n < 4 else 0
                                 for _ in range(n)), reverse=True))
                   for _ in range(f)]
            lpe = [tuple(l + e for l, e in zip(row, eta)) for row in lam]
            tau = _aux_type_from_element(ctx, WeylTuple(tuple(
                multiply(g, invert(rng.choice(adm(row))))
                for g, row in zip(rho.w_tilde(), lpe))))
            got = intersection_factors(rho, tau, lam, force=True)
            jh = special_fiber_components(ctx, lpe, tau, None, force=True)
            assert got == [tuple(row for row, bound, _ in rows if P[j] in bound)
                           for j, rows in enumerate(jh)]
    assert answers == {True, False}
