"""Series-matrix calculus: twists, basis changes, straightening, shapes."""

import random

import pytest

from awbm.affine_weyl import (
    GroupContext,
    WeylElement,
    WeylTuple,
    finite,
    identity,
    translation,
)
from awbm.errors import (
    ArgumentError,
    ContextError,
    GenericityError,
    IntegralityError,
    InternalError,
    PreconditionError,
)
from awbm.bk_gauge import (
    Coefficients,
    SeriesMatrix,
    TwistData,
    change_of_basis,
    frobenius_twist,
    recover_left_factor,
    shape_semisimple,
    straighten,
)
from awbm.inertial_types import make_type
from awbm.oracles import series_matrix_product
from conftest import (
    perms,
    random_bounded_height,
    random_deep_mu,
    random_iw1,
    random_iwahori,
)

F5 = Coefficients(5)
F7 = Coefficients(7)
F49 = Coefficients(7, 2)

# a twist of depth 1 at p = 5 and one of depth 2 at p = 7
CTX5 = GroupContext(2, 1, 5)
TW5 = TwistData(WeylTuple((finite((2, 1)),)), ((1, 0),), CTX5)
CTX7 = GroupContext(2, 1, 7)
TW7 = TwistData(WeylTuple((finite((2, 1)),)), ((2, 0),), CTX7)


def test_field_arithmetic():
    assert F49.r is not None
    rng = random.Random(60)
    for field in (F7, F49):
        for _ in range(30):
            c = field.rand_scalar(rng, nonzero=True)
            assert c * field.inv_scalar(c) % field.p == 1


def test_mixed_operands_are_refused():
    a = SeriesMatrix.identity(F7, 2)
    for other in (SeriesMatrix.identity(Coefficients(11), 2),
                  SeriesMatrix.identity(F49, 2),
                  SeriesMatrix.identity(F7, 3)):
        for op in (lambda x, y: x + y, lambda x, y: x - y,
                   lambda x, y: x * y):
            with pytest.raises(ContextError):
                op(a, other)
            with pytest.raises(ContextError):
                op(other, a)
    assert a * a == a and (a - a) + a == a


def test_sum_stores_no_term_it_does_not_know():
    # the sum is known below -29 only, although its lo is 0
    unknown = SeriesMatrix.from_entries(F7, 2, {}, -29)
    assert unknown.lo == 0
    for total in (SeriesMatrix.identity(F7, 2) + unknown,
                  unknown - SeriesMatrix.identity(F7, 2)):
        assert (total.lo, total.prec) == (0, -29)
        assert not any(total.coeffs)


def test_read_matrix_stores_no_term_at_or_above_its_precision():
    # v^5 is past the precision 2: it is dropped on reading, so Frobenius
    # cannot carry it to v^35 at precision 8; it still counts toward lo
    m = SeriesMatrix.from_json({"p": 7, "precision": 2, "entries": [
        [{"0": 1, "5": 3}, {}], [{}, {"0": 1}]]})
    assert m == SeriesMatrix.identity(F7, 2, 2)
    assert m.coeffs == ({0: {0: 1}}, {1: {0: 1}}) and m.lo == 0
    f = m.frobenius()
    assert f.prec == 8 and f.coeffs == m.coeffs
    # a term at the precision is dropped too; one below it stays, and lo is
    # the lowest exponent given, dropped or not
    m = SeriesMatrix.from_entries(F7, 1, {(1, 1, 2): 1, (1, 1, 3): 4}, 3)
    assert (m.lo, m.coeffs) == (2, ({0: {2: 1}},))
    m = SeriesMatrix.from_entries(F7, 1, {(1, 1, 2): 1, (1, 1, -1): 4}, -1)
    assert (m.lo, m.coeffs) == (-1, ({},))


def test_series_inverse():
    rng = random.Random(61)
    for field in (F7, F49):
        for n in (2, 3):
            A = random_iwahori(field, n, rng)
            I = SeriesMatrix.identity(field, n)
            assert (A * A.inverse(40)).equal_mod(I, 40)
            assert (A.inverse(40) * A).equal_mod(I, 40)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("h", [1, 2])
@pytest.mark.parametrize("p", [101, 211])
def test_series_inverse_bounded_height(n, h, p):
    rng = random.Random(1000 * n + 10 * h + p)
    field = Coefficients(p)
    I = SeriesMatrix.identity(field, n)
    for _ in range(4):
        A = random_bounded_height(field, n, rng, h).truncate(80)
        Ainv = A.inverse(40)
        assert (A * Ainv).equal_mod(I, 40)
        assert (Ainv * A).equal_mod(I, 40)


# 2 ** 81 - 51 is a prime past 2^64 whose slots are wider than 64 bits, and
# below primes.PRIME_BOUND, where the prime test is exact
@pytest.mark.parametrize("p", [2147483647, 3037000453, 4294967291,
                               2 ** 64 - 59, 2 ** 81 - 51])
@pytest.mark.parametrize("degree", [1, 2])
def test_product_beyond_int64(p, degree):
    rng = random.Random(p + degree)
    field = Coefficients(p, degree)
    for _ in range(3):
        A, B = (SeriesMatrix.from_entries(
            field, 2, {(i, j, e): field.rand_scalar(rng)
                       for i in (1, 2) for j in (1, 2) for e in range(-1, 5)})
            for _ in range(2))
        prod = A * B
        want, prec = series_matrix_product(A, B)
        assert prec is None
        assert all(prod.entry(i, j) == want.get((i, j), {})
                   for i in (1, 2) for j in (1, 2))
        I = SeriesMatrix.identity(field, 2)
        Ainv = random_iwahori(field, 2, rng).truncate(30)
        assert (Ainv * Ainv.inverse(20)).equal_mod(I, 20)


@pytest.mark.parametrize("p", [3317044064679887385961981, 2 ** 127 - 1])
def test_modulus_past_the_prime_bound_is_refused(p):
    # the least strong pseudoprime to the prime test's 13 bases, and a prime
    # past it that the test cannot prove
    for degree in (1, 2):
        with pytest.raises(ArgumentError, match="not below PRIME_BOUND"):
            Coefficients(p, degree)


def test_frobenius_truncated_matches_full():
    rng = random.Random(72)
    for field in (F7, F49):
        Y = random_bounded_height(field, 2, rng, 1).truncate(30)
        # v -> v^p, and over F_{p^2} a + b·w -> a - b·w
        full = Y.frobenius()
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            assert full.entry(i, j) == {
                field.p * e: c if field.degree == 1 else [c[0], -c[1] % field.p]
                for e, c in Y.entry(i, j).items()}
        for prec in (-3, 0, 1, 50, 200, 10 ** 6):
            full, cut = Y.frobenius().truncate(prec), Y.frobenius(prec)
            # the same stored terms (support and coefficients) and lo
            assert cut == full and cut.lo == full.lo
        for M in (0, 1, 2, 3, 5, 40):
            twisted = frobenius_twist(Y, 0, TW7, M)
            assert twisted == frobenius_twist(Y, 0, TW7).truncate(M)
            assert twisted.equal_mod(frobenius_twist(Y, 0, TW7), M)


@pytest.mark.parametrize("prec", [10 ** 9 - 1, 10 ** 9, 10 ** 12])
def test_large_precision_stays_finite(prec):
    a = SeriesMatrix.from_entries(F7, 2, {(1, 1, 0): 1, (2, 2, 0): 1}, prec)
    exact = SeriesMatrix.identity(F7, 2)
    assert (a + a).prec == (a * a).prec == (exact * a).prec == prec
    assert a.truncate(prec + 5).prec == exact.truncate(prec).prec == prec
    assert (exact + exact).prec is None and (exact * exact).prec is None


def test_json_round_trip():
    rng = random.Random(62)
    for field in (F7, F49):
        m = random_bounded_height(field, 2, rng, 1).truncate(25)
        again = SeriesMatrix.from_json(m.to_json())
        assert again.equal_mod(m, 25)


def test_twist_identity_and_depth():
    assert TW5.depth() == 1 and TW7.depth() == 2
    Z = frobenius_twist(SeriesMatrix.identity(F5, 2), 0, TW5)
    assert Z.equal_mod(SeriesMatrix.identity(F5, 2), 30)


def test_twist_contraction_claims():
    rng = random.Random(63)
    m = TW5.depth()
    p = 5
    one = SeriesMatrix.identity(F5, 2)
    for _ in range(10):
        # unipotent-Iwahori inputs contract to 1 mod v^{m+1}
        Y = random_iw1(F5, 2, rng)
        Z = frobenius_twist(Y.truncate(40), 0, TW5)
        assert (Z - one).is_zero_mod(m + 1)
    for k in (1, 2, 3):
        # inputs congruent to 1 mod v^k land at 1 mod v^{(k-1)p + m + 1}
        ent = {(1, 1, 0): 1, (2, 2, 0): 1, (1, 2, k): 3, (2, 1, k): 2,
               (1, 1, k): 4}
        Yk = SeriesMatrix.from_entries(F5, 2, ent, None)
        Zk = frobenius_twist(Yk.truncate(60), 0, TW5)
        assert (Zk - one).is_zero_mod((k - 1) * p + m + 1)
    # nilpotent-mod-v inputs land inside v^{m+1} of the integral matrices
    Yu = SeriesMatrix.from_entries(
        F5, 2, {(1, 1, 1): 2, (2, 2, 1): 3, (1, 2, 0): 1, (2, 1, 1): 4}, None)
    Zu = frobenius_twist(Yu.truncate(40), 0, TW5)
    assert Zu.is_zero_mod(m + 1)
    for k in (1, 2):
        # v^k Mat lands in v^{(k-1)p + m + 1} Mat
        Yd = SeriesMatrix.from_entries(
            F5, 2, {(i, j, k): 1 + i + j for i in (1, 2) for j in (1, 2)}, None)
        Zd = frobenius_twist(Yd.truncate(60), 0, TW5)
        assert Zd.is_zero_mod((k - 1) * p + m + 1)


def test_twist_integrality_error():
    # a pole: strictly lower constant entry cannot survive a shallow twist
    bad = SeriesMatrix.from_entries(
        F5, 2, {(1, 1, 0): 1, (2, 2, 0): 1, (2, 1, 0): 1}, None)
    with pytest.raises(IntegralityError):
        frobenius_twist(bad.truncate(40), 0, TW5)


def test_change_of_basis_identity_and_cocycle():
    rng = random.Random(64)
    ctx = GroupContext(2, 2, 5)
    tw = TwistData(WeylTuple((finite((2, 1)), finite((1, 2)))),
                   ((1, 0), (2, 1)), ctx)
    A = [random_bounded_height(F5, 2, rng, 1).truncate(60) for _ in range(2)]
    ident = [SeriesMatrix.identity(F5, 2) for _ in range(2)]
    out = change_of_basis(A, ident, tw, 40)
    assert all(out[j].equal_mod(A[j].truncate(40), 40) for j in range(2))
    I1 = [random_iwahori(F5, 2, rng).truncate(60) for _ in range(2)]
    J1 = [random_iwahori(F5, 2, rng).truncate(60) for _ in range(2)]
    IJ = [(J1[j] * I1[j]).truncate(60) for j in range(2)]
    two_steps = change_of_basis(change_of_basis(A, I1, tw, 40), J1, tw, 40)
    at_once = change_of_basis(A, IJ, tw, 40)
    assert all(two_steps[j].equal_mod(at_once[j], 40) for j in range(2))
    # at precisions down to 1 the basis change is the precision-40 one,
    # truncated afterwards, and still a cocycle
    full = change_of_basis(A, I1, tw, 40)
    for M in (1, 2, 3):
        once = change_of_basis(A, I1, tw, M)
        assert all(once[j].equal_mod(full[j], M) for j in range(2))
        two = change_of_basis(once, J1, tw, M)
        at_once = change_of_basis(A, IJ, tw, M)
        assert all(two[j].equal_mod(at_once[j], M) for j in range(2))


def test_change_of_basis_constant_diagonal():
    # constant diagonals are Frobenius-fixed over F_p, so the twist reduces
    # to the permuted conjugation
    D = SeriesMatrix.from_entries(F7, 2, {(1, 1, 0): 3, (2, 2, 0): 4}, None)
    A = [SeriesMatrix.from_entries(
        F7, 2, {(1, 1, 0): 1, (2, 2, 1): 1, (1, 2, 0): 2}, None).truncate(50)]
    out = change_of_basis(A, [D], TW7, 40)
    s = TW7.perm(0)
    Dperm_inv = SeriesMatrix.from_entries(
        F7, 2, {(s[0], s[0], 0): pow(3, -1, 7), (s[1], s[1], 0): pow(4, -1, 7)},
        None)
    expected = (D * A[0] * Dperm_inv).truncate(40)
    assert out[0].equal_mod(expected, 40)


STRAIGHT_CONFIGS = [
    (2, 1, 5, 0, (1, 0)),
    (2, 2, 5, 0, (1, 0)),
    (2, 1, 7, 1, (2, 0)),
    (2, 2, 7, 1, (2, 0)),
    (3, 1, 7, 0, (2, 1, 0)),
    (3, 2, 7, 0, (2, 1, 0)),
    (3, 1, 101, 1, (50, 25, 0)),
    (3, 1, 101, 2, (50, 25, 0)),
    (3, 1, 211, 1, (50, 25, 0)),
    (3, 1, 211, 2, (50, 25, 0)),
    (4, 1, 101, 1, (75, 50, 25, 0)),
    (4, 1, 101, 2, (75, 50, 25, 0)),
    (4, 1, 211, 1, (75, 50, 25, 0)),
    (4, 1, 211, 2, (75, 50, 25, 0)),
    (4, 2, 211, 2, (150, 100, 50, 0)),
    (5, 1, 211, 1, (160, 120, 80, 40, 0)),
    (5, 1, 1009, 2, (800, 600, 400, 200, 0)),
]


@pytest.mark.parametrize("n,f_emb,p,h,mu0", STRAIGHT_CONFIGS)
def test_straighten_round_trip(n, f_emb, p, h, mu0):
    rng = random.Random(65 + n + p + f_emb)
    field = Coefficients(p)
    ctx = GroupContext(n, f_emb, p)
    for _ in range(3):
        s = WeylTuple(tuple(finite(rng.choice(perms(n))) for _ in range(f_emb)))
        tw = TwistData(s, (mu0,) * f_emb, ctx)
        assert tw.depth() >= h + 1
        z = tw.dual_element()
        A = [random_bounded_height(field, n, rng, h).truncate(80)
             for _ in range(f_emb)]
        X = [random_iw1(field, n, rng).truncate(80) for _ in range(f_emb)]
        I = straighten(A, X, z, 40, h=h)
        for m in I:
            assert m.is_iw1()
        back = recover_left_factor(A, I, z, 40)
        for j in range(f_emb):
            assert back[j].equal_mod(X[j].truncate(40), 40)
        # at precisions down to 1, where A^{-1}'s pole of order h leaves X
        # known mod v^(M-h)
        for M in range(max(1, h), 8):
            I = straighten(A, X, z, M, h=h)
            assert all(m.is_iw1() for m in I)
            back = recover_left_factor(A, I, z, M)
            for j in range(f_emb):
                assert back[j].equal_mod(X[j], M - h), (M, j)


@pytest.mark.parametrize("n,p,h,M,mu", [
    (2, 101, 41, 60, (49, 0)),
    (3, 211, 57, 70, (138, 69, 0)),
    (2, 1009, 45, 60, (500, 0)),
])
def test_round_trip_past_small_heights(n, p, h, M, mu):
    # exact A = Iw · diag(v^h, 1, ...) · Iw, whose inverse has a pole of
    # order h > 16n + 8: recover_left_factor reads h off A^{-1} and gives
    # X back mod v^(M-h), as the benchmark's round trip asks
    rng = random.Random(72 + n + h)
    field = Coefficients(p)
    mid = SeriesMatrix.from_entries(
        field, n, {(i, i, h if i == 1 else 0): 1 for i in range(1, n + 1)})
    A = [random_iwahori(field, n, rng) * mid * random_iwahori(field, n, rng)]
    X = [random_iw1(field, n, rng)]
    s = WeylTuple((finite(tuple(range(n, 0, -1))),))
    z = TwistData(s, (mu,), GroupContext(n, 1, p)).dual_element()
    I = straighten(A, X, z, M)
    back = recover_left_factor(A, I, z, M - h)
    assert back[0].equal_mod(X[0], M - h)
    assert back[0].prec == M - h


def test_straighten_identity_fixed_point():
    rng = random.Random(66)
    z = TW7.dual_element()
    A = [random_bounded_height(F7, 2, rng, 1).truncate(80)]
    I = straighten(A, [SeriesMatrix.identity(F7, 2)], z, 40, h=1)
    assert I[0].equal_mod(SeriesMatrix.identity(F7, 2), 40)


def test_straighten_uniqueness_different_seed():
    rng = random.Random(67)
    z = TW7.dual_element()
    A = [random_bounded_height(F7, 2, rng, 1).truncate(80)]
    X = [random_iw1(F7, 2, rng).truncate(80)]
    main = straighten(A, X, z, 20, h=1)
    J = random_iw1(F7, 2, rng).truncate(60)
    Ainv = A[0].inverse(60)
    for _ in range(20):
        J = (X[0] * A[0] * frobenius_twist(J, 0, TW7).truncate(60)
             * Ainv).truncate(60)
    assert J.equal_mod(main[0], 20)


def _straighten_from_identity(A, X, z, M, h):
    """I mod v^M by the straightening iteration begun at the identity, whose
    first round gives X·A·A^{-1} = X, with one round more than straighten's
    cap."""
    field, n, f = A[0].field, A[0].n, len(A)
    twist = TwistData.from_dual_element(z, GroupContext(n, f, field.p))
    work = max(M, 0) + 2 * n * h + 8
    A = [m.truncate(work) for m in A]
    XA = [x.truncate(work) * a for x, a in zip(X, A)]
    Ainv = [m.inverse(work) for m in A]
    J = [SeriesMatrix.identity(field, n)] * f
    for _ in range((M + field.p - 1) // field.p + 6):
        prev = J
        J = [(XA[j] * (frobenius_twist(prev[j - 1], j, twist, work)
                       * Ainv[j])).truncate(work) for j in range(f)]
        if all(a.equal_mod(b, M) for a, b in zip(J, prev)):
            return [m.truncate(M) for m in J]
    raise InternalError("straightening iteration failed to stabilise")


def test_straighten_from_x_as_from_the_identity():
    # the fixed point mod v^M is unique, so the iteration begun at X gives
    # the I, or the error, of the one begun at the identity
    rng = random.Random(45)
    solved = 0
    for _ in range(36):
        n, f, h = rng.randint(2, 4), rng.randint(1, 3), rng.randint(0, 2)
        mu = [None]
        while None in mu:  # p = 11 has no (h+1)-deep weight for some n, h
            p, degree = rng.choice([(11, 2), (29, 1), (101, 1), (211, 1)])
            mu = [random_deep_mu(n, p, h + 1, rng) for _ in range(f)]
        field, ctx = Coefficients(p, degree), GroupContext(n, f, p)
        s = WeylTuple(tuple(finite(rng.choice(perms(n))) for _ in range(f)))
        z = TwistData(s, tuple(mu), ctx).dual_element()
        A = [random_bounded_height(field, n, rng, h).truncate(80)
             for _ in range(f)]
        X = [random_iw1(field, n, rng).truncate(80) for _ in range(f)]
        M = rng.choice([0, 1, 5, 20, 40])
        outcomes = []
        for solve in (straighten, _straighten_from_identity):
            try:
                outcomes.append([m.truncate(M) for m in solve(A, X, z, M, h)])
            except (PreconditionError, InternalError) as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1], (n, f, h, p, M)
        solved += isinstance(outcomes[0], list)
    assert solved >= 30


def test_straighten_depth_guard():
    rng = random.Random(68)
    shallow = TwistData(WeylTuple((finite((2, 1)),)), ((3, 0),), CTX5)
    z = shallow.dual_element()
    A = [random_bounded_height(F5, 2, rng, 1).truncate(80)]
    X = [random_iw1(F5, 2, rng).truncate(80)]
    with pytest.raises(GenericityError):
        straighten(A, X, z, 40, h=1)


def test_straighten_height_guard():
    rng = random.Random(69)
    z = TW7.dual_element()
    A = [random_bounded_height(F7, 2, rng, 2).truncate(80)]
    # claim height 0 while the matrix has valuation-2 determinant somewhere
    X = [random_iw1(F7, 2, rng).truncate(80)]
    _, det = A[0]._adjugate()
    assert min(det) >= 2
    with pytest.raises(ArgumentError):
        straighten(A, X, z, 40, h=0)


# A 3 x 3 matrix whose inverse has a pole of order 10 = val det A, with a
# 11-deep twist at p = 101, and diag(1, v^3, v^3), whose inverse has a pole
# of order 3 < val det A = 6, with a 5-deep one
F101 = Coefficients(101)
POLE10 = SeriesMatrix.from_entries(
    F101, 3, {(1, 1, 5): 1, (1, 2, 0): 1, (2, 2, 5): 1, (3, 3, 0): 1})
DIAG033 = SeriesMatrix.from_entries(
    F101, 3, {(1, 1, 0): 1, (2, 2, 3): 1, (3, 3, 3): 1})
X3 = SeriesMatrix.from_entries(
    F101, 3, {(1, 1, 0): 1, (2, 2, 0): 1, (3, 3, 0): 1, (1, 3, 1): 7,
              (2, 1, 1): 3})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pole_order_is_read_off_the_adjugate(n):
    # A = Iw · diag(v^lam) · Iw: pole_order is -val A^{-1}, exact or
    # truncated anywhere past val det A.  For n >= 3, when two lam_i exceed
    # the least one, the adjugate's valuation exceeds (n-1)·lo, as for
    # diag(1, v^3, v^3)
    rng = random.Random(80 + n)
    cases = [DIAG033] * (n == 3)
    for _ in range(12):
        lam = sorted((rng.randrange(7) for _ in range(n)), reverse=True)
        mid = SeriesMatrix.from_entries(
            F101, n, {(i, i, lam[i - 1]): 1 for i in range(1, n + 1)})
        cases.append(random_iwahori(F101, n, rng) * mid
                     * random_iwahori(F101, n, rng))
    assert max(min(A._adjugate()[1]) for A in cases) >= 9
    assert n == 2 or any(
        A.pole_order() < min(A._adjugate()[1]) - (n - 1) * A.lo
        for A in cases)
    for A in cases:
        h = A.pole_order()
        assert h == -A.inverse(1).lo
        val_det = min(A._adjugate()[1])
        for P in (val_det + 1, val_det + 4, 80):
            assert A.truncate(P).pole_order() == h
        # below val det A the determinant's lowest term is not known
        with pytest.raises(ArgumentError, match="no known term|zero det"):
            A.truncate(val_det).pole_order()
    with pytest.raises(ArgumentError, match="^matrix determinant has no "
                                            "known term$"):
        POLE10.truncate(10).pole_order()
    zero = SeriesMatrix.from_entries(F101, n, {(1, 1, 0): 1})
    with pytest.raises(ArgumentError, match="zero determinant"):
        zero.pole_order()


def test_pole_order_reads_a_only_as_far_as_its_determinant_needs(monkeypatch):
    # val det A = 10: A mod v^8 does not know det A's lowest term, A mod v^16
    # does, and the 300 further terms of A are never multiplied out
    rng = random.Random(83)
    A = (POLE10 * random_iwahori(F101, 3, rng, 300)).truncate(290)
    seen = []
    adjugate = SeriesMatrix._adjugate
    monkeypatch.setattr(SeriesMatrix, "_adjugate",
                        lambda m: seen.append(m.prec) or adjugate(m))
    assert A.pole_order() == 10 and seen == [8, 16]
    # A^{-1} mod v^prec starts at A mod v^(prec + 8), doubles until det A's
    # lowest term is known and then reads A mod v^(prec + 2k) once, k = 10
    for prec, reads in ((1, [9, 18, 21]), (9, [17, 29]), (40, [48, 60])):
        seen.clear()
        inv = A.inverse(prec)
        assert seen == reads
        assert inv == A.truncate(prec + 20).inverse(prec)


def _z(w, nu):
    return WeylTuple((WeylElement(w, nu),))


# the twist of `cob --n 3 --f 1 --p 7 --s 3,2,1 --mu 4,2,0`
CTX73 = GroupContext(3, 1, 7)
TW73 = TwistData(WeylTuple((finite((3, 2, 1)),)), ((4, 2, 0),), CTX73)


def test_gauge_calls_read_the_inputs_only_as_far_as_m_needs(monkeypatch):
    # at M = 9 over F_49, inputs known mod v^1000 give what their truncations
    # at 60 give, and no adjugate or product sees a term past v^100
    rng = random.Random(84)
    mid = SeriesMatrix.from_entries(
        F49, 3, {(1, 1, 2): 1, (2, 2, 1): 1, (3, 3, 0): 1})
    A = [(mid * random_iwahori(F49, 3, rng, 1000)).truncate(1000)]
    I = [random_iw1(F49, 3, rng, 1000).truncate(1000)]
    z = TW73.dual_element()
    tops = []
    adjugate, mul = SeriesMatrix._adjugate, SeriesMatrix.__mul__
    monkeypatch.setattr(SeriesMatrix, "_adjugate",
                        lambda m: tops.append(m._top()) or adjugate(m))
    monkeypatch.setattr(SeriesMatrix, "__mul__", lambda a, b: tops.append(
        max(a._top(), b._top())) or mul(a, b))
    cob = change_of_basis(A, I, TW73, 9)
    back = recover_left_factor(A, I, z, 9)
    assert max(tops) < 100
    monkeypatch.undo()
    short = [m.truncate(60) for m in A], [m.truncate(60) for m in I]
    assert cob == change_of_basis(*short, TW73, 9)
    assert back == recover_left_factor(*short, z, 9)
    assert cob[0].prec == back[0].prec == 9


def test_change_of_basis_through_a_pole_of_the_twist_inverse():
    # I with det I of valuation 3 gives a twist whose inverse has a pole: the
    # product reads I_j A_j past v^M by that pole, and is known mod v^M
    rng = random.Random(85)
    mid = SeriesMatrix.from_entries(F7, 2, {(1, 1, 3): 1, (2, 2, 0): 1})
    I = [random_iwahori(F7, 2, rng, 30) * mid * random_iwahori(F7, 2, rng, 30)]
    A = [random_iwahori(F7, 2, rng, 30)]
    tw_inv = frobenius_twist(I[0], 0, TW7).inverse(200)
    assert tw_inv.lo < 0
    want = I[0] * A[0] * tw_inv
    cut = [m.truncate(120) for m in A], [m.truncate(120) for m in I]
    for M in (1, 5, 20):
        for a, i in ((A, I), cut):
            out = change_of_basis(a, i, TW7, M)
            assert out[0].prec == M and out[0].equal_mod(want, M)


def test_change_of_basis_and_recovery_keep_their_error_texts():
    # I = 1 known mod v^0 twists to a matrix with nothing stored
    A = [SeriesMatrix.identity(F7, 2)]
    unknown = [SeriesMatrix.identity(F7, 2).truncate(0)]
    for M in (0, 5):
        with pytest.raises(ArgumentError, match=r"^matrix is not invertible "
                                                r"\(zero determinant\)$"):
            change_of_basis(A, unknown, TW7, M)
    # A^{-1} has a pole of order 8, so I known mod v^12 recovers X mod v^4
    A = [SeriesMatrix.from_entries(
        F101, 2, {(1, 1, 4): 1, (1, 2, 0): 1, (2, 2, 4): 1})]
    X = [SeriesMatrix.from_entries(
        F101, 2, {(1, 1, 0): 1, (2, 1, 1): 3, (2, 2, 0): 1})]
    z = _z((1, 2), (40, 0))
    I = [m.truncate(12) for m in straighten(A, X, z, 12)]
    with pytest.raises(PreconditionError, match="^inputs carry too little "
                                                "precision to recover mod "
                                                r"v\^10$"):
        recover_left_factor(A, I, z, 10)
    back = recover_left_factor(A, I, z, 4)
    assert back[0].prec == 4 and back[0].equal_mod(X[0], 4)


def test_straighten_derives_least_height():
    # A = Iw · diag(v, 1) · Iw has a simple pole in A^{-1}: without h the
    # iteration takes h = 1, exact or truncated, and h = 0 is refused.  The
    # pole order is A's alone, so down to M = 1 the derived h is the least
    # one, and the answer is the one at a larger M, truncated
    rng = random.Random(71)
    z = TW7.dual_element()
    mid = SeriesMatrix.from_entries(F7, 2, {(1, 1, 1): 1, (2, 2, 0): 1})
    A = random_iwahori(F7, 2, rng) * mid * random_iwahori(F7, 2, rng)
    X = [random_iw1(F7, 2, rng).truncate(80)]
    for Aj in (A, A.truncate(80)):
        assert straighten([Aj], X, z, 30) == straighten([Aj], X, z, 30, h=1)
        with pytest.raises(ArgumentError, match="height condition fails"):
            straighten([Aj], X, z, 30, h=0)
    for A, z, h in ((POLE10, _z((1, 2, 3), (62, 31, 0)), 10),
                    (DIAG033, _z((1, 2, 3), (12, 6, 0)), 3)):
        assert A.pole_order() == h
        deep = straighten([A], [X3], z, 30)
        for M in (1, 3, 30):
            out = straighten([A], [X3], z, M)
            assert out == straighten([A], [X3], z, M, h=h)
            assert out[0].equal_mod(deep[0], M)
            assert out[0].is_iw1()


@pytest.mark.parametrize("M", [1, 3, 40])
def test_too_small_height_fails_alike_at_every_precision(M):
    z = _z((1, 2, 3), (62, 31, 0))
    for h in (0, 1, 4, 9):
        with pytest.raises(ArgumentError) as err:
            straighten([POLE10], [X3], z, M, h=h)
        assert str(err.value) == ("v^h A[0]^(-1) is not integral: height "
                                  "condition fails")


@pytest.mark.parametrize("M", [-50, -1, 0])
def test_straighten_at_nonpositive_precision_is_vacuous(M):
    # nothing is asked mod v^M for M <= 0; the working precision is floored
    # at 0, as change_of_basis floors its own
    A = SeriesMatrix.from_entries(
        F101, 2, {(1, 1, 0): 1, (1, 2, 1): 1, (2, 2, 0): 1})
    X = SeriesMatrix.from_entries(
        F101, 2, {(1, 1, 0): 1, (2, 1, 1): 3, (2, 2, 0): 1})
    out = straighten([A], [X], _z((1, 2), (30, 0)), M)
    assert out[0].is_iw1()
    cut = out[0].truncate(M)
    assert cut.prec == M and cut.coeffs == ({}, {})


def test_recovery_at_nonpositive_precision_is_vacuous():
    # A^{-1} = diag(1, v^-3, v^-3) mod v^M stores nothing for M <= -3, and
    # its lo is then only bounded by -val det A = -6: the basis change is
    # taken that much deeper, and the empty answer is known mod v^M
    z = _z((1, 2, 3), (12, 6, 0))
    I = straighten([DIAG033], [X3], z, 30)
    for M in (-50, -4, -3, -1, 0):
        back = recover_left_factor([DIAG033], I, z, M)
        assert back[0].prec == M and back[0].coeffs == ({}, {}, {})


def test_straighten_quadratic_field():
    rng = random.Random(70)
    z = TW7.dual_element()
    A = [random_bounded_height(F49, 2, rng, 1).truncate(80)]
    X = [random_iw1(F49, 2, rng).truncate(80)]
    I = straighten(A, X, z, 40, h=1)
    back = recover_left_factor(A, I, z, 40)
    assert back[0].equal_mod(X[0].truncate(40), 40)


def test_shape_examples():
    ctx = GroupContext(2, 1, 37)
    rho = make_type(ctx, [(1, 2)], [(5, 0)], kind="F")
    tau = make_type(ctx, [(1, 2)], [(4, 0)])
    res = shape_semisimple(rho, tau)
    assert res.shape[0] == translation((1, 0))
    assert res.admissible_for(((1, 0),))
    rho6 = make_type(ctx, [(1, 2)], [(6, 0)], kind="F")
    res2 = shape_semisimple(rho6, tau)
    assert res2.shape[0] == translation((2, 0))
    assert not res2.admissible_for(((1, 0),))
    # equal avatars: identity shape, admissible for every regular weight in
    # the degree-zero twist class
    res3 = shape_semisimple(rho, make_type(ctx, [(1, 2)], [(5, 0)]))
    assert res3.shape[0] == identity(2)
    assert res3.admissible_for(((1, -1),)) and res3.admissible_for(((2, -2),))
    assert not res3.admissible_for(((1, 0),))  # degree obstruction


def test_shape_dual_matches_shifted():
    rng = random.Random(71)
    ctx = GroupContext(2, 1, 211)
    from conftest import random_deep_mu
    for _ in range(15):
        mu_r = random_deep_mu(2, 211, 1, rng)
        mu_t = random_deep_mu(2, 211, 1, rng)
        rho = make_type(ctx, [rng.choice(perms(2))], [mu_r], kind="F")
        tau = make_type(ctx, [rng.choice(perms(2))], [mu_t])
        res = shape_semisimple(rho, tau)
        for lam in [(1, 0), (2, 0), (2, 1), (3, 1)]:
            lpe = (tuple(l + e for l, e in zip(lam, (1, 0))),)
            assert res.admissible_for((lam,)) == \
                (res.w_rhobar_tau[0] in set(__import__("awbm.affine_weyl",
                 fromlist=["adm"]).adm(lam)))
