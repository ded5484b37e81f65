"""The series-matrix product against its naive reference, and the adjugate
and the inverse against their defining identities.

`SeriesMatrix.__mul__` runs either the term loop or the packed (Kronecker
substitution) product, chosen from the operands; every case here is checked
against `oracles.series_matrix_product`, which shares no code with either.
The cases are seeded and fixed in number.  They mix dense, sparse and
monomial operands for n = 1-4 over F_p and F_{p^2}, exact and truncated ones
(precision down to and below lo), lo below the lowest stored term and
negative lo, and primes whose products fit a 64-bit slot and primes whose
products do not.  A shifted monomial (one term per entry, at exponents far
apart) times a dense operand must be packed, and is checked against the
term loop, on seeded cases and on the products of a catalog straightening.

The adjugate needs no reference of its own: A·adj = adj·A = det·I, with the
products taken by the reference, pins every cofactor once det is known, and
it is known by construction for U·D·L (unipotent U and L, monomial diagonal
D) and for singular matrices.  A truncated inverse is checked against the
exact inverse of an exact matrix it truncates.

`frobenius` and `truncate` are checked against their references in
`oracles`, which raise each coefficient to the p-th power by repeated
squaring where the kernel conjugates; so are `+`, `-` and `v_ddv`, with
exact and truncated operands on either side.
"""

import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

from awbm import cli, series
from awbm.bk_gauge import Coefficients, SeriesMatrix
from awbm.errors import ArgumentError
from awbm.oracles import (
    series_matrix_frobenius,
    series_matrix_product,
    series_matrix_sum,
    series_matrix_truncate,
    series_matrix_v_ddv,
)

# 1000000007 (30 bits) packs only short products into 64-bit slots; the
# larger primes never fit one
PRIMES = [2, 3, 7, 101, 10007, 65521, 1000000007, 2 ** 31 - 1, 2 ** 61 - 1]
SEEDS = range(8)
CASES_PER_SEED = 60


def operand(rng, field, n, kind):
    p = field.p
    lo = rng.randint(-6, 4)
    length = rng.randint(1, 12 if kind == "dense" else 40)
    fill = {"dense": 0.9, "sparse": rng.choice([0.02, 0.1, 0.3]),
            "monomial": 0.0}[kind]
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.25:
                continue
            exps = [e for e in range(lo, lo + length) if rng.random() < fill]
            if kind == "monomial" or not exps:
                exps = [rng.randrange(lo, lo + length)]
            for e in exps:
                # the largest coefficients give the widest slot sums
                entries[(i, j, e)] = [rng.choice([rng.randrange(p), p - 1])
                                      for _ in range(field.degree)]
    if rng.random() < 0.3:  # lo below every stored term
        entries[(1, 1, lo - rng.randint(1, 3))] = 0
    prec = rng.choice([None, None, lo + rng.randint(-3, length + 3)])
    return SeriesMatrix.from_entries(field, n, entries, prec)


def case(rng):
    p = rng.choice(PRIMES)
    field = Coefficients(p, rng.choice([1, 1, 2]) if p > 2 else 1)
    n = rng.randint(1, 4)
    kinds = rng.choice([("dense", "dense")] * 3 + [
        ("dense", "sparse"), ("sparse", "dense"), ("sparse", "sparse"),
        ("monomial", "dense"), ("monomial", "monomial")])
    return [operand(rng, field, n, kind) for kind in kinds]


@pytest.mark.parametrize("seed", SEEDS)
def test_product_matches_reference(seed, monkeypatch):
    packed = []

    def counted(a, b, prec):
        rows = packed_product(a, b, prec)
        packed.append(rows is not None)
        return rows

    packed_product = series._packed_product
    monkeypatch.setattr(series, "_packed_product", counted)
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        a, b = case(rng)
        got = a * b
        want, prec = series_matrix_product(a, b)
        assert (got.lo, got.prec) == (a.lo + b.lo, prec)
        n = a.n
        assert {(i, j): list(got.entry(i, j).items())
                for i in range(1, n + 1) for j in range(1, n + 1)
                if got.entry(i, j)} == {
            key: list(entry.items()) for key, entry in want.items()}
    # both sides of the selection rule ran
    assert packed.count(True) >= 10 and packed.count(False) >= 10


def shifted_monomial(rng, field, n, lo):
    """One term per entry, each at its own exponent: the diagonal at lo and
    the rest up to 200 above it, as straightening multiplies by."""
    entries = {(i, i, lo): rng.randrange(1, field.p) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < 0.4:
                entries[(i, j, lo + rng.randint(1, 200))] = rng.choice(
                    [rng.randrange(1, field.p), field.p - 1])
    return SeriesMatrix.from_entries(field, n, entries)


def dense_operand(rng, field, n, lo):
    length = rng.randint(20, 420)
    return SeriesMatrix.from_entries(field, n, {
        (i, j, e): rng.choice([rng.randrange(field.p), field.p - 1])
        for i in range(1, n + 1) for j in range(1, n + 1)
        for e in range(lo, lo + length) if rng.random() < 0.9})


FLAG_GAUGE = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
              / "catalog" / "flag-gauge.json")


def straightening_products(job_id, monkeypatch):
    """The operands of every product of a catalog straightening of a shifted
    monomial (one term per entry, one of them above the lowest) and a dense
    matrix (at least 10 terms per entry), on either side."""
    job = next(j for cell in json.loads(FLAG_GAUGE.read_text())["cells"]
               for unit in cell["units"] for j in unit if j["id"] == job_id)
    seen = []

    def shifted(m):
        firsts = [next(iter(s)) for s in m._series() if len(s) == 1]
        return (len(firsts) == len(list(m._series()))
                and max(firsts) > min(firsts))

    def dense(m):
        return sum(map(len, m._series())) >= 10 * len(list(m._series()))

    def recorded(a, b, prec):
        if shifted(a) and dense(b) or dense(a) and shifted(b):
            seen.append((a, b))
        return packed_product(a, b, prec)

    packed_product = series._packed_product
    with monkeypatch.context() as patch:
        patch.setattr(series, "_packed_product", recorded)
        patch.setattr(sys, "stdin", io.StringIO(job["stdin"]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(job["argv"]) == 0
    return seen


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_shifted_monomial_times_dense_packs_as_the_term_loop(seed,
                                                              monkeypatch):
    # each entry is packed from its own lowest exponent and the partial
    # products are shifted: a shifted monomial times a dense operand, on
    # either side, is packed, and gives what the term loop gives; among the
    # operands is straighten-p10007-n3/0's I + v^107·E_23 times the 3,668
    # terms of an inverse
    rng = random.Random(4000 + seed)
    pairs = []
    for _ in range(12):
        field = Coefficients(rng.choice(PRIMES[:7]))
        n = rng.randint(1, 4)
        mono = shifted_monomial(rng, field, n, rng.randint(-3, 2))
        other = dense_operand(rng, field, n, rng.randint(-3, 2))
        if rng.random() < 0.5:
            prec = mono.lo + other.lo + rng.randint(1, 600)
            mono, other = mono.truncate(prec), other.truncate(prec)
        pairs += [(mono, other), (other, mono)]
    if seed == 0:
        job = straightening_products("straighten-p10007-n3/0", monkeypatch)
        assert any(sum(map(len, a._series())) == 4
                   and sum(map(len, b._series())) == 3668 for a, b in job)
        pairs += job
    for a, b in pairs:
        prec = min(a.lo + b._eff_prec(), b.lo + a._eff_prec())
        assert series._packed_product(a, b, prec) is not None
        packed = a * b
        with monkeypatch.context() as patch:
            patch.setattr(series, "_packed_product", lambda *_: None)
            assert packed == a * b


ADJ_PRIMES = [2, 3, 7, 101, 10007]
ADJ_SEEDS = range(4)


def field_for(rng, primes):
    p = rng.choice(primes)
    return Coefficients(p, rng.choice([1, 2]) if p > 2 else 1)


def udl(rng, field, n, lo):
    """E = U·D·L and its determinant: U (L) upper (lower) unipotent with
    entries at exponents lo..lo+2, D diagonal with unit times v^d entries."""
    def unipotent(upper):
        ent = {(i, i, 0): 1 for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if (i < j if upper else i > j) and rng.random() < 0.8:
                    for e in range(lo, lo + 3):
                        ent[(i, j, e)] = field.rand_scalar(rng)
        return SeriesMatrix.from_entries(field, n, ent)

    diag = [(rng.randint(-2, 3), field.rand_scalar(rng, nonzero=True))
            for _ in range(n)]
    D = SeriesMatrix.from_entries(
        field, n, {(i, i, d): c for i, (d, c) in enumerate(diag, 1)})
    unit = field.element(1)
    for _, c in diag:
        unit = field.element(unit * c)
    return unipotent(True) * D * unipotent(False), {
        sum(d for d, _ in diag): unit}


def singular(rng, field, n, lo):
    """A matrix whose last row is v^k times its first: det = 0."""
    ent = {}
    for i in range(1, n):
        for j in range(1, n + 1):
            for e in range(lo, lo + 3):
                if rng.random() < 0.6:
                    ent[(i, j, e)] = field.rand_scalar(rng)
    k = rng.randint(-1, 2)
    ent.update({(n, j, e + k): c for (i, j, e), c in list(ent.items())
                if i == 1})
    return SeriesMatrix.from_entries(field, n, ent)


@pytest.mark.parametrize("seed", ADJ_SEEDS)
def test_adjugate_by_its_identity(seed):
    rng = random.Random(1000 + seed)
    kinds = []
    for _ in range(24):
        field = field_for(rng, ADJ_PRIMES)
        n = rng.randint(1, 6)
        lo = rng.randint(-2, 1)
        if n > 1 and rng.random() < 0.25:
            A, det = singular(rng, field, n, lo), {}
        else:
            A, det = udl(rng, field, n, lo)
        kinds.append(bool(det))
        adj, adj_det = A._adjugate()
        assert adj_det == det
        # det·I as series_matrix_product returns it
        want = {(i, i): {e: field.encode(c) for e, c in det.items()}
                for i in range(1, n + 1) if det}
        assert series_matrix_product(A, adj) == (want, None)
        assert series_matrix_product(adj, A) == (want, None)
    assert kinds.count(True) >= 10 and kinds.count(False) >= 3


def test_adjugate_work_is_n2_times_2_to_n_minus_1(monkeypatch):
    # the minors are shared: a dense 8 x 8 matrix takes at most
    # n^2·2^(n-1) = 8192 series products, against 5040·6 per cofactor for
    # the expansion over permutations
    calls = []

    def counted(acc, a, b, cut):
        calls.append(1)
        mac(acc, a, b, cut)

    mac = series._mac
    field, n = Coefficients(1009), 8
    rng = random.Random(7)
    A = SeriesMatrix.from_entries(
        field, n, {(i, j, e): rng.randrange(1, 1009) for i in range(1, n + 1)
                   for j in range(1, n + 1) for e in (-1, 0)})
    monkeypatch.setattr(series, "_mac", counted)
    A._adjugate()
    assert 0 < len(calls) <= n * n * 2 ** (n - 1)


@pytest.mark.parametrize("seed", ADJ_SEEDS)
def test_truncated_inverse_agrees_with_an_exact_extension(seed):
    # E exact with monomial determinant, A = E mod v^P: A.inverse(prec)
    # either refuses or agrees with E^{-1} below the precision it claims;
    # negative exponents are where a rule that ignores them claims too much
    rng = random.Random(2000 + seed)
    answered = refused = negative = 0
    for _ in range(40):
        field = field_for(rng, ADJ_PRIMES)
        n = rng.randint(1, 4)
        E, _ = udl(rng, field, n, rng.randint(-2, 0))
        P = rng.randint(1, 11)
        A = E.truncate(P)
        prec = rng.randint(1, 16)
        try:
            got = A.inverse(prec)
        except ArgumentError:
            refused += 1
            continue
        answered += 1
        negative += A.normalized().lo < 0
        assert got.prec <= prec
        assert got == E.inverse().truncate(got.prec)
    assert answered >= 15 and refused >= 3 and negative >= 8


def listed(m):
    """The nonzero entries of m in stored order, as the references return
    them."""
    return {(i, j): list(m.entry(i, j).items())
            for i in range(1, m.n + 1) for j in range(1, m.n + 1)
            if m.entry(i, j)}


@pytest.mark.parametrize("seed", ADJ_SEEDS)
def test_frobenius_and_truncate_match_reference(seed):
    rng = random.Random(3000 + seed)
    seen = {"conjugated": 0, "truncated": 0, "cut at lo or below": 0,
            "term at the cut": 0}
    for _ in range(40):
        field = field_for(rng, ADJ_PRIMES)
        p = field.p
        a = operand(rng, field, rng.randint(1, 4),
                    rng.choice(["dense", "sparse", "monomial"]))
        cut = a.lo + rng.randint(-3, 8)
        fcut = p * a.lo + rng.randint(-3, 8 * p)
        for got, want in ((a.truncate(cut), series_matrix_truncate(a, cut)),
                          (a.frobenius(), series_matrix_frobenius(a)),
                          (a.frobenius(fcut),
                           series_matrix_frobenius(a, fcut))):
            entries, lo, prec = want
            assert (listed(got), got.lo, got.prec) == (
                {key: list(e.items()) for key, e in entries.items()}, lo, prec)
        terms = [(e, c) for entry in listed(a).values() for e, c in entry]
        known = cut if a.prec is None else min(cut, a.prec)
        seen["conjugated"] += any(isinstance(c, list) and c[1]
                                  for _, c in terms)
        seen["truncated"] += a.prec is not None
        seen["cut at lo or below"] += known <= a.lo
        seen["term at the cut"] += any(e == known for e, _ in terms)
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("seed", ADJ_SEEDS)
def test_sum_difference_and_v_ddv_match_reference(seed):
    rng = random.Random(4000 + seed)
    seen = {"F_p^2": 0, "exact + exact": 0, "exact + truncated": 0,
            "truncated + exact": 0, "truncated + truncated": 0,
            "cancelled": 0, "cut by the other operand": 0, "e·c = 0": 0}
    for _ in range(40):
        field = field_for(rng, ADJ_PRIMES)
        n = rng.randint(1, 4)
        a = operand(rng, field, n, rng.choice(["dense", "sparse", "monomial"]))
        if rng.random() < 0.3:  # terms shared with a, to cancel in a - b
            b = a.truncate(a.lo + rng.randint(0, 12))
        else:
            b = operand(rng, field, n, rng.choice(["dense", "sparse", "monomial"]))
        for got, want in ((a + b, series_matrix_sum(a, b)),
                          (a - b, series_matrix_sum(a, b, -1)),
                          (a.v_ddv(), series_matrix_v_ddv(a))):
            entries, lo, prec = want
            assert (listed(got), got.lo, got.prec) == (
                {key: list(e.items()) for key, e in entries.items()}, lo, prec)
        ta, tb = ({(i, j, e): c for (i, j), entry in listed(m).items()
                   for e, c in entry} for m in (a, b))
        cut = min((m.prec for m in (a, b) if m.prec is not None), default=None)
        seen["F_p^2"] += field.degree == 2
        seen[" + ".join("exact" if m.prec is None else "truncated"
                        for m in (a, b))] += 1
        seen["cancelled"] += any(ta[k] == c and (cut is None or k[2] < cut)
                                 for k, c in tb.items() if k in ta)
        seen["cut by the other operand"] += cut is not None and any(
            k[2] >= cut for k in (*ta, *tb))
        seen["e·c = 0"] += any(k[2] % field.p == 0 for k in ta)
    assert min(seen.values()) >= 2, seen
