"""The series-matrix product against its naive reference.

`SeriesMatrix.__mul__` runs either the term loop or the packed (Kronecker
substitution) product, chosen from the operands; every case here is checked
against `oracles.series_matrix_product`, which shares no code with either.
The cases are seeded and fixed in number.  They mix dense, sparse and
monomial operands for n = 1-4 over F_p and F_{p^2}, exact and truncated ones
(precision down to and below lo), lo below the lowest stored term and
negative lo, and primes whose products fit a 64-bit slot and primes whose
products do not.
"""

import random

import pytest

from awbm import bk_gauge
from awbm.bk_gauge import Coefficients, SeriesMatrix
from awbm.oracles import series_matrix_product

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

    packed_product = bk_gauge._packed_product
    monkeypatch.setattr(bk_gauge, "_packed_product", counted)
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
