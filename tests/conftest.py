"""Shared generators for randomized tests.

Everything is driven by seeded random.Random instances so failures are
reproducible; the helpers build generic weights, random group elements, and
random series matrices of bounded height.
"""

import itertools

import pytest

from awbm.affine_weyl import WeylElement, WeylTuple, finite
from awbm.bk_gauge import Coefficients, SeriesMatrix
from awbm.weights import weight_depth_base


def perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def glued(factors):
    """The WeylTuples of the product of per-embedding factors, in the order
    of itertools.product: the fixed-point sets of a component."""
    return tuple(map(WeylTuple, itertools.product(*factors)))


def random_element(n, rng, span=3):
    return WeylElement(rng.choice(perms(n)),
                       tuple(rng.randrange(-span, span + 1) for _ in range(n)))


def random_deep_mu(n, p, depth, rng, tries=5000):
    """A weight mu with mu depth-deep in the base alcove (gaps and their sums
    all inside (depth, p - depth)); None when no such weight exists."""
    for _ in range(tries):
        gaps = [rng.randrange(depth + 1, max(depth + 2, p - depth))
                for _ in range(n - 1)]
        tail = [0] * n
        for i in range(n - 2, -1, -1):
            tail[i] = tail[i + 1] + gaps[i]
        shift = rng.randrange(0, p)
        mu = tuple(t + shift - e for t, e in zip(tail, range(n - 1, -1, -1)))
        if weight_depth_base(mu, p) >= depth:
            return mu
    return None


def random_deep_mu_any(n, p, depth, rng):
    """A weight that is depth-deep in some alcove (not necessarily the base):
    take a base-alcove one when available."""
    mu = random_deep_mu(n, p, depth, rng)
    if mu is None:
        pytest.skip(f"no {depth}-deep weight exists for n={n}, p={p}")
    return mu


def random_tuple_mu(n, f, p, depth, rng):
    rows = []
    for _ in range(f):
        mu = random_deep_mu(n, p, depth, rng)
        if mu is None:
            pytest.skip(f"no {depth}-deep weight exists for n={n}, p={p}")
        rows.append(mu)
    return tuple(rows)


def random_weyl_tuple(n, f, rng):
    return WeylTuple(tuple(finite(rng.choice(perms(n))) for _ in range(f)))


# ---------------------------------------------------------------------------
# series matrices

def _iwahori_entries(field, n, rng, length):
    ent = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for e in range(length):
                if i > j and e == 0:
                    continue
                c = field.rand_scalar(rng)
                if c:
                    ent[(i, j, e)] = c
        ent[(i, i, 0)] = field.rand_scalar(rng, nonzero=True)
    return ent


def random_iwahori(field, n, rng, length=6):
    return SeriesMatrix.from_entries(
        field, n, _iwahori_entries(field, n, rng, length), None)


def random_iw1(field, n, rng, length=5):
    ent = _iwahori_entries(field, n, rng, length)
    ent.update({(i, i, 0): 1 for i in range(1, n + 1)})
    return SeriesMatrix.from_entries(field, n, ent, None)


def random_bounded_height(field, n, rng, h, length=4):
    lam = tuple(sorted((rng.randrange(h + 1) for _ in range(n)), reverse=True))
    mid = SeriesMatrix.from_entries(
        field, n, {(i, i, lam[i - 1]): 1 for i in range(1, n + 1)})
    return random_iwahori(field, n, rng, length) * mid * \
        random_iwahori(field, n, rng, length)


def generic_modp_vector(n, p, bound, rng):
    while True:
        a = tuple(rng.randrange(p) for _ in range(n))
        ok = all((a[i] - a[j]) % p > bound and (a[j] - a[i]) % p > bound
                 for i in range(n) for j in range(i + 1, n))
        if ok:
            return a
