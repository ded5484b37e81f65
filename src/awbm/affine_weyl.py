"""Exact arithmetic and order theory for the extended affine Weyl group of GL_n.

An element is stored as a pair (w, nu) with w a permutation of {1..n} in
one-line notation and nu an integer vector; it acts on X*(T) ⊗ Q = Q^n by

    x  |->  w(x) + nu,

i.e. it is the product t_nu ∘ w (translation after the finite part).  All
order-theoretic questions are settled geometrically through a fixed interior
point x0 = eta/n of the base alcove, where eta = (n-1, n-2, ..., 0): for any
element g and any root alpha the pairing <g(x0), alpha∨> has denominator
exactly n, so it is never an integer and every alcove membership test is a
strict inequality.  The code works on the integer point alcove_point(g) =
n·g(x0) = w(eta) + n·nu: a floor of a pairing is the scaled pairing // n, and
a strip 0 < <y, alpha∨> < 1 is 0 < <n·y, alpha∨> < n.  Length is the number
of root hyperplanes separating x0 from g(x0).  Elements of distinct degree
deg(t_nu ∘ w) = sum(nu) lie in distinct cosets of the affine Weyl group W_a
and are incomparable; within one degree the Bruhat order is decided by
counting on the element read as an affine permutation of Z (Björner-Brenti,
Thm 8.3.7), at a cost that does not grow with the length.  A reflection t
shortens b, l(t·b) < l(b), exactly when its hyperplane H_t separates A0
from b·A0 (Humphreys, Reflection Groups and Coxeter Groups, §4.5), and such
steps generate the Bruhat order (Björner-Brenti, GTM 231, §2.1); so the
interval below a is the closure of alcove_point(a) under the reflections
across the walls between a point and x0.
Admissible sets are decided by the vertexwise test (Adm = Perm for GL_n,
Haines-Ngô).  The builder works on plain (w, nu) tuples: the test at the
vertex (1^k, 0^(n-k)) sees w only through the set w({1..k}), so each nu of
the hull tests its 2^n subsets once and its members are the chains of
passing subsets.  The regular factorization of an admissible pair is
computed on the integer point alcove_point(a).  Both build WeylElements only
for what they return.

Conventions used throughout the package:

* permutations act by (w·v)_{w(i)} = v_i, i.e. (w·v)_i = v_{w^{-1}(i)};
* (w1, nu1) · (w2, nu2) = (w1 w2, nu1 + w1(nu2));
* the star involution sends t_nu ∘ w to w^{-1} t_nu, an element of the
  group attached to the antidominant base alcove; it is realised on the
  same carrier as (w, nu) |-> (w^{-1}, w^{-1}(nu));
* the upper-arrow order is decided by simultaneous translation into the
  dominant cone, where it coincides with the Bruhat order.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

from .errors import (
    ArgumentError,
    CapacityError,
    ContextError,
    InputError,
    InternalError,
    RegularityError,
)

__all__ = [
    "GroupContext",
    "WeylElement",
    "WeylTuple",
    "identity",
    "translation",
    "finite",
    "w0",
    "w_h",
    "eta_vector",
    "alcove_point",
    "multiply",
    "invert",
    "evaluate",
    "length",
    "star",
    "degree",
    "bruhat_leq",
    "up_leq",
    "up_leq_points",
    "classify",
    "Flags",
    "smallness",
    "is_small",
    "element_depth",
    "weight_depth_base",
    "is_generic_element",
    "is_dominant",
    "is_restricted",
    "is_regular",
    "dominant_witness",
    "bruhat_interval",
    "omega_power",
    "wa_part_and_omega",
    "adm",
    "adm_member",
    "conv_contains",
    "conv_lattice_points",
    "regular_factorization",
    "is_prime",
    "check_prime",
    "ap_enumerate",
    "restricted_classes",
    "sort_key",
    "max_len_cap",
    "perm_identity",
    "perm_compose",
    "perm_inverse",
    "perm_act",
    "perm_w0",
    "perm_sign",
    "all_perms",
    "positive_roots",
    "all_roots",
    "pairing",
    "json_int",
]


# ---------------------------------------------------------------------------
# permutations (one-line notation, 1-based images)

def perm_identity(n):
    return tuple(range(1, n + 1))


def perm_compose(w1, w2):
    """(w1 w2)(i) = w1(w2(i))."""
    return tuple(w1[w2[i] - 1] for i in range(len(w1)))


def perm_inverse(w):
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def perm_act(w, v):
    """(w·v)_{w(i)} = v_i."""
    out = [0] * len(w)
    for i in range(len(w)):
        out[w[i] - 1] = v[i]
    return tuple(out)


def perm_w0(n):
    return tuple(range(n, 0, -1))


def perm_sign(w):
    """(-1)^(number of inversions); w may be 0- or 1-based."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(w)), 2)
                     if w[i] > w[j])
    return -1 if inversions % 2 else 1


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def positive_roots(n):
    """Positive roots eps_i - eps_k as pairs (i, k), i < k, 1-based."""
    return [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)]


def all_roots(n):
    return [(i, k) for i in range(1, n + 1) for k in range(1, n + 1) if i != k]


def pairing(v, root):
    """<v, alpha∨> = v_i - v_k for alpha = eps_i - eps_k."""
    i, k = root
    return v[i - 1] - v[k - 1]


# ---------------------------------------------------------------------------
# elements

def json_int(x, where):
    """x, refused unless a JSON integer: int() would truncate 1.7 to 1 and
    read true and "1" as 1."""
    if type(x) is not int:
        raise InputError(f"{where} holds {x!r} where an integer belongs")
    return x


class Record:
    """An immutable record: the fields are the `__slots__`, set once in
    `__init__` through `object.__setattr__`; records of one class are equal,
    with equal hashes, when their fields are.  Subclasses on hot paths write
    `__init__`, `__eq__` and `__hash__` out; the others use these."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    @classmethod
    def trusted(cls, *values):
        """The record of already valid fields, without `__init__`'s checks."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class WeylElement(Record):
    """The affine map x |-> w(x) + nu, i.e. the element t_nu ∘ w."""

    __slots__ = ("w", "nu")

    def __init__(self, w, nu):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "nu", nu)
        self.__post_init__()

    def __post_init__(self):
        n = len(self.w)
        if sorted(self.w) != list(range(1, n + 1)):
            raise InputError(f"not a permutation one-line image: {self.w}")
        if len(self.nu) != n:
            raise InputError("translation part has wrong length")
        object.__setattr__(self, "w", tuple(self.w))
        object.__setattr__(self, "nu", tuple(int(c) for c in self.nu))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.w, self.nu) == (other.w, other.nu)

    def __hash__(self):
        return hash((self.w, self.nu))

    @property
    def n(self):
        return len(self.w)

    def __mul__(self, other):
        return multiply(self, other)

    def inverse(self):
        return invert(self)

    def to_json(self):
        return {"w": list(self.w), "nu": list(self.nu), "convention": "t_nu_then_w"}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise InputError(f"element encoding must be an object: {data!r}")
        try:
            conv = data.get("convention", "t_nu_then_w")
            if conv != "t_nu_then_w":
                raise InputError(f"unknown element convention {conv!r}")
            return cls(tuple(json_int(x, "element") for x in data["w"]),
                       tuple(json_int(x, "element") for x in data["nu"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad element encoding: {data!r}") from exc


def identity(n):
    return WeylElement(perm_identity(n), (0,) * n)


def translation(nu):
    return WeylElement(perm_identity(len(nu)), tuple(nu))


def finite(w):
    return WeylElement(tuple(w), (0,) * len(w))


@lru_cache(maxsize=None)
def w0(n):
    return finite(perm_w0(n))


def eta_vector(n):
    return tuple(range(n - 1, -1, -1))


@lru_cache(maxsize=None)
def w_h(n):
    """w0 · t_{-eta}, the distinguished element of the restricted dominant box."""
    return multiply(w0(n), translation(tuple(-e for e in eta_vector(n))))


def multiply(a: WeylElement, b: WeylElement) -> WeylElement:
    if a.n != b.n:
        raise ContextError(f"rank mismatch: {a.n} vs {b.n}")
    nu = tuple(x + y for x, y in zip(a.nu, perm_act(a.w, b.nu)))
    return WeylElement(perm_compose(a.w, b.w), nu)


def invert(a: WeylElement) -> WeylElement:
    wi = perm_inverse(a.w)
    return WeylElement(wi, tuple(-c for c in perm_act(wi, a.nu)))


def evaluate(a: WeylElement, x):
    """w(x) + nu with exact arithmetic; x may have rational entries."""
    if len(x) != a.n:
        raise ArgumentError(f"point has length {len(x)}, expected {a.n}")
    moved = perm_act(a.w, tuple(x))
    return tuple(m + c for m, c in zip(moved, a.nu))


def degree(a: WeylElement) -> int:
    return sum(a.nu)


def star(a: WeylElement) -> WeylElement:
    """t_nu ∘ w  |->  w^{-1} t_nu, realised as (w^{-1}, w^{-1}(nu))."""
    wi = perm_inverse(a.w)
    return WeylElement(wi, perm_act(wi, a.nu))


def alcove_point(a: WeylElement):
    """n·a(x0) = w(eta) + n·nu: the image of the base point x0 = eta/n,
    scaled by n so that every root pairing is an integer prime to n."""
    return _point(a.w, a.nu)


def _point(w, nu):
    """alcove_point of t_nu ∘ w, from the tuples.  Left multiplication by
    t_mu ∘ u acts on it as z |-> u(z) + n·mu."""
    n = len(w)
    y = [n * c + n - 1 for c in nu]
    for i, wi in enumerate(w):  # eta_(i+1) = n - 1 - i lands at w(i+1)
        y[wi - 1] -= i
    return tuple(y)


def _from_point(y):
    """The (w, nu) whose alcove point is y: y mod n is w(eta), whose entry
    at w(i) is eta_i = n - i, and nu = y // n."""
    n = len(y)
    w = [0] * n
    for j, c in enumerate(y):
        w[n - 1 - c % n] = j + 1
    return tuple(w), tuple(c // n for c in y)


def _walls(y, shift):
    """Root hyperplanes strictly between the scaled point y and x0 (shift 0)
    or w0(x0) (shift 1); every positive pairing of x has floor -shift."""
    n = len(y)
    return sum(abs((y[i] - y[k]) // n + shift)
               for i in range(n) for k in range(i + 1, n))


@lru_cache(maxsize=None)
def _separation(a: WeylElement, x_index: int) -> int:
    """Hyperplanes separating x from a(x), for x = x0 (x_index 0) or w0(x0)
    (x_index 1)."""
    return _walls(alcove_point(a if x_index == 0 else multiply(a, w0(a.n))),
                  x_index)


def length(a: WeylElement) -> int:
    """Hyperplanes strictly separating x0 from a(x0); extends Coxeter length by
    length(g·delta) = length(g) for delta in Omega."""
    return _separation(a, 0)


# ---------------------------------------------------------------------------
# alcove position predicates

def is_dominant(a: WeylElement) -> bool:
    y = alcove_point(a)
    return all(y[i] > y[i + 1] for i in range(a.n - 1))


def is_restricted(a: WeylElement) -> bool:
    return _in_box(alcove_point(a))


def is_regular(a: WeylElement) -> bool:
    return _regular_point(alcove_point(a))


def _in_box(y):
    """The scaled point y lies in 0 < <x, alpha_i∨> < 1, alpha_i simple."""
    n = len(y)
    return all(0 < y[i] - y[i + 1] < n for i in range(n - 1))


def _regular_point(y):
    """The scaled point y lies in no strip 0 < <x, alpha∨> < 1, alpha > 0."""
    n = len(y)
    return not any(0 < y[i] - y[k] < n
                   for i in range(n) for k in range(i + 1, n))


def smallness(a: WeylElement) -> int:
    """h_nu = max_alpha <nu, alpha∨> = max(nu) - min(nu)."""
    return max(a.nu) - min(a.nu)


def is_small(a: WeylElement, m: int) -> bool:
    return smallness(a) <= m


def element_depth(a: WeylElement, p: int) -> int:
    """Largest m with nu - eta m-deep, i.e. m < |<nu, alpha∨> + p k| for all
    alpha > 0, k; returns -1 when some pairing vanishes mod p."""
    depth = p
    for root in positive_roots(a.n):
        r = pairing(a.nu, root) % p
        depth = min(depth, r, p - r)
    return depth - 1


def weight_depth_base(lam, p: int) -> int:
    """Depth of lam inside the base p-alcove: largest m with
    m < <lam+eta, alpha∨> < p - m for all alpha > 0; -1 if outside."""
    n = len(lam)
    eta = eta_vector(n)
    best = p
    for root in positive_roots(n):
        v = pairing(lam, root) + pairing(eta, root)
        if not 0 < v < p:
            return -1
        best = min(best, v, p - v)
    return best - 1


def is_generic_element(a: WeylElement, m: int, p: int) -> bool:
    return element_depth(a, p) >= m


class Flags(Record):
    __slots__ = ("dominant", "restricted", "regular", "m_small", "m_generic")

    def __init__(self, dominant, restricted, regular, m_small=None,
                 m_generic=None):
        super().__init__(dominant, restricted, regular, m_small, m_generic)


def classify(a: WeylElement, m: int | None = None, p: int | None = None) -> Flags:
    if m is not None and m < 0:
        raise ArgumentError("smallness/genericity bound m must be >= 0")
    if p is not None:
        check_prime(p)
    return Flags(
        dominant=is_dominant(a),
        restricted=is_restricted(a),
        regular=is_regular(a),
        m_small=None if m is None else is_small(a, m),
        m_generic=None if m is None or p is None else is_generic_element(a, m, p),
    )


def dominant_witness(a: WeylElement):
    """The unique w in W with w^{-1}·(a(x0)) strictly dominant."""
    y = alcove_point(a)
    order = sorted(range(a.n), key=lambda i: y[i], reverse=True)
    # (w^{-1} y)_i = y_{w(i)} must decrease, so w(i) = order[i-1] + 1
    return tuple(i + 1 for i in order)


# ---------------------------------------------------------------------------
# Omega (length-zero elements) and the W_a / Omega splitting

def omega_power(n: int, m: int) -> WeylElement:
    """The canonical length-zero element of degree m, the m-th power of
    t_(1,0,..,0) ∘ (i |-> i+1 mod n): for m = q·n + r, 0 <= r < n, the
    rotation i |-> i + r mod n after the translation (q+1)^r q^(n-r), so
    that the n-th power is t_(1,..,1)."""
    q, r = divmod(m, n)
    return WeylElement(tuple((i + r) % n + 1 for i in range(n)),
                       (q + 1,) * r + (q,) * (n - r))


def wa_part_and_omega(a: WeylElement):
    """Write a = x · delta with x in W_a and delta the canonical length-zero
    element of degree deg(a)."""
    delta = omega_power(a.n, degree(a))
    x = multiply(a, invert(delta))
    if degree(x) != 0:
        raise InternalError("W_a part has nonzero degree")
    return x, delta


def max_len_cap() -> int:
    try:
        return int(os.environ.get("AWBM_MAX_LEN", "12"))
    except ValueError:
        raise InputError("AWBM_MAX_LEN must be an integer")


# perfbench/tracer.py reads this name's cache_info()
@lru_cache(maxsize=None)
def _leq_wa(y, z) -> bool:
    """a <= b for a, b of one degree with alcove points y, z, by counting
    (Björner-Brenti, GTM 231, Thm 8.3.7) on the affine permutations' windows
    u(n - (y_k mod n)) = k + n·(y_k div n): a <= b iff u[i,j] <= v[i,j] for
    i in 1..n and all j, u[i,j] = sum_r max(0, (u(r) - j) // n + [r <= i]).
    Right multiplication by Omega only shifts positions.  On a residue class
    of j the difference of the counts is piecewise linear and 0 at both ends
    (equal degrees), so only its break points x + d, x a window value,
    1 - n <= d <= n, are tested; stepping i adds [f >= 0] to a count."""
    n = len(y)
    u, v = [0] * n, [0] * n
    for k, (c, d) in enumerate(zip(y, z), 1):
        u[n - 1 - c % n] = k + n * (c // n)
        v[n - 1 - d % n] = k + n * (d // n)
    for j in {x + d for x in u + v for d in range(1 - n, n + 1)}:
        fu = [(x - j) // n for x in u]
        fv = [(x - j) // n for x in v]
        cu, cv = sum(max(0, f) for f in fu), sum(max(0, f) for f in fv)
        for f, g in zip(fu, fv):
            cu, cv = cu + (f >= 0), cv + (g >= 0)
            if cu > cv:
                return False
    return True


def bruhat_leq(a: WeylElement, b: WeylElement) -> bool:
    """Bruhat order on the extended group; distinct degrees (distinct
    W_a-cosets) are incomparable."""
    if a.n != b.n:
        raise ContextError("rank mismatch")
    return degree(a) == degree(b) and _leq_wa(alcove_point(a), alcove_point(b))


def bruhat_interval(a: WeylElement):
    """All b <= a, canonically sorted.  The closure of y = alcove_point(a)
    under the reflections that shorten: s_{alpha,m} shortens b iff the wall
    <x, alpha∨> = m separates x0 from b(x0) (Humphreys §4.5), and every
    b <= a is reached from a by such steps (Björner-Brenti §2.1).  For
    alpha = e_i - e_k and q = (y_i - y_k) // n, those walls are m = 1..q
    when q > 0 and m = q+1..0 otherwise; s_{alpha,m} moves y to
    y - (y_i - y_k - n·m)(e_i - e_k), which swaps y_i and y_k and shifts
    them by ±n·m.  The reflections lie in W_a, so the degree is kept."""
    y = alcove_point(a)
    ell = _walls(y, 0)
    if ell > max_len_cap():
        raise CapacityError(
            f"interval of an element of length {ell} exceeds AWBM_MAX_LEN")
    n = a.n
    seen, todo = {y}, [y]
    for z in todo:  # todo grows as it is read
        for i, k in itertools.combinations(range(n), 2):
            q = (z[i] - z[k]) // n
            for m in range(1, q + 1) if q > 0 else range(q + 1, 1):
                t = list(z)
                t[i], t[k] = z[k] + n * m, z[i] - n * m
                t = tuple(t)
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
    # (length, w, nu) is sort_key, read off the point without the element
    return [WeylElement(w, nu)
            for _, w, nu in sorted((_walls(z, 0), *_from_point(z)) for z in seen)]


def sort_key(a: WeylElement):
    return (length(a), a.w, a.nu)


# ---------------------------------------------------------------------------
# upper-arrow order

def up_leq(a: WeylElement, b: WeylElement) -> bool:
    """a ↑ b on alcove points; perfbench reads up_leq_points' cache_info() here."""
    if a.n != b.n:
        raise ContextError("rank mismatch")
    return up_leq_points(alcove_point(a), alcove_point(b))


@lru_cache(maxsize=None)
def up_leq_points(y, z) -> bool:
    """a ↑ b for the elements with alcove points y, z.  Up-reflections move a
    point by positive multiples of positive roots, so z - y must lie in their
    cone; then both move by c·n·eta into the dominant cone, where ↑ is Bruhat."""
    d = list(itertools.accumulate(b - a for a, b in zip(y, z)))
    if d[-1] or min(d) < 0:
        return False
    n = len(y)
    c = 2 + max(max(p) - min(p) for p in (y, z)) // n
    ty, tz = (tuple(x + c * n * (n - 1 - i) for i, x in enumerate(p)) for p in (y, z))
    if not all(p[i] > p[i + 1] for p in (ty, tz) for i in range(n - 1)):
        raise InternalError("translation bound failed to dominate")
    return _leq_wa(ty, tz)


up_leq.cache_info = up_leq_points.cache_info


# ---------------------------------------------------------------------------
# admissible sets, regular factorization, admissible pairs

def _check_dominant_weight(lam):
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ArgumentError(f"weight {lam} is not dominant")


def conv_contains(nu, lam) -> bool:
    """nu in Conv(W·lam), decided by majorization of the sorted vectors."""
    if sum(nu) != sum(lam):
        return False
    a = sorted(nu, reverse=True)
    b = sorted(lam, reverse=True)
    pa = pb = 0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pa > pb:
            return False
    return True


def conv_lattice_points(lam):
    """Integer points of the Weyl-orbit hull of lam."""
    lo, hi = min(lam), max(lam)
    pts = []
    for cand in itertools.product(range(lo, hi + 1), repeat=len(lam)):
        if conv_contains(cand, lam):
            pts.append(cand)
    return pts


def adm_member(x: WeylElement, lam) -> bool:
    """x in Adm(lam), by the vertexwise test: for GL_n, Adm(lam) = Perm(lam)
    (Kottwitz-Rapoport, Haines-Ngo), the elements of degree sum(lam) moving
    every vertex v of the base alcove to a point with x(v) - v in
    Conv(W·lam)."""
    lam = tuple(int(c) for c in lam)
    _check_dominant_weight(lam)
    n = x.n
    if len(lam) != n:
        raise ContextError(f"rank mismatch: {n} vs weight {lam}")
    # k = 0 tests nu itself, and conv_contains also compares the degrees
    A = 0
    for k in range(n):
        if not _vertex_test(x.nu, A, k, lam):
            return False
        A |= 1 << (x.w[k] - 1)
    return True


def _vertex_test(nu, A, k, lam):
    """The test at the vertex v_k = (1^k, 0^(n-k)) of every t_nu ∘ w with
    w({1..k}) = A, bit i of A standing for the index i + 1: w(v_k) = 1_A,
    so it asks nu + 1_A - v_k in Conv(W·lam)."""
    return conv_contains(
        tuple(c + (A >> i & 1) - (i < k) for i, c in enumerate(nu)), lam)


def adm(lam, variant="all"):
    """Adm(lam) = Perm(lam), built from its members.  The vertex test of
    t_nu ∘ w at v_k = (1^k, 0^(n-k)) sees w only through the set
    A_k = w({1..k}) (`_vertex_test`).  So for each nu in the hull the 2^n
    subsets are tested once, and the members are the chains
    ∅ ⊂ A_1 ⊂ ... ⊂ A_n of passing subsets, w(k) the index that A_k adds.
    Regularity and the sort key are read off the integer point w(eta) + n·nu,
    so only the members kept become WeylElements.  'regular' keeps the
    regular elements, 'dual' applies the star involution.  Canonically
    sorted."""
    lam = tuple(int(c) for c in lam)
    _check_dominant_weight(lam)
    if variant not in ("all", "regular", "dual"):
        raise InputError(f"unknown admissible-set variant {variant!r}")
    n = len(lam)
    keyed = []
    for nu in conv_lattice_points(lam):
        passes = [_vertex_test(nu, A, bin(A).count("1"), lam)
                  for A in range(1 << n)]
        chains = [((), 0)]
        for _ in range(n):
            chains = [(w + (i + 1,), A | 1 << i) for w, A in chains
                      for i in range(n)
                      if not A >> i & 1 and passes[A | 1 << i]]
        for w, _ in chains:
            x = (w, nu)
            if variant == "dual":  # star: (w^{-1}, w^{-1}(nu))
                wi = perm_inverse(w)
                x = (wi, perm_act(wi, nu))
            y = _point(*x)
            if variant != "regular" or _regular_point(y):
                keyed.append((_walls(y, 0), *x))  # sort_key, from the point
    return [WeylElement(w, nu) for _, w, nu in sorted(keyed)]


def _box_translation(y):
    """The nu with nu_n = 0 and nu_i - nu_(i+1) = floor(<y/n, alpha_i∨>) for
    the simple roots alpha_i, so that y/n - nu lies in the box
    0 <= <x, alpha_i∨> < 1; y is a scaled point, n = len(y)."""
    n = len(y)
    nu = [0] * n
    for i in range(n - 2, -1, -1):
        nu[i] = nu[i + 1] + (y[i] - y[i + 1]) // n
    return nu


def regular_factorization(a: WeylElement):
    """Write a regular element as w2^{-1} · w0 · w1 with w1 restricted dominant
    and w2 dominant; canonical up to the diagonal central-translation action,
    normalised so that max coordinate of w1's translation part is zero.

    Computed on the integer point y = alcove_point(a), on which t_mu ∘ u
    acts by z |-> u(z) + n·mu: the finite part of w2 sorts y, box
    translations make w2 restricted and split w0·w2·a into a dominant
    translation and the restricted w1.  The two points become elements only
    at the end; the product is checked on points, through the (w, nu)
    tuples returned."""
    n = a.n
    y = alcove_point(a)
    if not _regular_point(y):
        raise RegularityError(f"element {a} is not regular")
    order = sorted(range(n), key=y.__getitem__)  # ascending -> antidominant
    w2f = perm_inverse(tuple(i + 1 for i in order))
    y2f = _point(w2f, (0,) * n)
    eta2 = _box_translation(y2f)
    # the points of w2 = t_{-eta2} ∘ w2f and of b = w0 · w2 · a, where
    # w2f(y) is y sorted
    y2 = [c - n * e for c, e in zip(y2f, eta2)]
    if not _in_box(y2):
        raise InternalError("restricted normalisation of w2 failed")
    yb = [c - n * e for c, e in zip(sorted(y), eta2)][::-1]
    nu = _box_translation(yb)
    if any(nu[i] < nu[i + 1] for i in range(n - 1)):
        raise InternalError("dominant part of the factorization is negative")
    y1 = [c - n * m for c, m in zip(yb, nu)]  # w1 = t_{-nu} · b
    if not _in_box(y1):
        raise InternalError("restricted part of the factorization failed")
    # w2 picks up t_{w0(-nu)}; then both move by the central translation
    # that makes max(w1.nu) = 0
    c = max(y1) // n
    w1, nu1 = _from_point([x - n * c for x in y1])
    w2, nu2 = _from_point([x - n * (m + c) for x, m in zip(y2, nu[::-1])])
    # a = w2^{-1} · w0 · w1 iff w2 · a and w0 · w1 have one point
    if (tuple(x + n * m for x, m in zip(perm_act(w2, y), nu2))
            != _point(w1, nu1)[::-1]):
        raise InternalError("factorization product check failed")
    return WeylElement(w1, nu1), WeylElement(w2, nu2)


def ap_enumerate(lam_plus_eta):
    """AP(lam+eta) as the set of factorizations of the regular admissible set;
    the induced map (w1, w2) -> w2^{-1} w0 w1 is checked to be a bijection."""
    lam = tuple(int(c) for c in lam_plus_eta)
    _check_dominant_weight(lam)
    reg = adm(lam, "regular")
    pairs = {}
    for a in reg:
        pair = regular_factorization(a)
        if pair in pairs:
            raise InternalError("factorization is not injective")
        pairs[pair] = a
    return sorted(pairs, key=lambda pr: (sort_key(pr[0]), sort_key(pr[1])))


@lru_cache(maxsize=None)
def restricted_classes(n: int):
    """Representatives of the restricted dominant elements modulo central
    translations, normalised with max translation coordinate zero."""
    found = set()
    for w in all_perms(n):
        nu = _box_translation(perm_act(w, eta_vector(n)))
        cand = multiply(translation(tuple(-c for c in nu)), finite(w))
        if not is_restricted(cand):
            continue
        for d in range(n):
            elt = multiply(cand, omega_power(n, d))
            if is_restricted(elt):
                found.add(multiply(translation((-max(elt.nu),) * n), elt))
    return tuple(sorted(found, key=sort_key))


# ---------------------------------------------------------------------------
# tuples over the embedding set J = Z/f

class WeylTuple(Record):
    """An f-tuple of elements, indexed by the embeddings Z/f; all group and
    order operations act componentwise, and pi shifts the index."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise InputError("empty tuple")
        n = comps[0].n
        if any(c.n != n for c in comps):
            raise ContextError("mixed ranks inside a tuple")
        object.__setattr__(self, "components", comps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash((self.components,))

    @property
    def f(self):
        return len(self.components)

    @property
    def n(self):
        return self.components[0].n

    def __getitem__(self, j):
        return self.components[j % self.f]

    def __iter__(self):
        return iter(self.components)

    def __mul__(self, other):
        self._match(other)
        return WeylTuple(tuple(multiply(a, b) for a, b in zip(self, other)))

    def _match(self, other):
        if not isinstance(other, WeylTuple) or other.f != self.f or other.n != self.n:
            raise ContextError("tuple shape mismatch")

    def inverse(self):
        return WeylTuple(tuple(invert(a) for a in self))

    def star(self):
        return WeylTuple(tuple(star(a) for a in self))

    def pi(self):
        """pi(x)_j = x_{j+1}; the identity when f = 1."""
        return WeylTuple(tuple(self[(j + 1) % self.f] for j in range(self.f)))

    def pi_inverse(self):
        return WeylTuple(tuple(self[(j - 1) % self.f] for j in range(self.f)))

    def length(self):
        return sum(length(a) for a in self)

    def is_dominant(self):
        return all(is_dominant(a) for a in self)

    def is_restricted(self):
        return all(is_restricted(a) for a in self)

    def to_json(self):
        return [a.to_json() for a in self]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or not data:
            raise InputError("tuple encoding must be a nonempty array")
        return cls(tuple(WeylElement.from_json(d) for d in data))

    @classmethod
    def constant(cls, a: WeylElement, f: int):
        return cls((a,) * f)


# ---------------------------------------------------------------------------
# context

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Miller-Rabin to the first 13 prime bases: deterministic, hence exact,
    for p < 3.3·10^24 (Sorenson-Webster 2015), a strong probable-prime test
    beyond."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise ArgumentError unless p is prime."""
    if p < 2:
        raise ArgumentError("prime must be at least 2")
    if not is_prime(p):
        raise ArgumentError(f"p = {p} is not prime")


class GroupContext(Record):
    """Rank, number of embeddings, and the (optional) prime, plus the standard
    weight eta = (n-1, ..., 0)."""

    __slots__ = ("n", "f", "p")

    def __init__(self, n, f=1, p=None):
        if n < 2:
            raise ArgumentError("rank must be at least 2")
        if f < 1:
            raise ArgumentError("need at least one embedding")
        if p is not None:
            check_prime(p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.f, self.p) == (other.n, other.f, other.p)

    def __hash__(self):
        return hash((self.n, self.f, self.p))

    @property
    def eta(self):
        return eta_vector(self.n)

    def require_prime(self):
        if self.p is None:
            raise ArgumentError("this operation needs a prime in the context")
        return self.p
