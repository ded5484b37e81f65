"""The group law of the extended affine Weyl group of GL_n.

An element is stored as a pair (w, nu) with w a permutation of {1..n} in
one-line notation and nu an integer vector; it acts on X*(T) ⊗ Q = Q^n by

    x  |->  w(x) + nu,

i.e. it is the product t_nu ∘ w (translation after the finite part).  Its
position is read through a fixed interior point x0 = eta/n of the base
alcove, where eta = (n-1, n-2, ..., 0): for any element g and any root alpha
the pairing <g(x0), alpha∨> has denominator exactly n, so it is never an
integer and every alcove membership test is a strict inequality.  The code
works on the integer point alcove_point(g) = n·g(x0) = w(eta) + n·nu: a floor
of a pairing is the scaled pairing // n, and a strip 0 < <y, alpha∨> < 1 is
0 < <n·y, alpha∨> < n.  Length is the number of root hyperplanes separating
x0 from g(x0).  Orders and sets live in `affine_weyl`, tuples in `context`
and the prime test in `primes`.

Conventions used throughout the package:

* permutations act by (w·v)_{w(i)} = v_i, i.e. (w·v)_i = v_{w^{-1}(i)};
* (w1, nu1) · (w2, nu2) = (w1 w2, nu1 + w1(nu2));
* the star involution sends t_nu ∘ w to w^{-1} t_nu, an element of the
  group attached to the antidominant base alcove; it is realised on the
  same carrier as (w, nu) |-> (w^{-1}, w^{-1}(nu)).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter

from .errors import ArgumentError, ContextError, InputError, json_int

__all__ = [
    # permutations and roots
    "perm_identity", "perm_compose", "perm_inverse", "perm_act", "perm_w0",
    "perm_sign", "all_perms", "positive_roots", "all_roots", "pairing",
    # elements and the group law
    "Record", "WeylElement", "identity", "translation", "finite",
    "w0", "w_h", "eta_vector", "multiply", "invert", "evaluate", "degree",
    "star", "alcove_point", "length",
    # alcove positions
    "is_dominant", "is_restricted", "dominant_witness",
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

class Record:
    """An immutable record: the fields are the `__slots__`, set once in
    `__init__` through `object.__setattr__`.  Records of one class are equal,
    with equal hashes, exactly when their fields are; the hash is that of the
    field tuple.  Each subclass gets `__eq__`, `__hash__` and `_fields` built
    from one `attrgetter` over its slots, and none writes them out."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        one = len(cls.__slots__) == 1  # then get returns the bare value

        def _fields(self):
            return (get(self),) if one else get(self)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        def __hash__(self):
            return hash((get(self),) if one else get(self))

        cls._fields, cls.__eq__, cls.__hash__ = _fields, __eq__, __hash__

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
        object.__setattr__(self, "nu", tuple(map(int, self.nu)))

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


def _walls(y, shift):
    """Root hyperplanes strictly between the scaled point y and x0 (shift 0)
    or w0(x0) (shift 1); every positive pairing of x has floor -shift."""
    n = len(y)
    return sum([abs((a - b) // n + shift)
                for a, b in itertools.combinations(y, 2)])


@lru_cache(maxsize=None)
def _separation(a: WeylElement) -> int:
    """Hyperplanes separating x0 from a(x0)."""
    return _walls(alcove_point(a), 0)


def length(a: WeylElement) -> int:
    """Hyperplanes strictly separating x0 from a(x0); extends Coxeter length by
    length(g·delta) = length(g) for delta in Omega."""
    return _separation(a)


# ---------------------------------------------------------------------------
# alcove position predicates

def is_dominant(a: WeylElement) -> bool:
    y = alcove_point(a)
    return all(y[i] > y[i + 1] for i in range(a.n - 1))


def is_restricted(a: WeylElement) -> bool:
    return _in_box(alcove_point(a))


def _in_box(y):
    """The scaled point y lies in 0 < <x, alpha_i∨> < 1, alpha_i simple."""
    n = len(y)
    return all(0 < y[i] - y[i + 1] < n for i in range(n - 1))


def dominant_witness(a: WeylElement):
    """The unique w in W with w^{-1}·(a(x0)) strictly dominant."""
    y = alcove_point(a)
    order = sorted(range(a.n), key=lambda i: y[i], reverse=True)
    # (w^{-1} y)_i = y_{w(i)} must decrease, so w(i) = order[i-1] + 1
    return tuple(i + 1 for i in order)
