"""Order theory for the extended affine Weyl group of GL_n, on the group law
of `group`, whose names it re-exports.

Elements of distinct degree deg(t_nu ∘ w) = sum(nu) lie in distinct cosets
of the affine Weyl group W_a and are incomparable; within one degree the
Bruhat order is decided by counting on the element read as an affine
permutation of Z (Björner-Brenti, Thm 8.3.7), at a cost that does not grow
with the length.  A reflection t shortens b, l(t·b) < l(b), exactly when its
hyperplane H_t separates A0 from b·A0 (Humphreys, Reflection Groups and
Coxeter Groups, §4.5), and such steps generate the Bruhat order
(Björner-Brenti, GTM 231, §2.1); so the interval below a is the closure of
alcove_point(a) under the reflections across the walls between a point and
x0.  The upper-arrow order is decided by simultaneous translation into the
dominant cone, where it coincides with the Bruhat order.
Admissible sets are decided by the vertexwise test (Adm = Perm for GL_n,
Haines-Ngô).  The builder works on plain (w, nu) tuples: the test at the
vertex (1^k, 0^(n-k)) sees w only through the set w({1..k}), so each nu of
the hull tests its 2^n subsets once and its members are the chains of
passing subsets; for Adm^reg a chain is dropped at the first two
coordinates it places in one strip.  AP is kept as one regular member per
Omega-orbit (`_ap_points`), which W? reads with the points.  omega =
omega_power(n, 1) = t_mu ∘ u moves x0 by (1,..,1)/n, so point(x·omega^{-1})
= point(x) - (1,..,1) and point(omega·x·omega^{-1}) = u(point(x) - 1) + n·mu,
of equal length: on z = point + (0, 1, .., n-1) conjugation is the rotation
z -> (z_n, z_1, .., z_(n-1)).  It keeps the Bruhat order and sends t_nu to
t_u(nu), so it keeps Adm(lam), and it keeps the strip test (the pair (i, n)
goes to (1, i+1), with difference n - (y_i - y_n)).  A regular orbit has n
points, as a z of period k < n has y_1 - y_(k+1) = k, in a strip; so the
member whose z is the least of its rotations is one per orbit.
omega·(w2^{-1}·w0·w1)·omega^{-1} = (w2·omega^{-1})^{-1}·w0·(w1·omega^{-1}),
whose factors keep their lengths and stay restricted and dominant (their
points move by -(1,..,1)); the pair is unique up to central translations,
so the canonical one moves both points by -(1,..,1) - n·c,
c = max nu(w1·omega^{-1}) = (max point(w1) - 1) // n.  Only the
representative is factored and checked; `_orbit` expands its orbit where
every pair is written.  The builders make unchecked WeylElements only for
what they return.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from operator import add

from . import context, group, oracles, primes
from .errors import (
    ArgumentError,
    CapacityError,
    ContextError,
    InputError,
    InternalError,
    RegularityError,
)
from .group import *  # noqa: F403  (the group law, re-exported)
# perfbench/tracer.py reads _separation's cache_info() here
from .group import _in_box, _point, _separation, _walls  # noqa: F401

__all__ = group.__all__ + [
    "bruhat_leq",
    "up_leq",
    "up_leq_points",
    "classify",
    "Flags",
    "smallness",
    "is_small",
    "element_depth",
    "is_generic_element",
    "is_regular",
    "bruhat_interval",
    "omega_power",
    "wa_part_and_omega",
    "adm",
    "adm_member",
    "conv_contains",
    "conv_lattice_points",
    "MAX_HULL_BOX",
    "MAX_INTERVAL",
    "regular_factorization",
    "ap_enumerate",
    "sort_key",
]

# perfbench/record.py imports GroupContext, WeylTuple and restricted_classes
# from here; PEP 562 serves them from `context` and `oracles`
_MOVED = {"restricted_classes": oracles, "GroupContext": context,
          "WeylTuple": context}


def __getattr__(name):
    if name in _MOVED:
        return getattr(_MOVED[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# alcove position predicates

def is_regular(a: WeylElement) -> bool:
    return _regular_point(alcove_point(a))


def _regular_point(y):
    """The scaled point y lies in no strip 0 < <x, alpha∨> < 1, alpha > 0."""
    n = len(y)
    return not any(0 < y[i] - y[k] < n
                   for i in range(n) for k in range(i + 1, n))


def _from_point(y):
    """The (w, nu) whose alcove point is y: y mod n is w(eta), whose entry
    at w(i) is eta_i = n - i, and nu = y // n."""
    n = len(y)
    w = [0] * n
    for j, c in enumerate(y, 1):
        w[n - 1 - c % n] = j
    return tuple(w), tuple([c // n for c in y])


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
        primes.check_prime(p)
    return Flags(
        dominant=is_dominant(a),
        restricted=is_restricted(a),
        regular=is_regular(a),
        m_small=None if m is None else is_small(a, m),
        m_generic=None if m is None or p is None else is_generic_element(a, m, p),
    )


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
    bound = _interval_bound(y)
    if bound > MAX_INTERVAL:
        shown = "B >= 2^64" if bound >> 64 else f"B = {bound}"
        raise CapacityError(
            f"Bruhat interval bound {shown} exceeds MAX_INTERVAL = {MAX_INTERVAL}")
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
    return [WeylElement.trusted(w, nu)
            for _, w, nu in sorted((_walls(z, 0), *_from_point(z)) for z in seen)]


def _interval_bound(y):
    """B = min(2^l, n!·K^(n-1)) >= |{b <= a}|, for y = alcove_point(a), l the
    length of a and K = max(y) // n - min(y) // n + 1: members are subwords
    of a reduced word (Björner-Brenti, Thm 2.2.2), and each step above keeps
    the residues mod n and the sum of y, within its range.  Both terms stop
    at 2^64, so a huge input forms neither 2^l nor n!."""
    n, cap = len(y), 1 << 64
    box = 1
    for k in [*range(2, n + 1)] + [max(y) // n - min(y) // n + 1] * (n - 1):
        box = min(box * k, cap)
    return min(1 << min(_walls(y, 0), 64), box)


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


# conv_lattice_points walks the box [min lam, max lam]^n, (spread + 1)^n
# candidates, to keep the points of the hull.  A weight whose box is larger
# than the bound is refused before any range is built.  The largest box that
# a test, catalog job, README example or CI step walks is eta at n = 6 (`wq
# --n 6`, 6^6 = 46,656 candidates); eta at n = 7, 7^7 = 823,543 candidates,
# takes 0.4 s (Python 3.11, one core of an Intel Xeon).
MAX_HULL_BOX = 10 ** 6

# bruhat_interval refuses an element whose _interval_bound passes this, so
# every length up to 17 is admitted; below t_(200,100,0) (B = 242,406) it
# holds 179,400 members in 97 MB after 16.5 s (Python 3.11, Intel Xeon).
MAX_INTERVAL = 250_000


def conv_lattice_points(lam):
    """Integer points of the Weyl-orbit hull of lam."""
    lo, hi = min(lam), max(lam)
    if (hi - lo + 1) ** len(lam) > MAX_HULL_BOX:
        raise CapacityError(
            f"weight spread {hi - lo} at n = {len(lam)} gives more than "
            f"MAX_HULL_BOX = {MAX_HULL_BOX} candidate points")
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
        if not conv_contains(_vertex_image(x.nu, A, k), lam):
            return False
        A |= 1 << (x.w[k] - 1)
    return True


def _vertex_image(nu, A, k):
    """x(v_k) - v_k = nu + 1_A - v_k for v_k = (1^k, 0^(n-k)) and every
    x = t_nu ∘ w with w({1..k}) = A, bit i of A standing for index i + 1."""
    return tuple(c + (A >> i & 1) - (i < k) for i, c in enumerate(nu))


def _members(lam, regular, least=False):
    """The (w, nu) of the members of Adm(lam), or of its regular members.
    The vertex test at v_k sees w only through A_k = w({1..k}), so for each
    nu in the hull the 2^n subsets are tested once, sharing one majorization
    check per sorted vector, and the members are the chains ∅ ⊂ A_1 ⊂ ... ⊂
    A_n of passing subsets, w(k) the index that A_k adds.  Step k places
    coordinate i at y_i = n·nu_i + n-1-k; for a coordinate j placed before,
    y_j - y_i is n(nu_j - nu_i) plus 1..n-1, so the two lie in one strip
    (0 < y_a - y_b < n, a < b) iff nu_j = nu_i when j < i, or nu_j = nu_i - 1
    when j > i.  With `regular` such a placement ends the chain, and with
    `least` each nu with nu_1 > min(nu) + 1 is skipped (`_ap_points`)."""
    n = len(lam)
    offsets = [_vertex_image((0,) * n, A, bin(A).count("1"))
               for A in range(1 << n)]
    majorized = lru_cache(maxsize=None)(partial(conv_contains, lam=lam))
    for nu in conv_lattice_points(lam):
        if least and nu[0] > min(nu) + 1:
            continue
        passes = [majorized(tuple(sorted(map(add, nu, off)))) for off in offsets]
        # blocked[i]: i itself and, for `regular`, the j sharing a strip
        blocked = [sum(1 << j for j in range(n) if j == i or regular and (
            nu[j] == nu[i] if j < i else nu[j] == nu[i] - 1))
            for i in range(n)]
        chains = [((), 0)]
        for _ in range(n):
            chains = [(w + (i + 1,), A | 1 << i) for w, A in chains
                      for i in range(n)
                      if not A & blocked[i] and passes[A | 1 << i]]
        for w, _ in chains:
            yield w, nu


def adm(lam, variant="all"):
    """Adm(lam) = Perm(lam), built from its members (`_members`); 'regular'
    keeps the regular elements, pruned while the chains are built, and
    'dual' applies the star involution.  The sort key is read off the
    integer point w(eta) + n·nu, so only the members become WeylElements.
    Canonically sorted."""
    lam = tuple(int(c) for c in lam)
    _check_dominant_weight(lam)
    if variant not in ("all", "regular", "dual"):
        raise InputError(f"unknown admissible-set variant {variant!r}")
    keyed = []
    for x in _members(lam, variant == "regular"):
        if variant == "dual":  # star: (w^{-1}, w^{-1}(nu))
            wi = perm_inverse(x[0])
            x = (wi, perm_act(wi, x[1]))
        keyed.append((_walls(_point(*x), 0), *x))  # sort_key, from the point
    return [WeylElement.trusted(w, nu) for _, w, nu in sorted(keyed)]


def _box_translation(y):
    """The nu with nu_n = 0 and nu_i - nu_(i+1) = floor(<y/n, alpha_i∨>) for
    the simple roots alpha_i, so that y/n - nu lies in the box
    0 <= <x, alpha_i∨> < 1; y is a scaled point, n = len(y)."""
    n = len(y)
    nu = [0] * n
    for i in range(n - 2, -1, -1):
        nu[i] = nu[i + 1] + (y[i] - y[i + 1]) // n
    return nu


def _factor_point(y):
    """The points of w1 and w2 in the regular factorization of the element
    a with regular scaled point y, on which t_mu ∘ u acts by z |-> u(z) +
    n·mu: the finite part of w2 sorts y, box translations make w2 restricted
    and split w0·w2·a into a dominant translation and the restricted w1;
    `_checked_pair` checks the product."""
    n = len(y)
    order = sorted(range(n), key=y.__getitem__)  # ascending -> antidominant
    # the finite w2f with w2f(order[r] + 1) = r + 1 sorts y; its point moves
    # eta_(order[r]+1) = n - 1 - order[r] to r
    y2f = [n - 1 - i for i in order]
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
    return ([x - n * c for x in y1],
            [x - n * (m + c) for x, m in zip(y2, nu[::-1])])


def _checked_pair(y, z1, z2):
    """The (w, nu) of w1 and w2 read off their points z1, z2 (lists), once
    w2 · a and w0 · w1 have one point, a the member with point y."""
    pair = _from_point(z1), _from_point(z2)
    w2, nu2 = pair[1]
    n = len(y)
    if [x + n * m for x, m in zip(perm_act(w2, y), nu2)] != z1[::-1]:
        raise InternalError("factorization product check failed")
    return pair


def regular_factorization(a: WeylElement):
    """Write a regular element as w2^{-1} · w0 · w1 with w1 restricted dominant
    and w2 dominant; canonical up to the diagonal central-translation action,
    normalised so that max coordinate of w1's translation part is zero.
    Computed on the integer point alcove_point(a) (`_factor_point`)."""
    y = alcove_point(a)
    if not _regular_point(y):
        raise RegularityError(f"element {a} is not regular")
    return tuple(WeylElement(w, nu) for w, nu in _checked_pair(y, *_factor_point(y)))


def _ap_points(lam_plus_eta):
    """The kernel of AP(lam+eta), one entry (k1, k2, y) per Omega-orbit,
    sorted: y is the point of the regular member a whose z = y + (0, 1, ..,
    n-1) is the least of its rotations, and k1, k2 the sort keys of its
    factors, a = w2^{-1} w0 w1, whose product is checked.  z_1 is then the
    least entry of z, which rules out nu_1 > nu_j + 1, as z_1 >= n·nu_1 >
    n·nu_j + 2n - 2 >= z_j.  `_orbit_pairs` yields the entries' pairs."""
    lam = tuple(int(c) for c in lam_plus_eta)
    _check_dominant_weight(lam)
    n = len(lam)
    read, out = _point_reader(), []
    for y in itertools.starmap(_point, _members(lam, True, True)):
        z = [c + i for i, c in enumerate(y)]
        if z == min(z[i:] + z[:i] for i in range(n)):
            z1, z2 = _factor_point(y)
            _checked_pair(y, z1, z2)
            out.append((read(tuple(z1))[0], read(tuple(z2))[0], y))
    return sorted(out)


def _orbit(z1, z2):
    """The points of the n pairs in the Omega-orbit of the pair with points
    z1, z2, this one first: a step moves both by -(1,..,1) - n·c,
    c = (max z1 - 1) // n, which keeps max nu(w1) = 0 (module docstring)."""
    n = len(z1)
    for _ in range(n):
        yield z1, z2
        d = 1 + n * ((max(z1) - 1) // n)
        z1, z2 = tuple([x - d for x in z1]), tuple([x - d for x in z2])


def _point_reader():
    """read(z), formed once per distinct z in one call: the sort key, trusted
    WeylElement and x = w^{-1}(0) = (-nu_{u(k)})_k of w = t_nu ∘ u at point z."""
    @lru_cache(maxsize=None)
    def read(z):
        u, nu = _from_point(z)
        return ((_walls(z, 0), u, nu), WeylElement.trusted(u, nu),
                tuple(-nu[i - 1] for i in u))
    return read


def _orbit_pairs(entries):
    """The records (key, element, x) of the pairs in the entries' orbits."""
    read = _point_reader()
    for (_, *k1), (_, *k2), _ in entries:
        for z1, z2 in _orbit(_point(*k1), _point(*k2)):
            yield read(z1), read(z2)


def ap_enumerate(lam_plus_eta):
    """AP(lam+eta) as pairs of WeylElements, sorted: the orbits of
    `_ap_points`, expanded."""
    return [(r1[1], r2[1])
            for r1, r2 in sorted(_orbit_pairs(_ap_points(lam_plus_eta)))]
