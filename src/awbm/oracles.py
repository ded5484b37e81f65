"""Deliberately naive reference implementations of the order machinery.

These recompute length, Bruhat order, the upper-arrow order, and bounded
enumerations straight from the definitions, sharing nothing with the main
algorithms beyond the group law:

* length: the Iwahori-Matsumoto closed formula for t_nu ∘ w,
      sum_{alpha>0, w^{-1}alpha>0} |<nu,alpha∨>|
    + sum_{alpha>0, w^{-1}alpha<0} |<nu,alpha∨> - 1|;
* bruhat: the subword property over one reduced expression (descents taken
  with respect to the closed-formula length);
* adm: the union of the Bruhat intervals below the translations t_{w(lam)},
  each the subword closure of a reduced expression;
* up: breadth-first search over single up-reflections across separating
  hyperplanes, restricted to alcoves within hyperplane distance L of both
  endpoints (every chain step crosses exactly one hyperplane, so the chain
  stays inside that region);
* enumerate: all elements of a given degree with length at most L, by a
  breadth-first search over the affine simple reflections.

Reduced words, subword closures and the simple reflections live only here,
where they are the independent reference for intervals: the library builds
an interval as a reflection closure on alcove points.

The remaining references are of another kind, built on the main order
layer.  `dual_length` and `dual_bruhat_leq` are the length and Bruhat order
of the antidominant base alcove, which `star` must intertwine with the
usual ones; `ap_member` tests a pair against the definition of AP(lam+eta);
`jh_contains_fixed` tests a JH label by interval containment at a fixed
presentation.  `serre_weight_dim` and `type_degree` check the JH labels by
representation theory: at lam = 0 the constituents of sigmabar(tau) have
dimensions that add up to deg sigma(tau).  `covers_up_oracle` reads the
covering order through the upper-arrow order over all of W, where
`weight_sets.covers` uses interval containment; `bm_cycles_recursive`
reuses `weight_sets.w_question` and `intersection` and runs the defect
recursion record by record over the whole of W?, where
`weight_sets.bm_cycles` takes the product of one-embedding solves.
`restricted_classes` lists the restricted dominant elements up to central
translation, for tests to draw presentations from.

The series-matrix reference, `series_matrix_product`, multiplies two
`series.SeriesMatrix` values schoolbook over their {exponent: coefficient}
entries with Python ints, reading the operands only through `entry`, and
drops every term at or above the product's precision; it shares no helper
with the kernel's loop or its packed path.  `series_matrix_frobenius` and
`series_matrix_truncate` write out `frobenius` and `truncate` the same way,
raising each coefficient to the p-th power by repeated squaring where the
kernel conjugates, and `series_matrix_sum` and `series_matrix_v_ddv` write
out `+`, `-` and `v_ddv`.

They are shipped, not test-only, so cross-checks can be run on demand.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache, reduce

from .affine_weyl import (
    WeylElement,
    _box_translation,
    _check_dominant_weight,
    _walls,
    adm_member,
    alcove_point,
    all_perms,
    bruhat_interval,
    bruhat_leq,
    degree,
    eta_vector,
    evaluate,
    finite,
    identity,
    invert,
    is_dominant,
    is_regular,
    is_restricted,
    multiply,
    omega_power,
    pairing,
    perm_act,
    perm_inverse,
    positive_roots,
    sort_key,
    star,
    translation,
    up_leq,
    w0,
    wa_part_and_omega,
)
from .errors import (
    CapacityError,
    GenericityError,
    InputError,
    InternalError,
)
# bound as module objects, so that the lazy layers run only when a
# weight-set reference is called
from . import inertial_types as it
from . import weight_sets as ws
from . import weights as wt

__all__ = ["oracle", "im_length", "subword_leq", "adm_closure", "chain_up_leq",
           "count_up_leq", "enumerate_elements", "dual_length",
           "dual_bruhat_leq", "ap_member", "jh_contains_fixed",
           "restricted_classes", "serre_weight_dim", "type_degree",
           "bm_cycles_recursive", "covers_up_oracle", "series_matrix_product",
           "series_matrix_frobenius", "series_matrix_truncate"]


def _check_bound(n: int, bound: int):
    if bound < 0:
        raise InputError("length bound must be nonnegative")
    if n >= 3 and bound > 10:
        raise CapacityError(f"oracle bound {bound} exceeds the n>=3 limit of 10")
    if bound > 14:
        raise CapacityError(f"oracle bound {bound} exceeds the hard limit of 14")


def im_length(a: WeylElement) -> int:
    """Iwahori-Matsumoto closed formula for t_nu ∘ w."""
    n = a.n
    winv = perm_inverse(a.w)
    total = 0
    for root in positive_roots(n):
        i, k = root
        v = pairing(a.nu, root)
        if winv[i - 1] < winv[k - 1]:  # w^{-1}(alpha) > 0
            total += abs(v)
        else:
            total += abs(v - 1)
    return total


@lru_cache(maxsize=None)
def simple_reflections(n: int):
    """Affine simple reflections: s_0 through the wall <x, theta∨> = 1, then
    s_1 .. s_{n-1} the adjacent transpositions; none for n = 1, whose affine
    Weyl group is trivial."""
    if n == 1:
        return ()
    return (_reflection(n, (1, n), 1),
            *(_reflection(n, (i, i + 1), 0) for i in range(1, n)))


def _im_reduced_word(x: WeylElement):
    # left-descent stripping: the letters come out in product order
    word = []
    cur = x
    lcur = im_length(cur)
    while lcur > 0:
        for idx, s in enumerate(simple_reflections(x.n)):
            cand = multiply(s, cur)
            lc = im_length(cand)
            if lc < lcur:
                word.append(idx)
                cur, lcur = cand, lc
                break
        else:
            raise CapacityError("stuck while extracting a reduced word")
    return word


def subword_leq(a: WeylElement, b: WeylElement, bound: int | None = None) -> bool:
    """a <= b by enumerating all subword products of one reduced word of b."""
    if degree(a) != degree(b):
        return False
    xb, delta = wa_part_and_omega(b)
    xa, _ = wa_part_and_omega(a)
    if bound is not None:
        _check_bound(a.n, bound)
        if im_length(xb) > bound:
            raise CapacityError("subword oracle bound exceeded")
    return xa in _subword_closure(xb)


def _subword_closure(x: WeylElement):
    """All products of subwords of one reduced word of x in W_a."""
    refs = simple_reflections(x.n)
    closure = {identity(x.n)}
    for idx in _im_reduced_word(x):
        closure |= {multiply(y, refs[idx]) for y in closure}
    return closure


def adm_closure(lam, variant="all"):
    """Adm(lam) as the union of the subword closures below the translations
    t_{w(lam)}, right-translated by their Omega-component; 'regular' keeps the
    regular elements, 'dual' applies the star involution.  Canonically
    sorted, like affine_weyl.adm."""
    lam = tuple(int(c) for c in lam)
    seen = set()
    for w in all_perms(len(lam)):
        x, delta = wa_part_and_omega(translation(perm_act(w, lam)))
        seen.update(multiply(y, delta) for y in _subword_closure(x))
    if variant == "regular":
        seen = {a for a in seen if is_regular(a)}
    elif variant == "dual":
        seen = {star(a) for a in seen}
    elif variant != "all":
        raise InputError(f"unknown admissible-set variant {variant!r}")
    return sorted(seen, key=sort_key)


@lru_cache(maxsize=None)
def _hyperplane_distance(a: WeylElement, b: WeylElement) -> int:
    x = tuple(Fraction(c, a.n) for c in eta_vector(a.n))  # x0 = eta/n
    ya, yb = evaluate(a, x), evaluate(b, x)
    total = 0
    for root in positive_roots(a.n):
        total += abs(math.floor(pairing(ya, root)) - math.floor(pairing(yb, root)))
    return total


def chain_up_leq(a: WeylElement, b: WeylElement, bound: int) -> bool:
    """a ↑ b by BFS over up-reflections c ↦ s_{alpha,k}·c (alcove of c strictly
    below the hyperplane).  The search region is the set of alcoves within
    hyperplane distance R of both endpoints, R = max(bound, d(a,b)) + 4;
    every chain step crosses hyperplanes only between the endpoints' floors
    up to that slack, so the region is generous enough at desk scale (and the
    result is cross-checked against the Wang-reduction path in the tests)."""
    _check_bound(a.n, bound)
    if degree(a) != degree(b):
        return False
    radius = max(bound, _hyperplane_distance(a, b)) + 4
    n = a.n
    x = tuple(Fraction(c, n) for c in eta_vector(n))
    ybs = evaluate(b, x)
    klim = {}
    for root in positive_roots(n):
        fb = math.floor(pairing(ybs, root))
        klim[root] = (fb - radius - 1, fb + radius + 1)
    seen = {a}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        if cur == b:
            return True
        ycur = evaluate(cur, x)
        for root in positive_roots(n):
            pc = pairing(ycur, root)
            lo, hi = klim[root]
            # the walls k > pc, above the alcove of cur
            for k in range(max(lo, math.floor(pc) + 1), hi + 1):
                nxt = multiply(_reflection(n, root, k), cur)
                if nxt in seen:
                    continue
                if (_hyperplane_distance(nxt, a) <= radius
                        and _hyperplane_distance(nxt, b) <= radius):
                    seen.add(nxt)
                    queue.append(nxt)
    return False


def count_up_leq(a: WeylElement, b: WeylElement) -> bool:
    """a ↑ b at any length, by the Björner-Brenti criterion (GTM 231, Thm
    8.3.7) tested at every (i, j) where the counts can differ.  Both move by
    t_{c·eta} into the dominant cone, where ↑ is the Bruhat order; the
    windows u(r) = w(r) + n·nu_{w(r)} are read off (w, nu), and
    u[i,j] = #{s <= i : u(s) >= j} = sum_r max(0, (u(r) - j) // n + [r <= i])
    is compared for i in 1..n and every j within n of a window value.  The
    library reads the windows off alcove points and tests only break points."""
    if degree(a) != degree(b):
        return False
    n = a.n
    c = 2 + max(max(g.nu) - min(g.nu) for g in (a, b))
    t = translation(tuple(c * e for e in eta_vector(n)))
    ta, tb = multiply(t, a), multiply(t, b)
    if not (is_dominant(ta) and is_dominant(tb)):
        raise InternalError("translation failed to dominate")
    u, v = ([x + n * g.nu[x - 1] for x in g.w] for g in (ta, tb))
    for j in range(min(u + v) - n, max(u + v) + n + 1):
        for i in range(1, n + 1):
            cu, cv = (sum(max(0, (x - j) // n + (r <= i)) for r, x in enumerate(g, 1))
                      for g in (u, v))
            if cu > cv:
                return False
    return True


@lru_cache(maxsize=None)
def _reflection(n: int, root, k: int) -> WeylElement:
    """s_{alpha,k}: x ↦ x - (<x,alpha∨> - k) alpha."""
    i, j = root
    perm = list(range(1, n + 1))
    perm[i - 1], perm[j - 1] = j, i
    nu = [0] * n
    nu[i - 1], nu[j - 1] = k, -k
    return WeylElement(tuple(perm), tuple(nu))


# enumerate_elements holds every element of length <= bound: at bound 10, the
# largest a rank n >= 3 accepts, 43,713 elements in 4.9 s at n = 8 and 92,368
# in 14 s at n = 9; at bound 2, 59 s at n = 64 (Python 3.11, one Xeon core).
# No test, README example or demo enumerates above n = 4.
MAX_ENUMERATE_RANK = 8


def enumerate_elements(n: int, deg: int, bound: int):
    """All elements of the given degree with length <= bound."""
    if n > MAX_ENUMERATE_RANK:
        raise CapacityError(f"oracle enumeration at rank {n} exceeds "
                            f"MAX_ENUMERATE_RANK = {MAX_ENUMERATE_RANK}")
    _check_bound(n, bound)
    delta = omega_power(n, deg)
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for cur in frontier:
            for s in simple_reflections(n):
                cand = multiply(s, cur)
                if cand not in seen and im_length(cand) <= bound:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return sorted((multiply(y, delta) for y in seen), key=sort_key)


# ---------------------------------------------------------------------------
# references built on the main order layer

def dual_length(a: WeylElement) -> int:
    """Length with respect to the antidominant base alcove (for starred elements)."""
    return _walls(alcove_point(multiply(a, w0(a.n))), 1)


def dual_bruhat_leq(a: WeylElement, b: WeylElement) -> bool:
    """Bruhat order defined by the antidominant base alcove (on starred carriers)."""
    n = a.n
    c = w0(n)
    return bruhat_leq(multiply(c, multiply(a, c)), multiply(c, multiply(b, c)))


def ap_member(w1: WeylElement, w2: WeylElement, lam_plus_eta) -> bool:
    lam = tuple(int(c) for c in lam_plus_eta)
    _check_dominant_weight(lam)
    if not is_restricted(w1):
        return False
    if not is_dominant(w2):
        return False
    return adm_member(multiply(invert(w2), multiply(w0(w1.n), w1)), lam)


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


def jh_contains_fixed(tau: it.TameTypePresentation, lam,
                      sigma: wt.SerreWeightPresentation) -> bool:
    """Containment criterion at a fixed compatible presentation:
    t_omega · (interval below w0 w1)  ⊂  w̃(tau) · Adm(lam+eta)."""
    ctx = tau.ctx
    lam = ws._weight_tuple(ctx, lam)
    eta = eta_vector(ctx.n)
    wtau = tau.w_tilde()
    for j in range(ctx.f):
        lpe = tuple(l + e for l, e in zip(lam[j], eta))
        base = invert(wtau[j])
        t_om = translation(sigma.omega[j])
        for m in bruhat_interval(multiply(w0(ctx.n), sigma.w1[j])):
            if not adm_member(multiply(base, multiply(t_om, m)), lpe):
                return False
    return True


def serre_weight_dim(kappa, p: int) -> int:
    """dim F(kappa) for a p-restricted highest weight kappa of GL_n, n <= 3:
    the Weyl module's dimension W(a) = prod_{i<k} (<kappa + eta, e_i - e_k>)
    / (k - i), but in GL3's upper restricted alcove, a + b > p - 2 for
    a = kappa_1 - kappa_2 and b = kappa_2 - kappa_3, where F(kappa) is
    W(a, b) less the simple module of the reflected weight, (p-2-b, p-2-a),
    which lies in the lower alcove."""
    n = len(kappa)
    if n > 3:
        raise InputError("serre_weight_dim covers n <= 3")
    gaps = [kappa[i] - kappa[i + 1] for i in range(n - 1)]
    if any(not 0 <= g < p for g in gaps):
        raise InputError(f"weight {tuple(kappa)} is not p-restricted")

    def weyl(*g):
        shifted = [sum(g[i:]) + n - 1 - i for i in range(n)]  # kappa + eta
        num = math.prod(shifted[i] - shifted[k]
                        for i in range(n) for k in range(i + 1, n))
        return num // math.prod(k - i for i in range(n) for k in range(i + 1, n))

    if n == 3 and sum(gaps) > p - 2:
        a, b = gaps
        return weyl(a, b) - weyl(p - 2 - b, p - 2 - a)
    return weyl(*gaps)


def type_degree(tau: it.TameTypePresentation) -> int:
    """deg sigma(tau) = prod_{i<=n} (q^i - 1) / prod_c (q^c - 1), q = p^f,
    for c the cycle lengths of s_tau = s_0·s_1 (f <= 2): the degree of the
    Deligne-Lusztig representation of GL_n(F_q) on the torus of type s_tau.
    For f >= 3 the cycle type depends on the order of the factors, which is
    not fixed here."""
    ctx = tau.ctx
    if ctx.f > 2:
        raise InputError("type_degree covers f <= 2")
    q = ctx.require_prime() ** ctx.f
    s = reduce(multiply, tau.s).w
    seen, cycles = set(), []
    for start in range(1, ctx.n + 1):
        i, c = start, 0
        while i not in seen:
            seen.add(i)
            i, c = s[i - 1], c + 1
        if c:
            cycles.append(c)
    return (math.prod(q ** i - 1 for i in range(1, ctx.n + 1))
            // math.prod(q ** c - 1 for c in cycles))


def bm_cycles_recursive(rho, force: bool = False):
    """The cycle solver record by record over the whole of W?, in defect
    order: sigma's cycle is Z_tau minus the solved cycles of the other
    constituents kappa of its auxiliary type tau.  Same output as
    `weight_sets.bm_cycles`; both take every multiplicity to be one."""
    n = rho.n
    if not force and rho.depth() < 2 * n:
        raise GenericityError(f"cycle solver needs a 2n-generic mod-p type, "
                              f"have depth {rho.depth()}")
    zero_lam = ((0,) * n,) * rho.f
    solved = {}
    for rec in sorted(ws.w_question(rho, force=force), key=lambda r: r.defect):
        sigma = rec.presentation
        tau = ws._aux_type(rho, rec)
        expr = {("Z_tau",) + tau.sort_key(): Fraction(1)}
        if rec.defect:
            others = ws.intersection(rho, tau, zero_lam, force=True)
            for kappa in others:
                if kappa == sigma:
                    continue
                if kappa not in solved:
                    raise InternalError(
                        "defect triangularity violated by an auxiliary type")
                for sym, c in solved[kappa][1].terms:
                    expr[sym] = expr.get(sym, 0) - c
            if sigma not in others:
                raise InternalError("maximizer missing from its own intersection")
        solved[sigma] = (rec.defect, ws.CycleExpr.of(expr))
    return solved


def covers_up_oracle(sigma0, sigma) -> bool:
    """The translated-arrow reading of `weight_sets.covers`:
    w' ↑ t_{s(omega - omega')} w for every finite Weyl representative s
    (quantified over all of W)."""
    ws._require_compatible(sigma0, sigma)
    ctx = sigma0.ctx
    for j in range(ctx.f):
        diff = tuple(a - b for a, b in zip(sigma0.omega[j], sigma.omega[j]))
        for s in all_perms(ctx.n):
            t = translation(perm_act(s, diff))
            if not up_leq(sigma.w1[j], multiply(t, sigma0.w1[j])):
                return False
    return True


def series_matrix_product(a, b):
    """a·b for `series.SeriesMatrix` operands over F_p or F_{p^2} (a + b·w
    with w^2 = r, as the pair [a, b]).  The product is known below
    min(lo_a + prec_b, lo_b + prec_a), an exact operand having precision
    infinity, and no term at or above it is kept.  Returns the nonzero
    entries {(i, j): {exponent: coefficient}}, 1-based and in increasing
    exponent order, and the precision (None when exact)."""
    field, n = a.field, a.n
    p, r = field.p, field.r
    prec = min(a.lo + (math.inf if b.prec is None else b.prec),
               b.lo + (math.inf if a.prec is None else a.prec))
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            acc = {}
            for k in range(1, n + 1):
                for e1, c1 in a.entry(i, k).items():
                    for e2, c2 in b.entry(k, j).items():
                        if e1 + e2 >= prec:
                            continue
                        if field.degree == 1:
                            c = [c1 * c2, 0]
                        else:
                            c = [c1[0] * c2[0] + r * c1[1] * c2[1],
                                 c1[0] * c2[1] + c1[1] * c2[0]]
                        old = acc.get(e1 + e2, [0, 0])
                        acc[e1 + e2] = [(old[0] + c[0]) % p,
                                        (old[1] + c[1]) % p]
            entry = {e: c[0] if field.degree == 1 else c
                     for e, c in sorted(acc.items()) if any(c)}
            if entry:
                out[(i, j)] = entry
    return out, None if prec == math.inf else prec


def _fp2_power(c, k, p, r):
    """(a + b·w)^k in F_p[w]/(w^2 - r) for c = [a, b], by repeated squaring."""
    out, sq = [1, 0], list(c)
    while k:
        if k & 1:
            out = [(out[0] * sq[0] + r * out[1] * sq[1]) % p,
                   (out[0] * sq[1] + out[1] * sq[0]) % p]
        sq = [(sq[0] * sq[0] + r * sq[1] * sq[1]) % p, 2 * sq[0] * sq[1] % p]
        k >>= 1
    return out


def series_matrix_frobenius(a, prec=None):
    """a.frobenius(prec) term by term: c·v^e becomes c^p·v^(pe).  A value
    known below P is known below p(P - 1) + 1 afterwards; given `prec`, the
    result is truncated to it: known below the lesser of the two, and no
    term kept at or above that.  Returns the nonzero entries {(i, j):
    {exponent: coefficient}}, lo and the precision (None when exact)."""
    field, p = a.field, a.field.p
    known = math.inf if a.prec is None else p * (a.prec - 1) + 1
    if prec is not None:
        known = min(known, prec)
    cut = math.inf if prec is None else known
    out = {}
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            entry = {p * e: pow(c, p, p) if field.degree == 1
                     else _fp2_power(c, p, p, field.r)
                     for e, c in a.entry(i, j).items() if p * e < cut}
            if entry:
                out[(i, j)] = entry
    return out, p * a.lo, None if known == math.inf else known


def series_matrix_truncate(a, prec):
    """a.truncate(prec): the terms below the lesser of a's precision and
    prec, with lo kept; returned as by `series_matrix_frobenius`."""
    cut = prec if a.prec is None else min(a.prec, prec)
    out = {}
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            entry = {e: c for e, c in a.entry(i, j).items() if e < cut}
            if entry:
                out[(i, j)] = entry
    return out, a.lo, cut


def series_matrix_sum(a, b, sign=1):
    """a + b (sign 1) or a - b (sign -1) term by term: the sum is known below
    the lesser precision, and no term at or above it is kept; lo is the
    lesser lo.  Returned as by `series_matrix_frobenius`."""
    field, p = a.field, a.field.p
    cut = min(math.inf if m.prec is None else m.prec for m in (a, b))
    out = {}
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            acc = {}
            for m, s in ((a, 1), (b, sign)):
                for e, c in m.entry(i, j).items():
                    old = acc.get(e, [0, 0])
                    c = [c, 0] if field.degree == 1 else c
                    acc[e] = [(x + s * y) % p for x, y in zip(old, c)]
            entry = {e: c[0] if field.degree == 1 else c
                     for e, c in sorted(acc.items()) if e < cut and any(c)}
            if entry:
                out[(i, j)] = entry
    return out, min(a.lo, b.lo), None if cut == math.inf else cut


def series_matrix_v_ddv(a):
    """a.v_ddv() term by term: c·v^e becomes e·c·v^e, with lo and the
    precision kept.  Returned as by `series_matrix_frobenius`."""
    field, p = a.field, a.field.p
    out = {}
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            entry = {}
            for e, c in a.entry(i, j).items():
                c = [e * x % p for x in ([c] if field.degree == 1 else c)]
                if any(c):
                    entry[e] = c[0] if field.degree == 1 else c
            if entry:
                out[(i, j)] = entry
    return out, a.lo, a.prec


def oracle(kind: str, *args, **kwargs):
    """Dispatch {length | bruhat | up | enumerate} to the naive implementations."""
    if kind == "length":
        (a,) = args
        return im_length(a)
    if kind == "bruhat":
        a, b = args
        return subword_leq(a, b, kwargs.get("bound"))
    if kind == "up":
        a, b = args
        return chain_up_leq(a, b, kwargs["bound"])
    if kind == "enumerate":
        return enumerate_elements(kwargs["n"], kwargs["deg"], kwargs["bound"])
    raise InputError(f"unknown oracle kind {kind!r}")
