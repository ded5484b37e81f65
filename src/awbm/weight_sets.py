"""Predicted weight sets, Jordan-Hölder labels, covering, defect, and the
Breuil-Mézard cycle solver, on lowest alcove presentations over a fixed
context.  The sets are read off the AP kernel's keys and points as labels
(w, x), x = w2^{-1}(0) for a pair (w, w2), whose row at an embedding with
avatar g is (w, g(x)); as g is a bijection, distinct labels give distinct
rows, which is checked once per label list or table:

  * JH labels of a type tau twisted by W(lam): the pairs of AP(lam+eta), at
    the avatar w̃(tau), its Omega-orbits expanded (`_checked`);
  * the predicted set W?(rhobar) = R(JH(sigma(tau))), tau the type with the
    data of rhobar (Herzig, Duke Math. J. 149 (2009)): R(w1, omega) =
    (w_h w1, omega) makes the pairs (w1, w2) of AP(eta) the labels (w_h w1,
    w2) at the avatar w̃(rhobar), with w2 = w_h w1 exactly on the obvious set;
    one table per rank holds a label per Omega-orbit with its defect summand
    (`_w_question_labels`), whose orbits W? and the intersection expand
    (`_w_question_groups`), and `defect` moves the label (x, w1_j),
    x = w̃(rhobar)_j^{-1}(omega_j), along its orbit to the table's;
  * the intersection with the JH labels of tau is keyed by shape: its labels
    at an embedding depend only on w̃(rhobar, tau)_j and lam_j.

The defect of a predicted weight is len(t_eta) - len(a) for the member
a = w2^{-1} w0 w1 of Adm(eta) that its pair factors, read off a's point; it
vanishes exactly on the obvious weights.  The cycle solver eliminates it: a
weight's cycle is its auxiliary type less the cycles of that type's other
predicted constituents, all of smaller defect.  With multiplicity one the
solve is the product of the one-embedding solves `bm_factors`; the
record-by-record recursion over all of W? is `oracles.bm_cycles_recursive`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .affine_weyl import (
    Record,
    WeylElement,
    _ap_points,
    _check_dominant_weight,
    _checked_pair,
    _factor_point,
    _from_point,
    _orbit,
    _orbit_keys,
    _point,
    _walls,
    adm_member,
    alcove_point,
    bruhat_interval,
    bruhat_leq,
    eta_vector,
    evaluate,
    finite,
    invert,
    is_regular,
    multiply,
    perm_act,
    translation,
    up_leq_points,
    w0,
    w_h,
)
from .context import GroupContext, WeylTuple
from .errors import (
    ArgumentError,
    CompatibilityError,
    GenericityError,
    InternalError,
    MembershipError,
)
from .inertial_types import TameTypePresentation, compatible_zeta
from .weights import SerreWeightPresentation, central_character

__all__ = [
    "CycleExpr",
    "jh_factors",
    "jh_set",
    "w_question",
    "w_question_factors",
    "PredictedWeight",
    "covers",
    "intersection",
    "intersection_factors",
    "w_rhobar_tau",
    "defect",
    "max_defect_weight",
    "bm_factors",
    "bm_cycles",
]


# ---------------------------------------------------------------------------
# formal cycle expressions

class CycleExpr(Record):
    """A formal combination of symbols (type labels or component labels)
    with integer coefficients; zero coefficients are pruned."""

    __slots__ = ("terms",)  # sorted tuple of (symbol tuple, coefficient)

    @classmethod
    def of(cls, mapping):
        return cls.trusted(tuple(sorted((k, v) for k, v in mapping.items() if v)))

    def to_json(self):
        return [[list(k), str(v)] for k, v in self.terms]


# ---------------------------------------------------------------------------
# Jordan-Hölder labels

def _h(lam_row):
    return max(lam_row) - min(lam_row)


def jh_set(tau: TameTypePresentation, lam, force: bool = False):
    """Labels of the constituents of the reduced type twisted by W(lam):
    { (w1, w̃(tau)(w2^{-1}(0))) : (w1, w2) in AP(lam+eta) }, sorted."""
    return [_glue(rows, tau.ctx)
            for rows in itertools.product(*jh_factors(tau, lam, force))]


def jh_factors(tau: TameTypePresentation, lam, force: bool = False):
    """The JH labels' rows (w1_j, omega_j), one tuple per embedding in
    sort-key order, after the genericity check: the labels are their
    product, in the order of itertools.product."""
    ctx = tau.ctx
    eta = eta_vector(ctx.n)
    shifted = [tuple(l + e for l, e in zip(row, eta))
               for row in _weight_tuple(ctx, lam)]
    _require_depth(tau, max(2 * _h(eta), max(map(_h, shifted))), force, "type")
    labels = {row: _checked([(k1, WeylElement.trusted(*k1[1:]), _x(*k2[1:]))
                             for entry in _ap_points(row)
                             for k1, k2 in _orbit_keys(entry)], "JH")
              for row in set(shifted)}  # once per row
    return [tuple(row for row, _ in _rows(wt_j, labels[lam_eta]))
            for wt_j, lam_eta in zip(tau.w_tilde(), shifted)]


def _x(u, nu):
    """w2^{-1}(0) = (-nu_{u(k)})_k for w2 = t_nu ∘ u."""
    return tuple(-nu[i - 1] for i in u)


def _checked(labels, what):
    """Labels (key, w, x, ...), key w's sort key, checked to have max nu(w) = 0
    and to be distinct as (w, x): then their rows at any avatar are canonical
    and distinct, and a product of rows is in the presentations' order."""
    for _, w, *_ in labels:
        if max(w.nu):
            raise InternalError(f"{what} pair {w} is not canonical")
    if len({label[1:3] for label in labels}) != len(labels):
        raise InternalError(f"{what} parametrization failed to be injective")
    return labels


def _rows(wt_j: WeylElement, labels):
    """The rows (w, wt_j(x)) of labels (key, w, x, ...) at an embedding where
    the avatar is wt_j, each with its label, in the order of (key, omega);
    omega is computed once per x."""
    omegas = {x: evaluate(wt_j, x) for x in {label[2] for label in labels}}
    return [((label[1], omega), label) for _, omega, label in
            sorted((label[0], omegas[label[2]], label) for label in labels)]


def _glue(rows, ctx) -> SerreWeightPresentation:
    """The unchecked presentation over ctx whose canonical row j is rows[j]."""
    w1, omega = zip(*rows)
    return SerreWeightPresentation.trusted(WeylTuple.trusted(w1), omega, ctx)


def _require_depth(pres, need: int, force: bool, what: str):
    """Unless forced, pres (a type or a presentation) must be need-deep."""
    if not force and pres.depth() < need:
        raise GenericityError(f"{what} is only {pres.depth()}-generic, need {need}")


def _weight_tuple(ctx, lam):
    lam = ctx.weight_tuple(lam, "lambda")
    for row in lam:
        _check_dominant_weight(row)
    return lam


# ---------------------------------------------------------------------------
# predicted weights

class PredictedWeight(Record):
    """A W?-member with its defining pair: presentation (w, omega) with
    omega = w̃(rhobar)(w2^{-1}(0)) and w2 ↑ w (obvious when w2 = w)."""

    __slots__ = ("presentation", "w", "w2", "obvious", "defect")


def _require_f_type(rho):
    if rho.kind != "F":
        raise ArgumentError("expected a mod-p type (kind 'F')")


def _require_predicted_set(rho: TameTypePresentation, force: bool):
    _require_f_type(rho)
    _require_depth(rho, 2 * _h(eta_vector(rho.ctx.n)), force, "mod-p type")


@lru_cache(maxsize=None)
def _w_question_labels(n: int):
    """One W? label per Omega-orbit at rank n, keyed by (x, y): the points
    y, y2 of (w, w2) and the defect summand d, x = w2^{-1}(0).  They are the
    R-images (w_h w1, w2) of the `_ap_points` entries of AP(eta), w_h =
    w0·t_{-eta}, moved by the central shift that makes max nu(w) zero, and
    d = l(t_eta) - l(a), l(t_eta) = (n-1)n(n+1)/6, for the member a =
    w2^{-1} w0 w1 that the pair factors.  R commutes with AP's Omega-steps,
    right multiplications by omega^{-1}, so `_orbit` on (y, y2) moves a label
    along its orbit, x to omega(x) + c = (x_n + 1 + c, x_1 + c, ..) for the
    step's central shift c, and d is constant, as conjugation keeps length."""
    t_eta = (n - 1) * n * (n + 1) // 6
    entries, table = _ap_points(eta_vector(n)), {}
    for (_, *k1), (_, *k2), a in entries:
        y = [c - n * k for k, c in enumerate(reversed(_point(*k1)))]  # w_h w1
        c = n * (max(y) // n)
        y, y2 = tuple(v - c for v in y), tuple(v - c for v in _point(*k2))
        table[_x(*_from_point(y2)), y] = y, y2, t_eta - _walls(a, 0)
    if len(table) != len(entries):
        raise InternalError("W? parametrization failed to be injective")
    return table


@lru_cache(maxsize=None)
def _w_question_groups(n: int):
    """Every W? label (key, w, x, w2, y, d) at rank n, w with sort key `key`
    and point y, grouped by x: the orbits of `_w_question_labels` expanded.
    Only n! points of w recur, and x fixes w2, so `read` forms each point's
    key, element and x once."""
    @lru_cache(maxsize=None)
    def read(z):
        u, nu = _from_point(z)
        return (_walls(z, 0), u, nu), WeylElement.trusted(u, nu), _x(u, nu)

    groups = {}
    for y, y2, d in _w_question_labels(n).values():
        for z, z2 in _orbit(y, y2):
            (key, w, _), (_, w2, x) = read(z), read(z2)
            groups.setdefault(x, []).append((key, w, x, w2, z, d))
    return groups


def _orbit_label(table, x, y):
    """The entry of `table` on the orbit of the label (x, y), reached by
    moving (x, y) along it as `_w_question_labels` says, or None."""
    for z, _ in _orbit(y, y):
        if (x, z) in table:
            return table[x, z]
        c = (max(z) - 1) // len(z)
        x = (x[-1] + 1 + c, *[v + c for v in x[:-1]])
    return None


def w_question_factors(rho: TameTypePresentation, force: bool = False):
    """The W? factors of a mod-p type, one tuple per embedding of (row, w,
    w2, defect summand) in sort-key order: W? is their product, in the order
    of itertools.product."""
    _require_predicted_set(rho, force)
    labels = [label for group in _w_question_groups(rho.n).values()
              for label in group]
    return [tuple((row, w, w2, d) for row, (_, w, _, w2, _, d) in _rows(g, labels))
            for g in rho.w_tilde()]


def w_question(rho: TameTypePresentation, force: bool = False):
    """The predicted weight set of a mod-p type, with obviousness flags and
    defects, sorted by presentation."""
    return list(_w_question_cached(rho, force))


@lru_cache(maxsize=256)
def _w_question_cached(rho: TameTypePresentation, force: bool):
    out = []
    for combo in itertools.product(*w_question_factors(rho, force)):
        rows, w, w2, defects = zip(*combo)
        out.append(PredictedWeight.trusted(
            _glue(rows, rho.ctx), WeylTuple.trusted(w), WeylTuple.trusted(w2),
            w == w2, sum(defects)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the covering order

def _require_compatible(s0: SerreWeightPresentation, s1: SerreWeightPresentation):
    if s0.ctx != s1.ctx:
        raise ArgumentError("presentations over different contexts")
    if central_character(s0).zeta != central_character(s1).zeta:
        raise CompatibilityError("presentations carry different central characters")


def covers(sigma0: SerreWeightPresentation, sigma: SerreWeightPresentation,
           force: bool = False) -> bool:
    """sigma0 covers sigma, decided by interval containment
    t_{omega'} (interval below w0 w') ⊂ t_omega (interval below w0 w), read
    as t_{omega' - omega} m <= w0 w for each m below w0 w'."""
    _require_compatible(sigma0, sigma)
    ctx = sigma0.ctx
    _require_depth(sigma0, 3 * _h(eta_vector(ctx.n)), force, "upper weight")
    for j in range(ctx.f):
        top = multiply(w0(ctx.n), sigma0.w1[j])
        shift = translation(tuple(
            a - b for a, b in zip(sigma.omega[j], sigma0.omega[j])))
        for m in bruhat_interval(multiply(w0(ctx.n), sigma.w1[j])):
            if not bruhat_leq(multiply(shift, m), top):
                return False
    return True


# ---------------------------------------------------------------------------
# intersections

def w_rhobar_tau(rho: TameTypePresentation, tau: TameTypePresentation) -> WeylTuple:
    """w̃(rhobar, tau) = w̃(tau)^{-1} w̃(rhobar)."""
    return tau.w_tilde().inverse() * rho.w_tilde()


def _require_lambda_compatible(rho, tau, lam):
    zr = compatible_zeta(rho)
    zt = compatible_zeta(tau, lam)
    if zr.zeta != zt.zeta:
        raise CompatibilityError(
            f"no common central character: rhobar gives {zr.zeta}, "
            f"tau gives {zt.zeta}")


def intersection(rho: TameTypePresentation, tau: TameTypePresentation, lam,
                 force: bool = False):
    """W?(rhobar) ∩ JH of the lam-twisted type, through the factorization
    criterion w̃(rhobar,tau) = w2^{-1} w w1 with w1 ↑ w ↑ t_lam w_h^{-1} w2."""
    return [_glue(rows, rho.ctx) for rows in itertools.product(
        *intersection_factors(rho, tau, lam, force))]


def intersection_factors(rho: TameTypePresentation, tau: TameTypePresentation,
                         lam, force: bool = False):
    """The intersection's rows (w1_j, omega_j), one tuple per embedding in
    sort-key order, after the compatibility and genericity checks: the
    intersection is their product, in the order of itertools.product."""
    _require_f_type(rho)
    lam = _weight_tuple(rho.ctx, lam)
    _require_lambda_compatible(rho, tau, lam)
    eta = eta_vector(rho.n)
    _require_depth(rho, 2 * _h(eta), force, "rhobar")
    _require_depth(tau, max(2 * _h(eta), max(_h(tuple(l + e for l, e in zip(row, eta)))
                                             for row in lam)), force, "tau")
    return [tuple(row for row, _ in _rows(wt_j, _accepted_labels(shape, lam_j)))
            for wt_j, shape, lam_j in zip(rho.w_tilde(), w_rhobar_tau(rho, tau), lam)]


@lru_cache(maxsize=1024)
def _accepted_labels(shape: WeylElement, lam_j):
    """The W? labels (key, w, x, ...) with w ↑ t_{lam_j} w_h^{-1} w2', w2' the
    dominant representative of t_{-omega} w̃(tau)_j, omega = w̃(rhobar)_j(x),
    where w̃(rhobar, tau)_j = shape = g^{-1}.  With w̃(rhobar)_j = t_mu ∘ u,
    `_point` gives point(w̃(tau)_j) - n·omega = u(point(g)) + n·mu -
    n·(u(x) + mu) = u(point(g) - n·x), and sorting it for w2' removes u.
    t_{lam_j} w_h^{-1} = t_{lam_j + nu} ∘ v then maps a point z to
    v(z) + n·(lam_j + nu)."""
    n = shape.n
    whinv = invert(w_h(n))
    lift = [n * (l + m) for l, m in zip(lam_j, whinv.nu)]
    base = alcove_point(invert(shape))
    out = []
    for x, labels in _w_question_groups(n).items():
        y = sorted((b - n * c for b, c in zip(base, x)), reverse=True)
        if len({c % n for c in y}) != n:
            raise InternalError("dominant representative failed")
        z = tuple(c + s for c, s in zip(perm_act(whinv.w, y), lift))
        out += [label for label in labels if up_leq_points(label[4], z)]
    return tuple(out)


def defect(rho: TameTypePresentation, sigma: SerreWeightPresentation,
           force: bool = False) -> int:
    """The rhobar-defect of a predicted weight, the sum over the embeddings
    of the summands of its labels (x, w1_j), x = w̃(rhobar)_j^{-1}(omega_j),
    each looked up at its orbit's label; raises if sigma is not predicted."""
    _require_predicted_set(rho, force)
    if sigma.ctx == rho.ctx:
        table = _w_question_labels(rho.n)
        found = [_orbit_label(table, evaluate(invert(g), omega), alcove_point(w1))
                 for g, w1, omega in zip(rho.w_tilde(), sigma.w1, sigma.omega)]
        if None not in found:
            return sum(label[2] for label in found)
    raise MembershipError("sigma does not lie in the predicted set of rhobar")


def max_defect_weight(rho: TameTypePresentation,
                      tau: TameTypePresentation) -> SerreWeightPresentation:
    """The unique defect-maximizing weight of the intersection: factor
    w̃(rhobar,tau) = w2^{-1} w0 w1 with w1 dominant and w2 restricted, and
    return (w_h^{-1} w2, w̃(rhobar)(w1^{-1}(0)))."""
    ctx = rho.ctx
    _require_f_type(rho)
    _require_lambda_compatible(rho, tau, ((0,) * ctx.n,) * ctx.f)
    w, omega = [], []
    for g_j, wt_j in zip(w_rhobar_tau(rho, tau), rho.w_tilde()):
        if not is_regular(g_j):
            raise ArgumentError("w̃(rhobar,tau) is not regular")
        if not adm_member(g_j, eta_vector(ctx.n)):
            raise ArgumentError("w̃(rhobar,tau) is not eta-admissible")
        # g_j^{-1} is regular as g_j is (both are products of dominants), and
        # its factorization w1^{-1} w0 w2 gives g_j = w2^{-1} w0 w1, w0 = w0^{-1}
        y = alcove_point(invert(g_j))
        w2_j, w1_j = _checked_pair(y, *_factor_point(y))
        w.append(multiply(invert(w_h(ctx.n)), WeylElement.trusted(*w2_j)))
        omega.append(evaluate(wt_j, _x(*w1_j)))
    return SerreWeightPresentation(WeylTuple(w), omega, ctx)


# ---------------------------------------------------------------------------
# the cycle solver

def _aux_type_from_element(ctx, wt: WeylTuple) -> TameTypePresentation:
    """Read a presentation (s, mu) off a tuple of elements t_{mu+eta} s."""
    eta = eta_vector(ctx.n)
    return TameTypePresentation(
        WeylTuple(tuple(finite(g.w) for g in wt)),
        tuple(tuple(c - e for c, e in zip(g.nu, eta)) for g in wt), ctx)


def _aux_type(rho: TameTypePresentation, rec: PredictedWeight):
    """The auxiliary type with w̃(tau) = w̃(rhobar) · w2^{-1} w0 w_h w: then
    w̃(rhobar, tau) = (w_h w)^{-1} w0 w2 is the regular eta-admissible element
    whose defect maximizer is sigma itself."""
    n = rho.n
    return _aux_type_from_element(rho.ctx, WeylTuple(tuple(
        multiply(g, multiply(invert(w2), multiply(w0(n), multiply(w_h(n), w))))
        for g, w, w2 in zip(rho.w_tilde(), rec.w, rec.w2))))


def bm_factors(rho: TameTypePresentation, force: bool = False):
    """After the check of rhobar, the items of bm_cycles on each embedding's
    one-embedding type: the cycles are their product, in the order of
    itertools.product, whose rows glue, defects add and coefficients multiply."""
    _require_f_type(rho)
    _require_depth(rho, 2 * rho.n, force, "mod-p type")
    one = GroupContext(rho.n, 1, rho.ctx.p)
    return [tuple(bm_cycles(TameTypePresentation(WeylTuple((s_j,)), (mu_j,), one, "F"),
                            force=True).items())
            for s_j, mu_j in zip(rho.s, rho.mu)]


def bm_cycles(rho: TameTypePresentation, force: bool = False):
    """For each predicted weight sigma of rhobar, its cycle as a combination
    of auxiliary type symbols ("Z_tau", (s_0, mu_0), ...), returned as
    {presentation: (defect, CycleExpr)} in W? order.  A forced one-embedding
    type is solved in defect order: a weight's cycle is its auxiliary type
    minus the cycles of that type's other constituents, which have smaller
    defect.  Any other is the product of bm_factors, which checks rhobar."""
    if rho.ctx.f > 1 or not force:
        solved = {}
        for combo in itertools.product(*bm_factors(rho, force)):
            sigmas, solves = zip(*combo)
            terms = {("Z_tau",) + tuple(s for (_, s), _ in parts):
                     math.prod(c for _, c in parts)
                     for parts in itertools.product(*(e.terms for _, e in solves))}
            sigma = _glue([(s.w1[0], s.omega[0]) for s in sigmas], rho.ctx)
            solved[sigma] = (sum(d for d, _ in solves), CycleExpr.of(terms))
        return solved
    records = w_question(rho, force=True)
    solved = {}
    for rec in sorted(records, key=lambda r: r.defect):
        sigma = rec.presentation
        tau = _aux_type(rho, rec)
        expr = {("Z_tau",) + tau.sort_key(): 1}
        if rec.defect:
            others = intersection(rho, tau, ((0,) * rho.n,), force=True)
            if sigma not in others:
                raise InternalError("maximizer missing from its own intersection")
            for kappa in others:
                if kappa == sigma:
                    continue
                if kappa not in solved or solved[kappa][0] >= rec.defect:
                    raise InternalError(
                        "defect triangularity violated by an auxiliary type")
                for sym, c in solved[kappa][1].terms:
                    expr[sym] = expr.get(sym, 0) - c
        solved[sigma] = (rec.defect, CycleExpr.of(expr))
    return {rec.presentation: solved[rec.presentation] for rec in records}
