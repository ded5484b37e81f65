"""Computations on the affine flag variety over F_p: affine charts,
Schubert-cell geometry, the first-order monodromy condition, and component
labels with their torus fixed points.  Matrices over F_p[v, v^-1] are the
series kernel's exact `LaurentMatrix`, which only `weyl_matrix` and
`monodromy_solve` build: charts, cells and components load no series.

A point of the open cell attached to a starred element z = t_nu ∘ w (in the
dual group) is z·N with N unipotent supported on the roots

    -alpha  with  floor<z(x0), alpha∨>  >=  ceil<x0, alpha∨> = [alpha>0],

the -alpha entry being v^[alpha>0] f_alpha with deg f_alpha = d_{alpha} =
floor<z(x0),alpha∨> - [alpha>0], read off the integer point n·z(x0) as
<n·z(x0), alpha∨> // n - [alpha>0].  The monodromy condition

    v (dA/dv) A^{-1} + A Diag(a) A^{-1}  ∈  (1/v)·Lie(Iw)

cuts the cell down to an affine space: the coefficients below the top of each
f_alpha are solved triangularly along the height order of the chamber w(Δ)
containing the support, with pivots i + [alpha>0] + <a, alpha∨> - these are
nonzero exactly when a is generic enough mod p, and a vanishing pivot is
reported with its root and index.  A root's band in nabla(N) depends only on
its own coefficients and lower-height roots, so the solver forms nabla(N),
with the kernel's exact inverse of N, once per height level, and checks the
final matrix A = z·N through A^{-1} = N^{-1}·z^{-1}, reusing the last N^{-1}.
"""

from __future__ import annotations

# the order theory of `affine_weyl` serves the components only, the series
# kernel the matrices only: both are reached through the lazy module
from . import affine_weyl as aw
from . import context as cx
from . import inertial_types, weight_sets, weights
from . import series as se
from .group import (
    Record,
    WeylElement,
    alcove_point,
    all_perms,
    all_roots,
    dominant_witness,
    eta_vector,
    finite,
    invert,
    multiply,
    pairing,
    perm_act,
    perm_inverse,
    perm_sign,
    positive_roots,
    star,
    translation,
    w0,
)
from .errors import (
    ArgumentError,
    GenericityError,
    InternalError,
    ZeroDivisorError,
)

__all__ = [
    "ChartTemplate",
    "chart_template",
    "CellGeometry",
    "cell_geometry",
    "required_genericity",
    "monodromy_solve",
    "weyl_matrix",
    "ComponentData",
    "component_data",
    "special_fiber_components",
]


def __getattr__(name):  # perfbench/tracer.py names the Laurent matrices here
    if name in ("LaurentMatrix", "nabla_matrix", "verify_nabla"):
        return getattr(se, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def weyl_matrix(z: WeylElement, p: int) -> se.LaurentMatrix:
    """The loop-group matrix of z = t_nu ∘ w: v^nu · P_w with P_w e_j = e_{w(j)}."""
    return se.LaurentMatrix.from_entries(
        se.Coefficients(p), z.n,
        {(i, j, z.nu[i - 1]): 1 for j, i in enumerate(z.w, 1)})


# ---------------------------------------------------------------------------
# affine charts

class ChartTemplate(Record):
    """Entrywise degree windows of the chart U(z)^{det,<=h}: entry (i,j) is
    v^{prefactor} · sum_{k=lo..hi} c_{ij,k} (v-t)^k with a monic coefficient 1
    at (w(j), j), k = monic_exp; empty when some window cannot reach its
    monic constraint."""

    __slots__ = (
        "n", "h", "w", "nu",
        "prefactor",      # delta_{i>j}
        "window_lo",      # -h everywhere
        "window_hi",      # nu_j - delta_{i>j} - delta_{i<w(j)}
        "monic",          # ((i, j, exp) per column)
        "det_sign", "det_power", "is_empty",
    )

    def to_json(self):
        return {
            "n": self.n, "h": self.h, "w": list(self.w), "nu": list(self.nu),
            "prefactor": [list(r) for r in self.prefactor],
            "window_lo": [list(r) for r in self.window_lo],
            "window_hi": [list(r) for r in self.window_hi],
            "monic": [list(m) for m in self.monic],
            "det": {"sign": self.det_sign, "power": self.det_power},
            "empty": self.is_empty,
        }


def chart_template(z: WeylElement, h: int) -> ChartTemplate:
    """The affine chart attached to z = w t_nu (so nu = w^{-1} of the carrier's
    translation part) at pole bound h."""
    if h < 0:
        raise ArgumentError("pole bound h must be nonnegative")
    n = z.n
    nu = perm_act(perm_inverse(z.w), z.nu)
    pref, lo, hi = [], [], []
    empty = False
    for i in range(1, n + 1):
        prow, lrow, hrow = [], [], []
        for j in range(1, n + 1):
            d_gt = 1 if i > j else 0
            d_lt = 1 if i < z.w[j - 1] else 0
            top = nu[j - 1] - d_gt - d_lt
            prow.append(d_gt)
            lrow.append(-h)
            hrow.append(top)
            if top < -h:
                empty = True
        pref.append(tuple(prow))
        lo.append(tuple(lrow))
        hi.append(tuple(hrow))
    monic = []
    for j in range(1, n + 1):
        i = z.w[j - 1]
        d_gt = 1 if i > j else 0
        monic.append((i, j, nu[j - 1] - d_gt))
    return ChartTemplate(
        n=n, h=h, w=z.w, nu=tuple(nu),
        prefactor=tuple(pref), window_lo=tuple(lo), window_hi=tuple(hi),
        monic=tuple(monic), det_sign=perm_sign(z.w), det_power=sum(nu),
        is_empty=empty)


# ---------------------------------------------------------------------------
# cell geometry and the monodromy condition

class CellGeometry(Record):
    """Support roots of the unipotent part of the cell through z = star(w̃),
    their degree bounds, the dimension, and the chamber witness."""

    __slots__ = (
        "support",        # roots -alpha (as (i,k) pairs) in the support
        "degrees",        # ((alpha, d_alpha) for the criterion roots alpha)
        "dim",
        "critical",       # number of positive alpha with the image alcove in
                          # the critical alpha-strip
        "witness",        # w with w^{-1} w̃ dominant; -support ⊂ w(Phi+)
    )

    def to_json(self):
        return {"support": [list(r) for r in self.support],
                "degrees": [[list(a), d] for a, d in self.degrees],
                "dim": self.dim, "critical": self.critical,
                "witness": list(self.witness)}


def cell_geometry(wt: WeylElement) -> CellGeometry:
    n = wt.n
    y = alcove_point(wt)
    support, degrees = [], []
    for alpha in all_roots(n):
        i, k = alpha
        d = pairing(y, alpha) // n - (i < k)
        if d >= 0:
            support.append((k, i))  # -alpha
            degrees.append((alpha, d))
    critical = sum(1 for r in positive_roots(n) if 0 < pairing(y, r) < n)
    return CellGeometry(
        support=tuple(sorted(support)), degrees=tuple(sorted(degrees)),
        dim=len(support), critical=critical, witness=dominant_witness(wt))


def required_genericity(wt: WeylElement) -> int:
    """The sharp mod-p genericity bound for the monodromy solver: one more
    than the largest degree window."""
    geom = cell_geometry(wt)
    return max((d for _, d in geom.degrees), default=0) + 1


def _height_levels(geom: CellGeometry):
    """The criterion roots grouped by height in the witness chamber's simple
    system, lowest first, each level in lexicographic order of the roots
    moved back to the positive chamber."""
    winv = perm_inverse(geom.witness)
    levels = {}
    for alpha, d in geom.degrees:
        back = (winv[alpha[0] - 1], winv[alpha[1] - 1])
        levels.setdefault(abs(back[0] - back[1]), []).append((back, alpha, d))
    return [[(alpha, d) for _, alpha, d in sorted(levels[ht])]
            for ht in sorted(levels)]


def monodromy_solve(wt: WeylElement, a_bar, free_values=None, *,
                    p: int) -> se.LaurentMatrix:
    """Solve the monodromy condition on the cell through star(wt): returns
    A = star(wt)·N with the below-top coefficients of each support entry
    eliminated along the chamber height order, a level per nabla, the top
    coefficients taken from free_values (default 1).  The first vanishing
    pivot i + [alpha>0] + <a, alpha∨> raises ZeroDivisorError (alpha, i)."""
    field = se.Coefficients(p)
    n = wt.n
    a_bar = tuple(int(x) % p for x in a_bar)
    if len(a_bar) != n:
        raise ArgumentError("a_bar must have length n")
    geom = cell_geometry(wt)
    free = dict(free_values or {})
    for alpha in list(free):
        if tuple(alpha) not in {a for a, _ in geom.degrees}:
            raise ArgumentError(f"free value given for a non-support root {alpha}")
    # N = 1 + the -alpha entries v^[alpha>0] f_alpha, lowest exponent 0; the
    # below-top coefficients of f_alpha start at 0.  Coefficient t of the band
    # of alpha in nabla(N) is pivot_t times that of f_alpha plus products of
    # lower-height roots, so N is rebuilt from `terms` once per height level.
    terms = {(i, i, 0): 1 for i in range(1, n + 1)}
    for (i, k), d in geom.degrees:
        terms[(k, i, d + (i < k))] = int(free.get((i, k), 1))
    N = se.LaurentMatrix.from_entries(field, n, terms)
    Ninv = N.inverse()  # det N = 1: the exact inverse
    nab = se._nabla(N, Ninv, a_bar)
    for level in _height_levels(geom):
        for alpha, d in level:
            i, k = alpha
            delta = 1 if i < k else 0
            pair_a = (a_bar[i - 1] - a_bar[k - 1]) % p
            band = nab.entry(k, i)
            for t in range(d):
                pivot = (t + delta + pair_a) % p
                if pivot == 0:
                    raise ZeroDivisorError(alpha, t)
                terms[(k, i, t + delta)] = (-band.get(t + delta, 0)
                                            * pow(pivot, -1, p) % p)
        N = se.LaurentMatrix.from_entries(field, n, terms)
        Ninv = N.inverse()
        nab = se._nabla(N, Ninv, a_bar)
        # after elimination the sub-top bands of the level must vanish
        if any(nab.entry(k, i).get(e) for (i, k), d in level
               for e in range(i < k, d + (i < k))):
            raise InternalError("triangular elimination failed to clear a band")

    A = weyl_matrix(star(wt), p) * N
    Ainv = Ninv * weyl_matrix(invert(star(wt)), p)
    if (A * Ainv != se.LaurentMatrix.identity(field, n)
            or not se._nabla(A, Ainv, a_bar).shift(1).is_upper_mod_v()):
        raise InternalError("solved matrix fails the monodromy condition")
    return A


# ---------------------------------------------------------------------------
# component labels and torus fixed points

class ComponentData(Record):
    """A component label with its torus fixed-point data as products of
    per-embedding factors, in the order of itertools.product: the bound set
    {star(w̃)·t_omega : w̃ <= w0 w1} always contains the fixed points, the
    obvious set {star(t_omega w w1) : w in W} is always contained in them;
    exactness of the bound set is conditional on a polynomial constraint not
    computed here."""

    __slots__ = (
        "label",          # the weights.SerreWeightPresentation
        "bound",          # per embedding, a sorted tuple of WeylElement
        "obvious",        # per embedding, a sorted tuple of WeylElement
    )


def _fixed_points(row, cache):
    """The bound and obvious factors of a canonical row (w1_j, omega_j),
    sorted by sort_key, computed once per row held in cache."""
    if row not in cache:
        a, omega = row
        t_om = translation(omega)
        bnd = {multiply(star(m), t_om)
               for m in aw.bruhat_interval(multiply(w0(a.n), a))}
        obv = {star(multiply(t_om, multiply(finite(u), a)))
               for u in all_perms(a.n)}
        if not obv <= bnd:
            raise InternalError("obvious fixed points escape the bound set")
        cache[row] = tuple(tuple(sorted(s, key=aw.sort_key)) for s in (bnd, obv))
    return cache[row]


def component_data(w1: cx.WeylTuple, omega, ctx: cx.GroupContext,
                   force: bool = False) -> ComponentData:
    """Fixed-point data of the component labelled by (w1, omega), read off
    the label's canonical (w1, omega): a central t_c commutes with all of it,
    and star(t_{-c} m)·t_{omega+c} = star(m)·t_omega."""
    p = ctx.require_prime()
    label = weights.SerreWeightPresentation(w1, omega, ctx)
    if not label.w1.is_restricted():
        raise ArgumentError("w1 components must be restricted dominant")
    n = ctx.n
    for row in label.omega:
        if not force and not aw.is_generic_element(translation(row), n - 1, p):
            raise GenericityError(
                f"t_omega must be {n - 1}-generic per embedding")
    cache = {}
    bound, obvious = zip(*(_fixed_points(row, cache)
                           for row in zip(label.w1, label.omega)))
    return ComponentData(label=label, bound=bound, obvious=obvious)


def special_fiber_components(ctx: cx.GroupContext, lam,
                             tau: inertial_types.TameTypePresentation,
                             zeta, force: bool = False):
    """Labels of the top-dimensional irreducible components of the special
    fiber attached to (lam, tau): exactly the constituents of the type twisted
    by W(lam - eta), each with its fixed-point data: per embedding, the JH
    rows as (row, bound, obvious), whose product is the components."""
    lam = ctx.weight_tuple(lam, "lambda")
    n = ctx.n
    eta = eta_vector(n)
    for row in lam:
        if any(row[i] <= row[i + 1] for i in range(n - 1)):
            raise ArgumentError(f"lambda row {row} is not regular dominant")
    lam_minus = tuple(tuple(l - e for l, e in zip(row, eta)) for row in lam)
    weight_sets._require_depth(tau, max(2 * n, *map(weight_sets._h, lam)), force, "tau")
    if zeta is not None:
        zt = inertial_types.compatible_zeta(tau, lam_minus)
        if tuple(zeta.zeta) != zt.zeta:
            raise ArgumentError(
                f"tau is not (lambda - eta)-compatible with zeta: {zt.zeta}")
    # the gate above is stronger than that of jh_factors
    cache = {}
    return [[(row,) + _fixed_points(row, cache) for row in rows]
            for rows in weight_sets.jh_factors(tau, lam_minus, force=True)]
