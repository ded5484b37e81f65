"""The Breuil-Kisin gauge calculus on the series kernel of `series`, whose
`Coefficients` and `SeriesMatrix` it serves on first access.

The three operations implemented on top of the arithmetic are the twisted
Frobenius  Y -> Ad(s^{-1} v^{mu+eta})(phi(Y)), the eigenbasis change
A' = I A · Ad(s^{-1} v^{mu+eta})(phi(I'))^{-1}, and the straightening
iteration

    J_{i+1}^{(j)} = X_j A^{(j)} Ad(z_j)(phi(J_i^{(j-1)})) (A^{(j)})^{-1},

which converges v-adically to the unique unipotent-Iwahori tuple I with
X_j A^{(j)} = I^{(j)} A^{(j)} Ad(z_j)(phi(I^{(j-1)})^{-1}), provided the twist
is deep enough relative to the pole bound h of A.  Begun at J_0 = X, the
contraction gives J_i - J_{i-1} = O(v^{p(i-1)}), so stabilisation mod v^M is
reached within M/p + O(1) rounds.

Shape calculus of semisimple Frobenius data is purely combinatorial and lives
at the end of the module.
"""

from __future__ import annotations

# ShapeResult's adm_member is read off the lazy module at the point of call
from . import affine_weyl as aw
from . import inertial_types
from . import series as se  # read at the point of call: shape runs without it
from .context import GroupContext, WeylTuple, weight_depth_base
from .errors import (
    ArgumentError,
    GenericityError,
    InternalError,
    PreconditionError,
)
from .group import (
    Record,
    eta_vector,
    finite,
    multiply,
    perm_act,
    perm_inverse,
    star,
    translation,
)

__all__ = [
    "Coefficients",
    "SeriesMatrix",
    "TwistData",
    "frobenius_twist",
    "change_of_basis",
    "straighten",
    "recover_left_factor",
    "ShapeResult",
    "shape_semisimple",
]


def __getattr__(name):  # perfbench/tracer.py names SeriesMatrix here
    if name in ("Coefficients", "SeriesMatrix"):
        return getattr(se, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# twists

class TwistData(Record):
    """Per-embedding twist elements s_j^{-1} v^{mu_j + eta_j}."""

    __slots__ = ("s", "mu", "ctx")

    def __init__(self, s, mu, ctx):
        mu = ctx.weight_tuple(mu, "mu")
        if any(c.nu != (0,) * ctx.n for c in s):
            raise ArgumentError("twist Weyl parts must be finite")
        super().__init__(s, mu, ctx)

    @classmethod
    def from_dual_element(cls, z: WeylTuple, ctx: GroupContext):
        """Read (s, mu) off z_j = s_j^{-1} t_{mu_j + eta_j}."""
        eta = eta_vector(ctx.n)
        s_parts, mu_rows = [], []
        for g in z:
            s_j = perm_inverse(g.w)
            mupeta = perm_act(perm_inverse(g.w), tuple(g.nu))
            # g = t_nu ∘ w with w = s^{-1}: nu = s^{-1}(mu+eta)
            mu_rows.append(tuple(m - e for m, e in zip(mupeta, eta)))
            s_parts.append(finite(s_j))
        return cls(WeylTuple(tuple(s_parts)), tuple(mu_rows), ctx)

    def depth(self):
        p = self.ctx.require_prime()
        return min(weight_depth_base(row, p) for row in self.mu)

    def dual_element(self) -> WeylTuple:
        """The tuple with components s_j^{-1} t_{mu_j + eta_j}."""
        eta = eta_vector(self.ctx.n)
        comps = []
        for j in range(self.ctx.f):
            t = translation(tuple(m + e for m, e in zip(self.mu[j], eta)))
            comps.append(multiply(finite(perm_inverse(self.s[j].w)), t))
        return WeylTuple(tuple(comps))

    def exponents(self, j):
        eta = eta_vector(self.ctx.n)
        return tuple(m + e for m, e in zip(self.mu[j % self.ctx.f], eta))

    def perm(self, j):
        return perm_inverse(self.s[j % self.ctx.f].w)


def frobenius_twist(Y: se.SeriesMatrix, j: int, twist: TwistData,
                    prec: int | None = None) -> se.SeriesMatrix:
    """Ad(s_j^{-1} v^{mu_j + eta_j})(phi(Y)), truncated at prec when given;
    raises when the result has a genuine pole (insufficient deepness for the
    given input).  Only the part of phi(Y) that lands below max(prec, 0) is
    built, which keeps every negative exponent for the pole check."""
    b = twist.exponents(j)
    target = None if prec is None else max(prec, 0) - (min(b) - max(b))
    out = Y.frobenius(target).ad_monomial(twist.perm(j), b)
    out = out.check_integral(f" in frobenius_twist at embedding {j}")
    return out if prec is None else out.truncate(prec)


def change_of_basis(A, I, twist: TwistData, M: int):
    """A'_j = I_j · A_j · Ad(s_j^{-1} v^{mu_j+eta_j})(phi(I_{j-1}))^{-1} mod v^M.
    Each twist is formed at the inputs' precision and inverted, and I_j, A_j
    cut, where the product mod v^M stops reading them, so M sets the cost."""
    f = twist.ctx.f
    if len(A) != f or len(I) != f:
        raise ArgumentError("need one matrix per embedding")
    prec = min(m._eff_prec() for m in list(A) + list(I))
    M = max(M, 0)
    out = []
    for j in range(f):
        tw = frobenius_twist(I[(j - 1) % f], j, twist, prec)
        tw_inv = tw.inverse(M - I[j].lo - A[j].lo)
        cut = M - tw_inv.lo
        out.append(I[j].truncate(cut - A[j].lo) * A[j].truncate(cut - I[j].lo)
                   * tw_inv)
    return tuple(out)


def straighten(A, X, z: WeylTuple, M: int, h: int | None = None):
    """The unique tuple I in Iw1^J with X_j A_j z_j = I_j A_j z_j phi(I_{j-1})^{-1}
    mod v^M, by the contraction iteration begun at X: from the identity, whose
    twist Ad(z_j)(phi(1)) is 1, a first round only gives X A A^{-1} = X, and
    the fixed point mod v^M is unique.  z_j = s_j^{-1} t_{mu_j + eta_j} with
    mu (h+1)-deep.  h defaults to the least h >= 0 with v^h A_j^{-1} integral
    for every j, the largest pole_order; a smaller h fails.  The result is
    checked against the defining equation: each X_j A_j must equal
    change_of_basis(A, I, ., M)_j mod v^M."""
    if not A or len(A) != len(X):
        raise ArgumentError("need matching tuples of matrices")
    ctx_n = A[0].n
    field = A[0].field
    fcount = len(A)
    ctx = GroupContext(ctx_n, fcount, field.p)
    twist = TwistData.from_dual_element(z, ctx)
    for j, m in enumerate(A):
        if not m.is_zero_mod(0):
            raise ArgumentError(f"A[{j}] is not integral")
    poles = [m.pole_order() for m in A]
    h = max(poles) if h is None else h
    for j, k in enumerate(poles):
        if h < k:
            raise ArgumentError(f"v^h A[{j}]^(-1) is not integral: "
                                "height condition fails")
    if twist.depth() < h + 1:
        raise GenericityError(
            f"twist depth {twist.depth()} < h+1 = {h + 1}: convergence of the "
            "straightening iteration is not guaranteed")
    work = max(M, 0) + 2 * ctx_n * h + 8
    A = [m.truncate(work) for m in A]
    X = [m.truncate(work) for m in X]
    for j, m in enumerate(X):
        if not m.is_iw1():
            raise ArgumentError(f"X[{j}] is not unipotent-Iwahori")
    Ainv = [m.inverse(work) for m in A]
    for j in range(fcount):
        pole = (A[j] * Ainv[j])  # sanity: A A^{-1} = 1 to working precision
        if not pole.equal_mod(se.SeriesMatrix.identity(field, ctx_n), M):
            raise InternalError("inverse lost too much precision")
    XA = [x * a for x, a in zip(X, A)]  # the same in every round
    J = X
    cap = (M + field.p - 1) // field.p + 4
    for _ in range(cap + 1):
        prev = J
        J = [(XA[j] * (frobenius_twist(prev[(j - 1) % fcount], j, twist, work)
                       * Ainv[j])).truncate(work) for j in range(fcount)]
        if all(a.equal_mod(b, M) for a, b in zip(J, prev)):
            break
    else:
        raise InternalError("straightening iteration failed to stabilise")
    out = tuple(m.normalized() for m in J)  # keep the full working precision
    if not all(m.is_iw1() for m in out):
        raise InternalError("straightened factor left Iw1")
    if not all(xa.equal_mod(b, M)
               for xa, b in zip(XA, change_of_basis(A, out, twist, M))):
        raise InternalError("straightening equation fails mod v^M")
    return out


def recover_left_factor(A, I, z: WeylTuple, M: int):
    """The direct map back: X_j = change_of_basis(A, I, ., M + h)_j A_j^{-1}
    mod v^M, where v^h bounds the pole of every A_j^{-1} mod v^M; for M > 0
    and integral A_j, h is the largest pole_order.  I and A must be known
    mod v^(M+h); the factors straighten returns at M + h are."""
    ctx = GroupContext(A[0].n, len(A), A[0].field.p)
    Ainv = [m.inverse(M) for m in A]
    h = max(0, -min(m.lo for m in Ainv))
    moved = change_of_basis(A, I, TwistData.from_dual_element(z, ctx), M + h)
    out = []
    for a, ainv in zip(moved, Ainv):
        x = a * ainv
        if x._eff_prec() < M:
            raise PreconditionError(
                f"inputs carry too little precision to recover mod v^{M}")
        out.append(x.truncate(M))
    return tuple(out)


# ---------------------------------------------------------------------------
# semisimple shape calculus

class ShapeResult(Record):
    """shape = star(w̃(rhobar)) · star(w̃(tau))^{-1}, with the admissibility
    predicates it satisfies."""

    __slots__ = ("shape", "w_rhobar_tau", "ctx")

    def admissible_for(self, lam_rows) -> bool:
        """shape in Adm∨(lam) componentwise: Adm∨ is the star image of Adm
        and star is an involution.  Every row is tested, so a non-dominant
        one raises even after a failed row."""
        return all([aw.adm_member(star(self.shape[j]), lam_rows[j])
                    for j in range(self.ctx.f)])

    def shifted_member(self, lam_plus_eta_rows) -> bool:
        """w̃(rhobar, tau) in Adm(lam + eta) componentwise."""
        return all([aw.adm_member(self.w_rhobar_tau[j], lam_plus_eta_rows[j])
                    for j in range(self.ctx.f)])


def shape_semisimple(rho: inertial_types.TameTypePresentation,
                     tau: inertial_types.TameTypePresentation) -> ShapeResult:
    """Shape calculus for semisimple Frobenius data; sufficient genericity of
    tau is the caller's responsibility (query tau.depth()), not enforced."""
    if rho.ctx.n != tau.ctx.n or rho.ctx.f != tau.ctx.f:
        raise ArgumentError("presentations over different contexts")
    shape = rho.w_tilde_star() * tau.w_tilde_star().inverse()
    wrt = tau.w_tilde().inverse() * rho.w_tilde()
    return ShapeResult(shape=shape, w_rhobar_tau=wrt, ctx=rho.ctx)
