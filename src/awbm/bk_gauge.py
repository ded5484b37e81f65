"""The exact matrix kernel over F_q[v, v^-1] and the gauge calculus on it.

`SeriesMatrix` holds an n x n matrix of Laurent series over F_q truncated at
a tracked precision: a value is known exactly for all exponents below `prec`,
and prec = None means the stored Laurent polynomial is exact.  The flag layer
(`modp_flag`) computes on exact matrices over F_p; the gauge layer below
computes on truncated ones.  The coefficient field is F_p or F_{p^2};
Frobenius acts coefficientwise by x -> x^p and on the variable by v -> v^p.
Inverses come from the adjugate, the only permutation expansion outside the
oracles, and the determinant is read off its first column.

The three operations implemented on top of the arithmetic are the twisted
Frobenius  Y -> Ad(s^{-1} v^{mu+eta})(phi(Y)), the eigenbasis change
A' = I A · Ad(s^{-1} v^{mu+eta})(phi(I'))^{-1}, and the straightening
iteration

    J_{i+1}^{(j)} = X_j A^{(j)} Ad(z_j)(phi(J_i^{(j-1)})) (A^{(j)})^{-1},

which converges v-adically to the unique unipotent-Iwahori tuple I with
X_j A^{(j)} = I^{(j)} A^{(j)} Ad(z_j)(phi(I^{(j-1)})^{-1}), provided the twist
is deep enough relative to the pole bound h of A.  The contraction gives
J_i - J_{i-1} = O(v^{p(i-2)}), so stabilisation mod v^M is reached within
M/p + O(1) rounds.

Shape calculus of semisimple Frobenius data is purely combinatorial and lives
at the end of the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .affine_weyl import (
    GroupContext,
    WeylTuple,
    adm_member,
    check_prime,
    eta_vector,
    finite,
    multiply,
    perm_act,
    perm_inverse,
    perm_sign,
    star,
    translation,
)
from .errors import (
    ArgumentError,
    CapacityError,
    ContextError,
    GenericityError,
    InputError,
    IntegralityError,
    InternalError,
    PreconditionError,
)
from .inertial_types import TameTypePresentation
from .weights import weight_depth_base

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


# ---------------------------------------------------------------------------
# coefficient fields F_p and F_{p^2}

class Coefficients:
    """F_p (degree 1) or F_{p^2} = F_p[w]/(w^2 - r) (degree 2, r the least
    quadratic non-residue); series over the field are arrays of shape
    (degree, length).  Arrays hold int64 while a product of two residues
    (times 1 + r) fits in it and Python ints (dtype object) beyond; a sum of
    L such products is formed over Python ints once it could leave int64."""

    def __init__(self, p: int, degree: int = 1):
        if degree not in (1, 2):
            raise ArgumentError("only degree 1 and 2 coefficient fields")
        check_prime(p)
        if degree == 2 and p == 2:
            raise ArgumentError("the quadratic extension needs an odd prime")
        self.p = p
        self.degree = degree
        self.r = None
        if degree == 2:
            for cand in range(2, p):
                if pow(cand, (p - 1) // 2, p) == p - 1:
                    self.r = cand
                    break
            if self.r is None:
                raise InternalError("no quadratic non-residue found")
        self.dtype = np.int64 if self.fits(1) else object

    def __eq__(self, other):
        return (isinstance(other, Coefficients) and self.p == other.p
                and self.degree == other.degree)

    def fits(self, terms):
        """Whether a sum of `terms` products of residues stays in int64."""
        return terms * (self.p - 1) ** 2 * (1 + (self.r or 0)) < 2 ** 63

    def zeros(self, *shape):
        return np.zeros(shape, dtype=self.dtype)

    def conv(self, a, b):
        p = self.p
        if not self.fits(min(a.shape[1], b.shape[1])):
            a, b = a.astype(object, copy=False), b.astype(object, copy=False)
        if self.degree == 1:
            out = (np.convolve(a[0], b[0]) % p)[None, :]
        else:
            c0 = (np.convolve(a[0], b[0]) + self.r * np.convolve(a[1], b[1])) % p
            c1 = (np.convolve(a[0], b[1]) + np.convolve(a[1], b[0])) % p
            out = np.stack([c0, c1])
        return out.astype(self.dtype, copy=False)

    def inv_scalar(self, c):
        p = self.p
        if self.degree == 1:
            if c[0] % p == 0:
                raise ArgumentError("inverting zero")
            return np.array([pow(int(c[0]), -1, p)], dtype=self.dtype)
        a, b = int(c[0]) % p, int(c[1]) % p
        nrm = (a * a - self.r * b * b) % p
        if nrm == 0:
            raise ArgumentError("inverting zero")
        ninv = pow(nrm, -1, p)
        return np.array([a * ninv % p, (-b) * ninv % p], dtype=self.dtype)

    def mul_scalar(self, c1, c2):
        p = self.p
        if self.degree == 1:
            return np.array([int(c1[0]) * int(c2[0]) % p], dtype=self.dtype)
        a = (int(c1[0]) * int(c2[0]) + self.r * int(c1[1]) * int(c2[1])) % p
        b = (int(c1[0]) * int(c2[1]) + int(c1[1]) * int(c2[0])) % p
        return np.array([a, b], dtype=self.dtype)

    def rand_scalar(self, rng, nonzero=False):
        while True:
            c = np.array([rng.randrange(self.p) for _ in range(self.degree)],
                         dtype=self.dtype)
            if not nonzero or c.any():
                return c


# ---------------------------------------------------------------------------
# series matrices

_BIG = 10 ** 9  # stand-in precision for exact values

# The most coefficient slots, n^2 * degree * exponent span, that a matrix read
# from JSON may occupy: storage is dense in the span, so `from_json` refuses a
# wider input before it allocates.  The largest of the benchmark and the tests
# is 3,600 (straightened n = 3 tuples at M = 400).
MAX_COEFFS = 10 ** 5


@dataclass
class SeriesMatrix:
    """n x n matrix of truncated Laurent series: coeffs has shape
    (n, n, degree, L) covering exponents [lo, lo+L); entries are exact below
    prec (prec=None: exact everywhere, stored support finite).  Results keep
    the class of the left operand."""

    field: Coefficients
    n: int
    lo: int
    coeffs: np.ndarray
    prec: int | None = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, field, n, lo=0, length=1, prec=None):
        return cls(field, n, lo, field.zeros(n, n, field.degree, length), prec)

    @classmethod
    def identity(cls, field, n, prec=None):
        out = cls.zero(field, n, 0, 1, prec)
        for i in range(n):
            out.coeffs[i, i, 0, 0] = 1
        return out

    @classmethod
    def from_entries(cls, field, n, entries, prec=None):
        """entries: dict (i, j, exp) -> scalar array or int."""
        if entries:
            lo = min(e for _, _, e in entries)
            hi = max(e for _, _, e in entries)
        else:
            lo, hi = 0, 0
        out = cls.zero(field, n, lo, hi - lo + 1, prec)
        for (i, j, e), c in entries.items():
            if isinstance(c, (int, np.integer)):
                out.coeffs[i - 1, j - 1, 0, e - lo] = int(c) % field.p
            else:
                out.coeffs[i - 1, j - 1, :, e - lo] = np.asarray(c) % field.p
        return out

    def _new(self, lo, coeffs, prec=None):
        return type(self)(self.field, self.n, lo, coeffs, prec)

    # -- bookkeeping -------------------------------------------------------
    @property
    def hi(self):
        return self.lo + self.coeffs.shape[3]

    def _eff_prec(self):
        return _BIG if self.prec is None else self.prec

    def window(self, lo, hi):
        """Coefficients re-windowed onto exponents [lo, hi); empty when
        hi <= lo."""
        out = self.field.zeros(self.n, self.n, self.field.degree,
                               max(hi - lo, 0))
        src_lo = max(self.lo, lo)
        src_hi = min(self.hi, hi)
        if src_lo < src_hi:
            out[..., src_lo - lo:src_hi - lo] = \
                self.coeffs[..., src_lo - self.lo:src_hi - self.lo]
        return out

    def truncate(self, prec):
        new_prec = min(self._eff_prec(), prec)
        hi = min(self.hi, new_prec)
        hi = max(hi, self.lo)
        return self._new(self.lo, self.window(self.lo, hi),
                         None if new_prec >= _BIG else new_prec)

    def normalized(self):
        """Strip known-zero leading columns (raise lo)."""
        arr = self.coeffs
        L = arr.shape[3]
        k = 0
        while k < L - 1 and not arr[..., k].any():
            k += 1
        if k == 0:
            return self
        return self._new(self.lo + k, arr[..., k:], self.prec)

    def entry(self, i, j):
        """Entry (i, j), 1-based, as {exponent: coefficient} over its nonzero
        terms; a coefficient is an int, or an [a, b] pair over F_{p^2}."""
        out = {}
        for t in range(self.coeffs.shape[3]):
            c = self.coeffs[i - 1, j - 1, :, t]
            if c.any():
                out[self.lo + t] = (int(c[0]) if self.field.degree == 1
                                    else [int(x) for x in c])
        return out

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        return (self.field == other.field and self.n == other.n
                and self.prec == other.prec
                and np.array_equal(self.window(lo, hi), other.window(lo, hi)))

    # -- arithmetic --------------------------------------------------------
    def _check_operand(self, other):
        if self.field != other.field or self.n != other.n:
            raise ContextError(
                f"operands differ: n={self.n} over F_{self.field.p}^"
                f"{self.field.degree} against n={other.n} over "
                f"F_{other.field.p}^{other.field.degree}")

    def _align(self, other):
        self._check_operand(other)
        lo = min(self.lo, other.lo)
        prec = min(self._eff_prec(), other._eff_prec())
        hi = max(self.hi, other.hi)
        if prec < _BIG:
            hi = min(max(hi, lo + 1), max(prec, lo + 1))
        return lo, hi, prec

    def __add__(self, other):
        lo, hi, prec = self._align(other)
        arr = (self.window(lo, hi) + other.window(lo, hi)) % self.field.p
        return self._new(lo, arr, None if prec >= _BIG else prec)

    def __sub__(self, other):
        lo, hi, prec = self._align(other)
        arr = (self.window(lo, hi) - other.window(lo, hi)) % self.field.p
        return self._new(lo, arr, None if prec >= _BIG else prec)

    def __mul__(self, other):
        self._check_operand(other)
        f = self.field
        n = self.n
        lo = self.lo + other.lo
        if self.prec is None and other.prec is None:
            prec = _BIG
        else:
            prec = min(self.lo + other._eff_prec(), other.lo + self._eff_prec())
        La, Lb = self.coeffs.shape[3], other.coeffs.shape[3]
        out = f.zeros(n, n, f.degree, La + Lb - 1)
        for i in range(n):
            for j in range(n):
                acc = None
                for k in range(n):
                    a = self.coeffs[i, k]
                    b = other.coeffs[k, j]
                    if not a.any() or not b.any():
                        continue
                    c = f.conv(a, b)
                    acc = c if acc is None else (acc + c) % f.p
                if acc is not None:
                    out[i, j, :, :acc.shape[1]] = acc
        m = self._new(lo, out, None if prec >= _BIG else prec)
        return m.truncate(prec) if prec < _BIG else m

    def scalar_mul(self, c):
        f = self.field
        arr = self.coeffs
        out = np.zeros_like(arr)
        cs = np.asarray(c, dtype=f.dtype).reshape(f.degree, 1)
        if f.degree == 1:
            out = arr * cs[0, 0] % f.p
        else:
            out[:, :, 0] = (arr[:, :, 0] * cs[0, 0]
                            + f.r * arr[:, :, 1] * cs[1, 0]) % f.p
            out[:, :, 1] = (arr[:, :, 0] * cs[1, 0]
                            + arr[:, :, 1] * cs[0, 0]) % f.p
        return self._new(self.lo, out, self.prec)

    def shift(self, k):
        return self._new(self.lo + k, self.coeffs,
                         None if self.prec is None else self.prec + k)

    def v_ddv(self):
        """v d/dv: the coefficient of v^e is multiplied by e."""
        p = self.field.p
        exps = np.array([e % p for e in range(self.lo, self.hi)],
                        dtype=self.field.dtype)
        return self._new(self.lo, self.coeffs * exps % p, self.prec)

    # -- Frobenius and twists ----------------------------------------------
    def frobenius(self, prec=None):
        """v -> v^p and coefficientwise x -> x^p; a value known below prec is
        known below p(prec-1)+1 afterwards.  Given `prec`, the result is
        truncated there and only the columns landing below it are spread."""
        f = self.field
        p = f.p
        lo = p * self.lo
        L = (self.coeffs.shape[3] - 1) * p + 1
        if prec is not None:
            L = max(min(L, prec - lo), 0)
        out = f.zeros(self.n, self.n, f.degree, L)
        out[..., ::p] = self.coeffs[..., :-(-L // p)]
        if f.degree == 2:
            out[:, :, 1] = (-out[:, :, 1]) % p
        m = self._new(lo, out, None if self.prec is None
                      else p * (self.prec - 1) + 1)
        return m if prec is None else m.truncate(prec)

    def ad_monomial(self, w, bvec):
        """Ad(P_w · v^b): entry (i,k) lands at (w(i), w(k)) shifted by
        b_i - b_k."""
        n = self.n
        shifts = [[bvec[i] - bvec[k] for k in range(n)] for i in range(n)]
        smin = min(min(r) for r in shifts)
        smax = max(max(r) for r in shifts)
        L = self.coeffs.shape[3]
        out = self.field.zeros(n, n, self.field.degree, L + smax - smin)
        for i in range(n):
            for k in range(n):
                off = shifts[i][k] - smin
                out[w[i] - 1, w[k] - 1, :, off:off + L] = self.coeffs[i, k]
        prec = None if self.prec is None else self.prec + smin
        return self._new(self.lo + smin, out, prec)

    # -- predicates ----------------------------------------------------------
    def is_zero_mod(self, M):
        lo = self.lo
        hi = min(self.hi, M)
        if hi <= lo:
            return True
        return not self.window(lo, hi).any()

    def equal_mod(self, other, M):
        if self._eff_prec() < M or other._eff_prec() < M:
            raise PreconditionError(
                f"comparison mod v^{M} exceeds the known precision")
        return (self - other).is_zero_mod(M)

    def check_integral(self, context=""):
        if self.lo >= 0:
            return self
        bad = self.window(self.lo, 0)
        if bad.any():
            idx = np.argwhere(bad.any(axis=2))
            i, j = idx[0][0] + 1, idx[0][1] + 1
            raise IntegralityError(
                f"negative-exponent residue at entry ({i},{j}){context}")
        return self.normalized()

    def const_term(self):
        """The n x n matrix of v^0 coefficients (scalar arrays)."""
        arr = self.window(0, 1)[..., 0]
        return arr

    def is_upper_mod_v(self):
        """Integral and upper triangular mod v."""
        if self.lo < 0 and self.window(self.lo, 0).any():
            return False
        c0 = self.const_term()
        return not any(c0[i, j].any() for i in range(self.n) for j in range(i))

    def is_iwahori(self):
        """Integral, invertible, upper triangular mod v."""
        c0 = self.const_term()
        return self.is_upper_mod_v() and all(c0[i, i].any()
                                             for i in range(self.n))

    def is_iw1(self):
        """Unipotent upper triangular mod v."""
        if not self.is_iwahori():
            return False
        c0 = self.const_term()
        for i in range(self.n):
            d = c0[i, i].copy()
            d[0] = (d[0] - 1) % self.field.p
            if d.any():
                return False
        return True

    # -- inversion -----------------------------------------------------------
    def inverse(self, prec=None):
        """A^{-1} from the adjugate.  With prec=None on an exact matrix the
        inverse is exact and det A must be a unit times a power of v;
        otherwise it is known to precision prec, and det A must be a unit
        times a power of v within the known window."""
        f = self.field
        n = self.n
        adj = self._adjugate()
        det = self._det(adj)
        support = np.flatnonzero(det.any(axis=0))
        if not support.size:
            raise ArgumentError("matrix is not invertible (zero determinant)")
        val = int(support[0])
        det_lo = n * self.lo + val
        unit = det[:, val:]
        if prec is None:
            if self.prec is not None:
                raise ArgumentError("an exact inverse needs an exact matrix")
            if support.size > 1:
                raise ArgumentError(
                    "matrix determinant is not a unit times a power of v")
            return adj.scalar_mul(f.inv_scalar(unit[:, 0])).shift(-det_lo)
        eff = self._eff_prec()
        out_prec = prec if self.prec is None else min(prec, eff - 2 * max(det_lo, 0))
        need = max(out_prec - (-det_lo) - (n - 1) * self.lo, 1) + 4
        uinv = _invert_unit(f, unit, need)
        inv = _mul_entrywise_series(adj, uinv, f).shift(-det_lo)
        inv.prec = out_prec
        return inv.truncate(out_prec).normalized()

    def _det(self, adj):
        """det A = sum_k A[0,k]·adj[k,0], adj the adjugate of A, as one
        series array over the exponents [n·lo, n·lo + n(L-1) + 1)."""
        f = self.field
        acc = f.zeros(f.degree, self.n * (self.coeffs.shape[3] - 1) + 1)
        for k in range(self.n):
            term = f.conv(self.coeffs[0, k], adj.coeffs[k, 0])
            acc[:, :term.shape[1]] = (acc[:, :term.shape[1]] + term) % f.p
        return acc

    def _adjugate(self):
        f = self.field
        n = self.n
        if n == 1:
            return type(self).identity(f, 1)
        Ls = (n - 1) * (self.coeffs.shape[3] - 1) + 1
        out = f.zeros(n, n, f.degree, Ls)
        for i in range(n):
            for j in range(n):
                rows = [r for r in range(n) if r != j]
                cols = [c for c in range(n) if c != i]
                acc = f.zeros(f.degree, Ls)
                for perm in itertools.permutations(range(n - 1)):
                    sign = perm_sign(perm)
                    term = None
                    for a, row in enumerate(rows):
                        arr = self.coeffs[row, cols[perm[a]]]
                        term = arr if term is None else f.conv(term, arr)
                    if term.shape[1] < Ls:
                        term = np.pad(term, ((0, 0), (0, Ls - term.shape[1])))
                    acc = (acc + sign * ((-1) ** (i + j)) * term[:, :Ls]) % f.p
                out[i, j] = acc
        return self._new((n - 1) * self.lo, out)

    # -- encoding ------------------------------------------------------------
    def to_json(self):
        ent = [[{str(e): c for e, c in self.entry(i, j).items()}
                for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]
        return {"p": self.field.p, "degree": self.field.degree,
                "precision": self.prec, "entries": ent}

    @classmethod
    def from_json(cls, data):
        try:
            field = Coefficients(int(data["p"]), int(data.get("degree", 1)))
            rows = data["entries"]
            n = len(rows)
            if any(len(row) != n for row in rows):
                raise InputError(f"matrix is not square: {data!r}")
            entries = {}
            for i, row in enumerate(rows):
                for j, cell in enumerate(row):
                    for e, c in cell.items():
                        entries[(i + 1, j + 1, int(e))] = (
                            np.array(c) if isinstance(c, list) else int(c))
            exps = [e for *_, e in entries] or [0]
            size = n * n * field.degree * (max(exps) - min(exps) + 1)
            if size > MAX_COEFFS:
                raise CapacityError(
                    f"series matrix spans {size} coefficients, over the "
                    f"limit MAX_COEFFS = {MAX_COEFFS}")
            prec = data.get("precision")
            return cls.from_entries(field, n, entries,
                                    None if prec is None else int(prec))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"bad series-matrix encoding: {data!r}") from exc


def _invert_unit(field, unit, length):
    """Inverse of a unit power series (array of shape (d, L)) to `length`."""
    d = field.degree
    p = field.p
    L = min(unit.shape[1], length)
    dtype = field.dtype if field.fits(L) else object
    out = np.zeros((d, length), dtype=dtype)
    c0inv = field.inv_scalar(unit[:, 0])
    out[:, 0] = c0inv
    if d == 1:
        u = unit[0].astype(dtype)
        w = out[0]
        inv0 = int(c0inv[0])
        for t in range(1, length):
            s_hi = min(t, L - 1)
            acc = int(np.dot(u[1:s_hi + 1], w[t - s_hi:t][::-1])) if s_hi else 0
            w[t] = (-inv0 * acc) % p
        return out.astype(field.dtype, copy=False)
    for t in range(1, length):
        acc = field.zeros(d)
        for s in range(1, min(t, L - 1) + 1):
            acc = (acc + field.mul_scalar(unit[:, s], out[:, t - s])) % p
        out[:, t] = (-field.mul_scalar(c0inv, acc)) % p
    return out.astype(field.dtype, copy=False)


def _mul_entrywise_series(m: SeriesMatrix, series, field):
    n = m.n
    out = field.zeros(n, n, field.degree, m.coeffs.shape[3] + series.shape[1] - 1)
    for i in range(n):
        for j in range(n):
            if m.coeffs[i, j].any():
                c = field.conv(m.coeffs[i, j], series)
                out[i, j, :, :c.shape[1]] = c
    return m._new(m.lo, out)


# ---------------------------------------------------------------------------
# twists

@dataclass(frozen=True)
class TwistData:
    """Per-embedding twist elements s_j^{-1} v^{mu_j + eta_j}."""

    s: WeylTuple
    mu: tuple
    ctx: GroupContext

    def __post_init__(self):
        mu = tuple(tuple(int(x) for x in row) for row in self.mu)
        if len(mu) != self.ctx.f or any(len(r) != self.ctx.n for r in mu):
            raise ArgumentError("mu must be an f-tuple of length-n rows")
        if any(c.nu != (0,) * self.ctx.n for c in self.s):
            raise ArgumentError("twist Weyl parts must be finite")
        object.__setattr__(self, "mu", mu)

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


def frobenius_twist(Y: SeriesMatrix, j: int, twist: TwistData,
                    prec: int | None = None) -> SeriesMatrix:
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
    The working precision starts at M + 8 and doubles, up to the inputs'
    precision, until the inverse of the twist sees a unit of its determinant
    and the product is known mod v^M."""
    f = twist.ctx.f
    if len(A) != f or len(I) != f:
        raise ArgumentError("need one matrix per embedding")
    prec = min(m._eff_prec() for m in list(A) + list(I))
    out = []
    for j in range(f):
        work = min(max(M, 0) + 8, prec)
        while True:
            tw = frobenius_twist(I[(j - 1) % f], j, twist, work)
            try:
                a = I[j] * A[j] * tw.inverse(work)
                if a._eff_prec() >= M or work == prec:
                    break
            except ArgumentError:  # no unit of det tw below the working precision
                if tw.hi < work or work == prec:  # nothing was cut off
                    raise
            work = min(2 * work, prec)
        out.append(a)
    return tuple(out)


def straighten(A, X, z: WeylTuple, M: int, h: int | None = None):
    """The unique tuple I in Iw1^J with X_j A_j z_j = I_j A_j z_j phi(I_{j-1})^{-1}
    mod v^M, by the contraction iteration; z_j = s_j^{-1} t_{mu_j + eta_j} with
    mu (h+1)-deep."""
    if not A or len(A) != len(X):
        raise ArgumentError("need matching tuples of matrices")
    ctx_n = A[0].n
    field = A[0].field
    fcount = len(A)
    ctx = GroupContext(ctx_n, fcount, field.p)
    twist = TwistData.from_dual_element(z, ctx)
    if h is None:
        h = max(0, -min(m.lo for m in A))
    for j, m in enumerate(A):
        if m.lo < 0 and m.window(m.lo, 0).any():
            raise ArgumentError(f"A[{j}] is not integral")
    if twist.depth() < h + 1:
        raise GenericityError(
            f"twist depth {twist.depth()} < h+1 = {h + 1}: convergence of the "
            "straightening iteration is not guaranteed")
    work = M + 2 * ctx_n * h + 8
    A = [m.truncate(work) for m in A]
    X = [m.truncate(work) for m in X]
    for j, m in enumerate(X):
        if not m.is_iw1():
            raise ArgumentError(f"X[{j}] is not unipotent-Iwahori")
    Ainv = [m.inverse(work) for m in A]
    for j in range(fcount):
        pole = (A[j] * Ainv[j])  # sanity: A A^{-1} = 1 to working precision
        if not pole.equal_mod(SeriesMatrix.identity(field, ctx_n), M):
            raise InternalError("inverse lost too much precision")
        test = Ainv[j].shift(h)
        if test.lo < 0 and test.window(test.lo, 0).any():
            raise ArgumentError(f"v^{h} A[{j}]^(-1) is not integral: "
                                "height condition fails")
    J = [SeriesMatrix.identity(field, ctx_n) for _ in range(fcount)]
    cap = (M + field.p - 1) // field.p + 4
    for _ in range(cap + 1):
        Jn = []
        for j in range(fcount):
            tw = frobenius_twist(J[(j - 1) % fcount], j, twist, work)
            Jn.append((X[j] * A[j] * tw * Ainv[j]).truncate(work))
        if all(Jn[j].equal_mod(J[j], M) for j in range(fcount)):
            J = Jn
            break
        J = Jn
    else:
        raise InternalError("straightening iteration failed to stabilise")
    out = []
    for j in range(fcount):
        Ij = J[j].normalized()  # keep the full certified working precision
        if Ij._eff_prec() < M:
            raise PreconditionError(
                "inputs carry too little precision to certify the result "
                f"mod v^{M}; supply exact matrices or precision >= {work}")
        if not Ij.is_iw1():
            raise InternalError("straightened factor left Iw1")
        out.append(Ij)
    # defining equation mod v^M
    for j in range(fcount):
        tw = frobenius_twist(out[(j - 1) % fcount], j, twist, work)
        rhs = out[j] * A[j] * tw.inverse(work)
        lhs = X[j] * A[j]
        if not lhs.equal_mod(rhs, M):
            raise InternalError("straightening equation fails mod v^M")
    return tuple(out)


def recover_left_factor(A, I, z: WeylTuple, M: int):
    """The direct map back: X_j = (I_j A_j Ad(z_j)(phi(I_{j-1}))^{-1}) A_j^{-1},
    truncated mod v^M; the factors I must carry enough precision headroom
    (as returned by straighten)."""
    fcount = len(A)
    field = A[0].field
    ctx = GroupContext(A[0].n, fcount, field.p)
    twist = TwistData.from_dual_element(z, ctx)
    work = M + 2 * A[0].n * 8 + 8
    out = []
    Ainv = [m.inverse(work) for m in A]
    for j in range(fcount):
        tw = frobenius_twist(I[(j - 1) % fcount], j, twist, work)
        x = I[j] * A[j] * tw.inverse(work) * Ainv[j]
        if x._eff_prec() < M:
            raise PreconditionError(
                f"inputs carry too little precision to recover mod v^{M}")
        out.append(x.truncate(M))
    return tuple(out)


# ---------------------------------------------------------------------------
# semisimple shape calculus

@dataclass(frozen=True)
class ShapeResult:
    """shape = star(w̃(rhobar)) · star(w̃(tau))^{-1}, with the admissibility
    predicates it satisfies."""

    shape: WeylTuple
    w_rhobar_tau: WeylTuple
    ctx: GroupContext

    def admissible_for(self, lam_rows) -> bool:
        """shape in Adm∨(lam) componentwise: Adm∨ is the star image of Adm
        and star is an involution.  Every row is tested, so a non-dominant
        one raises even after a failed row."""
        return all([adm_member(star(self.shape[j]), lam_rows[j])
                    for j in range(self.ctx.f)])

    def shifted_member(self, lam_plus_eta_rows) -> bool:
        """w̃(rhobar, tau) in Adm(lam + eta) componentwise."""
        return all([adm_member(self.w_rhobar_tau[j], lam_plus_eta_rows[j])
                    for j in range(self.ctx.f)])


def shape_semisimple(rho: TameTypePresentation,
                     tau: TameTypePresentation) -> ShapeResult:
    """Shape calculus for semisimple Frobenius data; sufficient genericity of
    tau is the caller's responsibility (query tau.depth()), not enforced."""
    if rho.ctx.n != tau.ctx.n or rho.ctx.f != tau.ctx.f:
        raise ArgumentError("presentations over different contexts")
    shape = rho.w_tilde_star() * tau.w_tilde_star().inverse()
    wrt = tau.w_tilde().inverse() * rho.w_tilde()
    return ShapeResult(shape=shape, w_rhobar_tau=wrt, ctx=rho.ctx)
