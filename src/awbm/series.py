"""The exact matrix kernel over F_q[v, v^-1].

`SeriesMatrix` holds an n x n matrix of Laurent series over F_q truncated at
a tracked precision: a value is known exactly for all exponents below `prec`,
and prec = None means the stored Laurent polynomial is exact.  Each entry
keeps only its nonzero terms, so an operation costs in proportion to the
terms it touches, not to the span of their exponents; a product over F_p of
dense operands packs each entry into one int instead, with a slot per
exponent wide enough that none carries (`_packed_product`).  The flag layer
(`modp_flag`) computes on exact matrices over F_p, `LaurentMatrix`, whose
operator nabla ends this module; the gauge layer (`bk_gauge`) on truncated
ones.  The coefficient field is F_p or F_{p^2}; Frobenius acts
coefficientwise by x -> x^p and on the variable by v -> v^p.  Inverses come
from the adjugate, whose cofactors share their minors; the expansion that
forms them ends in the determinant.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left

from .errors import (
    ArgumentError,
    CapacityError,
    ContextError,
    InputError,
    IntegralityError,
    InternalError,
    PreconditionError,
    json_int,
)
from .primes import check_prime

__all__ = ["Coefficients", "SeriesMatrix", "MAX_COEFFS", "LaurentMatrix",
           "nabla_matrix", "verify_nabla"]


# ---------------------------------------------------------------------------
# coefficient fields F_p and F_{p^2}

class _Fp2:
    """a + b·w in F_p[w]/(w^2 - r).  Like an int over F_p, an element adds
    and multiplies exactly and is reduced by `% p`; an int operand stands
    for itself plus 0·w."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a, b, r):
        self.a, self.b, self.r = a, b, r

    @staticmethod
    def _parts(x):
        return (x.a, x.b) if isinstance(x, _Fp2) else (x, 0)

    def __add__(self, other):
        a, b = self._parts(other)
        return _Fp2(self.a + a, self.b + b, self.r)

    __radd__ = __add__

    def __neg__(self):
        return _Fp2(-self.a, -self.b, self.r)

    def __mul__(self, other):
        a, b = self._parts(other)
        return _Fp2(self.a * a + self.r * self.b * b, self.a * b + self.b * a,
                    self.r)

    __rmul__ = __mul__

    def __mod__(self, p):
        return _Fp2(self.a % p, self.b % p, self.r)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        return (self.a, self.b) == self._parts(other)

    def conjugate(self):
        """x -> x^p, which sends w to -w since r is a non-residue."""
        return _Fp2(self.a, -self.b, self.r)


class Coefficients:
    """F_p (degree 1) or F_{p^2} = F_p[w]/(w^2 - r) (degree 2, r the least
    quadratic non-residue).  An element is an int in [0, p) over F_p and a
    pair a + b·w (`_Fp2`) over F_{p^2}.  A series is a dict {exponent:
    element} of its nonzero terms in increasing exponent order; sums and
    products run over exact Python ints, or over the slots of a packed
    product, each wide enough for its largest sum, and are reduced mod p
    once per output term, so every prime is exact."""

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

    def __eq__(self, other):
        return (isinstance(other, Coefficients) and self.p == other.p
                and self.degree == other.degree)

    def element(self, c):
        """c as an element of the field: c is a number, a list of `degree`
        numbers (the parts a, b of a + b·w over F_{p^2}) or an element."""
        p = self.p
        if isinstance(c, _Fp2):
            return c % p
        if isinstance(c, (list, tuple)):
            parts = [int(x % p) for x in c]
            if len(parts) != self.degree:
                raise ValueError(f"{c!r} is not an element of the field")
        else:
            parts = [int(c) % p, 0]
        return parts[0] if self.degree == 1 else _Fp2(*parts, self.r)

    def encode(self, c):
        """An element as JSON: an int, or an [a, b] pair over F_{p^2}."""
        return c if self.degree == 1 else [c.a, c.b]

    def inv_scalar(self, c):
        p = self.p
        if not c:
            raise ArgumentError("inverting zero")
        if self.degree == 1:
            return pow(c, -1, p)
        ninv = pow((c.a * c.a - self.r * c.b * c.b) % p, -1, p)
        return _Fp2(c.a * ninv % p, -c.b * ninv % p, self.r)

    def rand_scalar(self, rng, nonzero=False):
        while True:
            c = self.element([rng.randrange(self.p)
                              for _ in range(self.degree)])
            if c or not nonzero:
                return c


def _mac(acc, a, b, cut):
    """acc[e] += the coefficient of v^e in a·b for every e < cut, unreduced;
    a and b are series."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    exps, items = list(b), list(b.items())
    for e1, c1 in a.items():
        k = bisect_left(exps, cut - e1)
        if not k:
            break
        for e2, c2 in items[:k]:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _reduced(acc, p, cut=math.inf):
    """The series of the sums in acc mod p, below cut."""
    return {e: r for e in sorted(acc) if e < cut and (r := acc[e] % p)}


# Slot types of packed products, (bits, array typecode), narrowest first; an
# operand whose terms fill less than 1/_FILL of its slots is not packed.
_SLOTS = [(8 * array(t).itemsize, t) for t in "BHIQ"]
_BIG_ENDIAN = sys.byteorder == "big"
_FILL = 16


def _packed_product(a, b, prec):
    """The rows of a·b by Kronecker substitution, or None when the loop over
    `_mac` is to run.  An entry is packed once into an int with one slot per
    exponent from its own lowest one up to the last that reaches below prec;
    output entry (i, j) is sum_k pack(a_ik)·pack(b_kj), each product shifted
    by its factors' lowest exponents, a C big-integer sum unpacked once and
    reduced mod p.  A slot sums at most n·min(span) products of the largest
    stored coefficients, span an operand's widest packed entry, and is sized
    for that, so it never carries into the next and every prime is exact.
    The loop runs over F_{p^2}, when a slot would need more than 64 bits, and
    on sparse operands: near-monomial ones (fewer terms than twice the
    nonempty entries, as in the flag layer), terms filling less than 1/_FILL
    of the packed slots, or an output entry over _FILL slots per stored term.
    So at most _FILL slots are packed per stored term."""
    if a.field.degree != 1:
        return None
    sa, sb = list(a._series()), list(b._series())
    if not (sa and sb) or (terms := sum(map(len, sa + sb))) < 2 * len(sa + sb):
        return None
    spans, bound, reach = [], a.n, 0
    for m, series, cut in ((a, sa, prec - b.lo), (b, sb, prec - a.lo)):
        # an entry's slots run from its lowest exponent to its last below cut
        ends = [(next(iter(s)), min(next(reversed(s)), cut - 1) + 1)
                for s in series]
        lengths = [max(end - lo, 0) for lo, end in ends]
        if (_FILL * sum(map(len, series)) < sum(lengths)
                or min(map(min, map(dict.values, series))) < 0):
            return None
        spans.append(max(lengths))
        reach += max(end for _, end in ends) - m.lo
        bound *= max(map(max, map(dict.values, series)))
    bits = (bound * max(min(spans), 1)).bit_length()  # fits a coefficient
    if bits > 64 or _FILL * terms < reach:
        return None
    width, code = next(slot for slot in _SLOTS if slot[0] >= bits)

    def pack(m, cut):
        """Row i maps k to (bits above m.lo, packed int) of entry (i, k)."""
        rows = []
        for row in m.coeffs:
            packed = {}
            for k, s in row.items():
                lo = next(iter(s))
                slots = array(code, map(s.get, range(lo, min(
                    next(reversed(s)), cut - 1) + 1), itertools.repeat(0)))
                if _BIG_ENDIAN:
                    slots.byteswap()
                packed[k] = width * (lo - m.lo), int.from_bytes(slots, "little")
            rows.append(packed)
        return rows

    p, lo = a.field.p, a.lo + b.lo
    end = min(reach, prec - lo)
    pb, rows = pack(b, prec - a.lo), []
    for ra in pack(a, prec - b.lo):
        row = {}
        for j in range(a.n):
            acc = sum(x[1] * y[1] << x[0] + y[0]
                      for k, x in ra.items() if (y := pb[k].get(j)))
            if not acc:
                continue
            slots = array(code, acc.to_bytes(
                -(-acc.bit_length() // width) * width // 8, "little"))
            if _BIG_ENDIAN:
                slots.byteswap()
            coeffs = list(map(p.__rmod__, slots[:end]))
            if s := dict(itertools.compress(zip(itertools.count(lo), coeffs),
                                            coeffs)):
                row[j] = s
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# series matrices

# The most coefficient slots, n^2 * degree * exponent span, that a matrix read
# from JSON may span; `from_json` refuses a wider input.  The benchmark's
# largest is 3,600 (straightened n = 3 tuples at M = 400).
# The kernel allocates by stored terms, not by this count: a packed product
# packs at most _FILL slots of at most 8 bytes per stored term and builds one
# output entry at a time.  On the catalog straightenings its transient peak
# above the result is at most 61 bytes per operand term (the term loop's: 105).
# Each of an adjugate's n^2 entries spans at most n - 1 times the span of its
# matrix, and at most 2·C(n, n // 2) minors of no wider span are held while it
# is built.  A truncated inverse or a pole order takes it of A mod v^cut, cut
# set by prec and val det A (`_read_det`), not by the input's span; only
# nabla's exact inverse takes it of a whole input, within (n - 1)·MAX_COEFFS.
MAX_COEFFS = 10 ** 5


class _Rows(tuple):
    """The stored terms of a `SeriesMatrix`: row i maps a column j to the
    series of entry (i+1, j+1); empty entries are absent."""

    @property
    def nbytes(self):
        """8 bytes per stored coefficient, one int64 slot of a dense array."""
        return 8 * sum(len(s) for row in self for s in row.values())


class SeriesMatrix:
    """n x n matrix of truncated Laurent series: `coeffs` holds the nonzero
    terms, all at exponents >= lo, and entries are exact below prec
    (prec=None: exact everywhere).  lo bounds the valuation from below
    without always reaching it; products take their precision from it.
    Results keep the class of the left operand, and no operation changes a
    matrix once built.  Matrices compare by value and are unhashable."""

    __slots__ = ("field", "n", "lo", "coeffs", "prec")

    def __init__(self, field, n, lo, coeffs, prec=None):
        self.field = field
        self.n = n
        self.lo = lo
        self.coeffs = coeffs
        self.prec = prec

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, field, n, prec=None):
        one = field.element(1)
        return cls(field, n, 0, _Rows({i: {0: one}} for i in range(n)), prec)

    @classmethod
    def from_entries(cls, field, n, entries, prec=None):
        """entries: dict (i, j, exp) -> coefficient, anything
        `Coefficients.element` takes; a zero coefficient, and a term at or
        above prec, which is dropped, still count toward lo."""
        exps = [e for _, _, e in entries] or [0]
        cut = math.inf if prec is None else prec
        rows = [{} for _ in range(n)]
        for (i, j, e), c in sorted(entries.items()):
            if (c := field.element(c)) and e < cut:
                rows[i - 1].setdefault(j - 1, {})[e] = c
        return cls(field, n, min(exps), _Rows(rows), prec)

    def _new(self, lo, rows, prec=None):
        return type(self)(self.field, self.n, lo, _Rows(rows), prec)

    def _map(self, fn):
        """The rows with fn applied to every stored series, empty results
        dropped."""
        return [{j: t for j, s in row.items() if (t := fn(s))}
                for row in self.coeffs]

    def _series(self):
        return (s for row in self.coeffs for s in row.values())

    # -- bookkeeping -------------------------------------------------------
    def _eff_prec(self):
        return math.inf if self.prec is None else self.prec

    def _top(self):
        """The highest stored exponent (-inf when nothing is stored)."""
        return max((next(reversed(s)) for s in self._series()),
                   default=-math.inf)

    def truncate(self, prec):
        new_prec = min(self._eff_prec(), prec)
        rows = self.coeffs if self._top() < new_prec else self._map(
            lambda s: {e: c for e, c in s.items() if e < new_prec})
        return self._new(self.lo, rows,
                         None if new_prec == math.inf else new_prec)

    def normalized(self):
        """Raise lo to the lowest stored exponent (keep it when nothing is
        stored)."""
        lo = min((next(iter(s)) for s in self._series()), default=self.lo)
        if lo == self.lo:
            return self
        return self._new(lo, self.coeffs, self.prec)

    def entry(self, i, j):
        """Entry (i, j), 1-based, as {exponent: coefficient} over its nonzero
        terms; a coefficient is an int, or an [a, b] pair over F_{p^2}."""
        encode = self.field.encode
        return {e: encode(c)
                for e, c in self.coeffs[i - 1].get(j - 1, {}).items()}

    def __eq__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.prec == other.prec and self.coeffs == other.coeffs)

    # -- arithmetic --------------------------------------------------------
    def _check_operand(self, other):
        if self.field != other.field or self.n != other.n:
            raise ContextError(
                f"operands differ: n={self.n} over F_{self.field.p}^"
                f"{self.field.degree} against n={other.n} over "
                f"F_{other.field.p}^{other.field.degree}")

    def _add(self, other, sign):
        self._check_operand(other)
        lo = min(self.lo, other.lo)
        prec = min(self._eff_prec(), other._eff_prec())
        p = self.field.p
        rows = []
        for ra, rb in zip(self.coeffs, other.coeffs):
            row = {}
            for j in ra.keys() | rb.keys():
                acc = dict(ra.get(j, {}))
                for e, c in rb.get(j, {}).items():
                    acc[e] = acc.get(e, 0) + sign * c
                if s := _reduced(acc, p, prec):
                    row[j] = s
            rows.append(row)
        return self._new(lo, rows, None if prec == math.inf else prec)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        self._check_operand(other)
        lo = self.lo + other.lo
        prec = min(self.lo + other._eff_prec(), other.lo + self._eff_prec())
        p = self.field.p
        rows = _packed_product(self, other, prec)
        if rows is None:
            rows = []
            for ra in self.coeffs:
                acc = {}
                for k, a in ra.items():
                    for j, b in other.coeffs[k].items():
                        _mac(acc.setdefault(j, {}), a, b, prec)
                rows.append({j: s for j, t in acc.items()
                             if (s := _reduced(t, p))})
        return self._new(lo, rows, None if prec == math.inf else prec)

    def shift(self, k):
        return self._new(self.lo + k,
                         self._map(lambda s: {e + k: c for e, c in s.items()}),
                         None if self.prec is None else self.prec + k)

    def v_ddv(self):
        """v d/dv: the coefficient of v^e is multiplied by e."""
        p = self.field.p
        return self._new(self.lo, self._map(
            lambda s: {e: r for e, c in s.items() if (r := c * e % p)}),
            self.prec)

    # -- Frobenius and twists ----------------------------------------------
    def frobenius(self, prec=None):
        """v -> v^p and coefficientwise x -> x^p; a value known below prec is
        known below p(prec-1)+1 afterwards.  Given `prec`, the result is
        truncated there and only the terms landing below it are formed."""
        p = self.field.p
        conj = self.field.degree == 2
        cut = math.inf if prec is None else prec
        m = self._new(p * self.lo, self._map(
            lambda s: {p * e: c.conjugate() % p if conj else c
                       for e, c in s.items() if p * e < cut}),
            None if self.prec is None else p * (self.prec - 1) + 1)
        return m if prec is None else m.truncate(prec)

    def ad_monomial(self, w, bvec):
        """Ad(P_w · v^b): entry (i,k) lands at (w(i), w(k)) shifted by
        b_i - b_k."""
        rows = [{} for _ in range(self.n)]
        for i, row in enumerate(self.coeffs):
            for k, s in row.items():
                d = bvec[i] - bvec[k]
                rows[w[i] - 1][w[k] - 1] = {e + d: c for e, c in s.items()}
        smin = min(bvec) - max(bvec)
        prec = None if self.prec is None else self.prec + smin
        return self._new(self.lo + smin, rows, prec)

    # -- predicates ----------------------------------------------------------
    def is_zero_mod(self, M):
        return all(next(iter(s)) >= M for s in self._series())

    def equal_mod(self, other, M):
        if self._eff_prec() < M or other._eff_prec() < M:
            raise PreconditionError(
                f"comparison mod v^{M} exceeds the known precision")
        return (self - other).is_zero_mod(M)

    def check_integral(self, context=""):
        if self.lo >= 0:
            return self
        for i, row in enumerate(self.coeffs, 1):
            for j in sorted(row):
                if next(iter(row[j])) < 0:
                    raise IntegralityError(
                        f"negative-exponent residue at entry ({i},{j + 1})"
                        f"{context}")
        return self.normalized()

    def is_upper_mod_v(self):
        """Integral and upper triangular mod v."""
        return self.is_zero_mod(0) and not any(
            0 in s for i, row in enumerate(self.coeffs)
            for j, s in row.items() if j < i)

    def is_iw1(self):
        """Unipotent upper triangular mod v."""
        return self.is_upper_mod_v() and all(
            row.get(i, {}).get(0) == 1 for i, row in enumerate(self.coeffs))

    # -- inversion -----------------------------------------------------------
    def inverse(self, prec=None):
        """A^{-1} = adj A / det A.  With prec=None on an exact matrix the
        inverse is exact and det A must be a unit times v^k.
        Otherwise the lowest term v^k of det A must be known, and the
        inverse is known below min(prec, P - 2k + 2(n-1)L), where P is the
        precision of A and L = min(0, its lowest stored exponent); an
        exact A gives prec itself."""
        f = self.field
        if prec is None and self.prec is not None:
            raise ArgumentError("an exact inverse needs an exact matrix")
        m, adj, det, low = self._read_det(
            math.inf if prec is None else max(prec, 0) + 8)
        det_lo = next(iter(det))
        # the inverse mod v^prec reads A mod v^(prec + 2k - 2(n-1)L) alone
        if m is not self and m.prec < (cut := prec + 2 * det_lo - 2 * low):
            adj, det, _ = self.truncate(cut)._adj_det()
        if prec is None:
            if len(det) > 1:
                raise ArgumentError(
                    "matrix determinant is not a unit times a power of v")
            u, p = f.inv_scalar(det[det_lo]), f.p
            return adj._new(adj.lo - det_lo, adj._map(
                lambda s: {e - det_lo: c * u % p for e, c in s.items()}))
        out_prec = min(prec, self._eff_prec() - 2 * det_lo + 2 * low)
        # adj / det = v^(-det_lo) adj · (1/unit); the terms of 1/unit below
        # `need` are those that reach below out_prec
        need = out_prec + det_lo - adj.lo
        uinv = _invert_unit(f, {e - det_lo: c for e, c in det.items()},
                            max(need, 1))
        unit_inv = adj._new(0, [{i: uinv} for i in range(self.n)], need)
        return (adj * unit_inv).shift(-det_lo).normalized()

    def pole_order(self):
        """The least h >= 0 with v^h A^{-1} integral: val det A - min val
        adj A, read off `_read_det(8)`, so h is A's alone and costs what val
        det A sets, not what the precision of A does."""
        _, adj, det, _ = self._read_det(8)
        return max(0, next(iter(det)) - adj.normalized().lo)

    def _read_det(self, cut):
        """A mod v^(cut·2^i) and its `_adj_det` for the least i >= 0 at which
        it knows det A's lowest term, then A's (for cut > 0 it keeps A's L);
        past A's top term A itself, whose errors are raised."""
        while cut <= self._top():
            m = self.truncate(cut)
            try:
                return (m, *m._adj_det())
            except ArgumentError:
                cut *= 2
        return (self, *self._adj_det())

    def _adj_det(self):
        """adj A, det A, whose lowest term must be known, and (n-1)L for
        L = min(0, the lowest stored exponent)."""
        adj, det = self._adjugate()
        if not det:
            raise ArgumentError("matrix is not invertible (zero determinant)")
        # with every stored exponent >= L and L <= 0, a change at v^prec
        # moves det A from v^(prec + (n-1)L) on and adj A from
        # v^(prec + (n-2)L) on
        low = (self.n - 1) * min(0, self.normalized().lo)
        if next(iter(det)) >= self._eff_prec() + low:
            raise ArgumentError("matrix determinant has no known term")
        return adj, det, low

    def _adjugate(self):
        """adj A and det A, entry (j, i) of adj A being (-1)^(i+j) times the
        minor of A without row i and column j.  For each removed row i the
        other rows are taken in order; after k+1 of them, `minors` maps each
        sorted (k+1)-tuple of columns to the determinant of those rows on
        those columns, expanded along the newest row from the previous
        step's minors (the 0 x 0 minor is 1).  The minors of rows 0..i-1 are
        expanded once and serve every removed row past them; expanded
        through the last row, their one minor is det A.  A dense n x n
        matrix costs at most n^2·2^(n-1) series products, shared between
        the cofactors."""
        n, p = self.n, self.field.p
        signed = [self.coeffs, [{j: {e: -c for e, c in s.items()}
                                 for j, s in row.items()}
                                for row in self.coeffs]]

        def expand(minors, r, k):  # row r, taken at position k
            acc = {}
            for cols, m in minors.items():
                for c in self.coeffs[r].keys() - set(cols):
                    t = bisect_left(cols, c)
                    _mac(acc.setdefault(cols[:t] + (c,) + cols[t:], {}),
                         m, signed[(k + t) % 2][r][c], math.inf)
            return {cols: s for cols, a in acc.items()
                    if (s := _reduced(a, p))}

        rows = [{} for _ in range(n)]
        prefix = {(): {0: self.field.element(1)}}  # the minors of rows < i
        for i in range(n):
            minors = prefix
            for r in range(i + 1, n):
                minors = expand(minors, r, r - 1)
            for cols, s in minors.items():
                j = n * (n - 1) // 2 - sum(cols)  # the column left out
                rows[j][i] = s if (i + j) % 2 == 0 else {
                    e: -c % p for e, c in s.items()}
            prefix = expand(prefix, i, i)
        det = prefix.get(tuple(range(n)), {})  # the one n x n minor
        return self._new((n - 1) * self.lo, rows), det

    # -- encoding ------------------------------------------------------------
    def to_json(self):
        ent = [[{str(e): c for e, c in self.entry(i, j).items()}
                for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]
        return {"p": self.field.p, "degree": self.field.degree,
                "precision": self.prec, "entries": ent}

    @classmethod
    def from_json(cls, data):
        def integer(x):
            return json_int(x, "series matrix")

        try:
            field = Coefficients(integer(data["p"]),
                                 integer(data.get("degree", 1)))
            rows = data["entries"]
            n = len(rows)
            if any(len(row) != n for row in rows):
                raise InputError(f"matrix is not square: {data!r}")
            entries = {}
            for i, row in enumerate(rows):
                for j, cell in enumerate(row):
                    for e, c in cell.items():
                        for x in c if isinstance(c, list) else [c]:
                            integer(x)
                        # as to_json writes it: int() alone reads "1_0" as
                        # 10 and " 3", "+3" and "03" as 3
                        if str(int(e)) != e:
                            raise InputError(f"series matrix holds exponent "
                                             f"key {e!r} where an integer "
                                             "belongs")
                        entries[(i + 1, j + 1, int(e))] = c
            exps = [e for *_, e in entries] or [0]
            size = n * n * field.degree * (max(exps) - min(exps) + 1)
            if size > MAX_COEFFS:
                raise CapacityError(
                    f"series matrix spans {size} coefficients, over the "
                    f"limit MAX_COEFFS = {MAX_COEFFS}")
            prec = data.get("precision")
            return cls.from_entries(field, n, entries,
                                    None if prec is None else integer(prec))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"bad series-matrix encoding: {data!r}") from exc


def _invert_unit(field, unit, length):
    """The terms below `length` of 1/unit, unit a series with a nonzero
    constant term."""
    p = field.p
    inv0 = field.inv_scalar(unit[0])
    tail = [(s, c) for s, c in unit.items() if 0 < s < length]
    out = {0: inv0}
    for t in range(1, length):
        acc = 0
        for s, c in tail:
            if s > t:
                break
            w = out.get(t - s)
            if w is not None:
                acc = acc + c * w
        if r := -inv0 * acc % p:
            out[t] = r
    return out


# ---------------------------------------------------------------------------
# Laurent matrices over F_p

class LaurentMatrix(SeriesMatrix):
    """An exact n x n matrix over F_p[v, v^-1]: a degree-1 `SeriesMatrix`
    with prec=None, encoded as {"p": p, "entries": [[{exp: coeff}, ...]]}
    without the series keys "degree" and "precision" (ignored on input)."""

    __slots__ = ()

    def to_json(self):
        doc = super().to_json()
        return {"p": doc["p"], "entries": doc["entries"]}

    @classmethod
    def from_json(cls, data):
        try:
            data = {"p": data["p"], "entries": data["entries"]}
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad matrix encoding: {data!r}") from exc
        return super().from_json(data)


def nabla_matrix(A: LaurentMatrix, a_bar) -> LaurentMatrix:
    """v dA/dv · A^{-1} + A · Diag(a) · A^{-1}."""
    if len(a_bar) != A.n:
        raise ArgumentError("diagonal datum has wrong length")
    return _nabla(A, A.inverse(), a_bar)


def _nabla(A, Ainv, a_bar):
    """nabla_matrix with the inverse of A supplied."""
    D = LaurentMatrix.from_entries(
        A.field, A.n, {(i, i, 0): int(a) for i, a in enumerate(a_bar, 1)})
    return (A.v_ddv() + A * D) * Ainv


def verify_nabla(A: LaurentMatrix, a_bar) -> bool:
    """Whether v·(v dA/dv A^{-1} + A Diag(a) A^{-1}) has polynomial entries
    that are upper triangular mod v."""
    return nabla_matrix(A, a_bar).shift(1).is_upper_mod_v()
