"""Exact polynomial algebra over GF(2^k) and over the integers.

Two representations:

* `Poly` -- dense univariate polynomials over a fixed GF(2^k), coefficients
  stored as raw bitmasks (index i = coefficient of x^i).  Used for pencil
  parameters and function-field base variables.
* `SparsePoly` -- multivariate polynomials as {exponent-tuple: coefficient}
  dictionaries.  With a FieldSpec the coefficients are GF(2^k) bitmasks;
  with spec=None they are signed Python integers (exact integer ring, used
  for universal constructions that must divide out integer constants).

Resultants of binary forms are determinants of the hybrid Bezout matrix
(of size max(m, n), not the m + n of the Sylvester matrix): fraction-free
elimination when the entries are univariate polynomials, a generic
division-free expansion for field elements and multivariate symbolic
entries.

Squarefreeness of a form of degree <= 4 needs no search in characteristic
2: since d(ell^2 h) = ell^2 dh, a repeated linear factor ell shows up as
ell^2 times a constant among the partials of order deg - 2, and is then
confirmed by division (`squarefree_test`).
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add, xor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .field import (FieldEmbedding, FieldError, FieldSpec, _divide_out,
                    _tables, find_roots_int, poly_add, poly_divmod, poly_gcd,
                    poly_mul)

Terms = Dict[Tuple[int, ...], int]


class Poly:
    """Univariate polynomial over GF(2^k), dense little-endian coefficients."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec)

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (0, 1))

    @classmethod
    def constant(cls, spec: FieldSpec, c: int) -> "Poly":
        return cls(spec, (c,))

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        parts = [f"{hex(c)}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(parts) + ")"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if other.spec != self.spec:
            raise FieldError("polynomials over different fields")
        return Poly(self.spec, poly_add(self.coeffs, other.coeffs))

    __sub__ = __add__

    def __neg__(self) -> "Poly":
        return self

    def __mul__(self, other: "Poly") -> "Poly":
        if other.spec != self.spec:
            raise FieldError("polynomials over different fields")
        return Poly(self.spec, poly_mul(self.coeffs, other.coeffs, self.spec))

    def scale(self, c: int) -> "Poly":
        mul = self.spec.mul_int
        return Poly(self.spec, [mul(c, a) for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        out = Poly.one(self.spec)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        quot, rem = poly_divmod(self.coeffs, other.coeffs, self.spec)
        return Poly(self.spec, quot), Poly(self.spec, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def gcd(self, other: "Poly") -> "Poly":
        return Poly(self.spec, poly_gcd(self.coeffs, other.coeffs, self.spec))

    def derivative(self) -> "Poly":
        # characteristic 2: even-exponent terms die, odd survive shifted down
        return Poly(self.spec,
                    [c if i % 2 == 1 else 0
                     for i, c in enumerate(self.coeffs)][1:])

    # -- evaluation and roots -------------------------------------------------

    def eval_int(self, x: int) -> int:
        acc = 0
        mul = self.spec.mul_int
        for c in reversed(self.coeffs):
            acc = mul(acc, x) ^ c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Substitution x -> inner(x)."""
        acc = Poly.zero(self.spec)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.constant(self.spec, c)
        return acc

    def reverse(self, n: Optional[int] = None) -> "Poly":
        """Coefficient reversal x -> 1/x homogenized at degree n."""
        if n is None:
            n = self.degree()
        if n < self.degree():
            raise ValueError("reversal degree below actual degree")
        out = [0] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return Poly(self.spec, out)

    def roots(self) -> List[Tuple[int, int]]:
        """Roots in the coefficient field as [(bits, multiplicity)]."""
        return find_roots_int(self.coeffs, self.spec)

    def multiplicity_at(self, r: int) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return _divide_out(self.coeffs, r, self.spec)[0]

    def embed(self, emb: FieldEmbedding) -> "Poly":
        if emb.source != self.spec:
            raise FieldError("embedding source mismatch")
        return Poly(emb.target, [emb.apply_int(c) for c in self.coeffs])


def _mul_terms(a: Terms, b: Terms, spec: Optional[FieldSpec]) -> Terms:
    """Product of two term dicts without zero coefficients, with cancelled
    terms dropped (a zero left in would read logs[0], a valid index, in the
    next product).  Field coefficients multiply in the log domain."""
    out: Terms = {}
    get = out.get
    if spec is None:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    else:
        exps, logs = _tables(spec)
        lb = [(e2, logs[c2]) for e2, c2 in b.items()]
        for e1, c1 in a.items():
            l1 = logs[c1]
            for e2, l2 in lb:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) ^ exps[l1 + l2]
    for e in [e for e, c in out.items() if not c]:
        del out[e]
    return out


class SparsePoly:
    """Multivariate polynomial over GF(2^k) (spec set) or over Z (spec None).

    `terms` maps exponent tuples of length nvars to nonzero coefficients.
    Field coefficients are raw bitmasks; integer coefficients are exact.
    """

    __slots__ = ("nvars", "spec", "terms")

    def __init__(self, nvars: int, spec: Optional[FieldSpec],
                 terms: Optional[Dict[Tuple[int, ...], int]] = None):
        self.nvars = nvars
        self.spec = spec
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, spec: Optional[FieldSpec]) -> "SparsePoly":
        return cls(nvars, spec)

    @classmethod
    def constant(cls, nvars: int, spec: Optional[FieldSpec],
                 c: int) -> "SparsePoly":
        return cls(nvars, spec, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, spec: Optional[FieldSpec],
                 exps: Sequence[int], c: int = 1) -> "SparsePoly":
        return cls(nvars, spec, {tuple(exps): c})

    @classmethod
    def variable(cls, i: int, nvars: int,
                 spec: Optional[FieldSpec]) -> "SparsePoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, spec, {tuple(e): 1})

    def _like(self, terms: Dict[Tuple[int, ...], int]) -> "SparsePoly":
        return SparsePoly(self.nvars, self.spec, terms)

    def _check(self, other: "SparsePoly") -> None:
        if (not isinstance(other, SparsePoly) or other.nvars != self.nvars
                or other.spec != self.spec):
            raise ValueError("incompatible polynomial rings")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        out = dict(self.terms)
        if self.spec is not None:
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) ^ c
        else:
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + c
        return self._like(out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        out = dict(self.terms)
        if self.spec is not None:
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) ^ c
        else:
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) - c
        return self._like(out)

    def __neg__(self) -> "SparsePoly":
        if self.spec is not None:
            return self
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        # _mul_terms has dropped every zero already: wrap its dict as it is
        out = SparsePoly.__new__(SparsePoly)
        out.nvars, out.spec = self.nvars, self.spec
        out.terms = _mul_terms(self.terms, other.terms, self.spec)
        return out

    def scale(self, c: int) -> "SparsePoly":
        if self.spec is not None:
            mul = self.spec.mul_int
            return self._like({e: mul(c, v) for e, v in self.terms.items()})
        return self._like({e: c * v for e, v in self.terms.items()})

    def __pow__(self, e: int) -> "SparsePoly":
        out = SparsePoly.constant(self.nvars, self.spec, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def derivative(self, var: int) -> "SparsePoly":
        out: Dict[Tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            if self.spec is not None:
                if k % 2 == 0:
                    continue
                cc = c
            else:
                cc = k * c
            ne = e[:var] + (k - 1,) + e[var + 1:]
            if self.spec is not None:
                out[ne] = out.get(ne, 0) ^ cc
            else:
                out[ne] = out.get(ne, 0) + cc
        return self._like(out)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.terms), default=-1)

    def is_homogeneous(self, d: Optional[int] = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def canonical_terms(self) -> List[Tuple[Tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.spec == other.spec and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self.terms:
            return "SparsePoly(0)"
        parts = []
        for e, c in self.canonical_terms():
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            cs = hex(c) if self.spec is not None else str(c)
            parts.append(f"{cs}*{mono}" if mono else cs)
        return "SparsePoly(" + " + ".join(parts) + ")"

    # -- extraction -----------------------------------------------------------

    def coefficients_in(self, var: int) -> Dict[int, "SparsePoly"]:
        """Collect as polynomial in one variable: power -> coefficient
        (coefficient keeps nvars, with exponent 0 in `var`)."""
        buckets: Dict[int, Dict[Tuple[int, ...], int]] = {}
        for e, c in self.terms.items():
            k = e[var]
            ne = e[:var] + (0,) + e[var + 1:]
            buckets.setdefault(k, {})[ne] = c
        return {k: self._like(t) for k, t in buckets.items()}

    def as_univariate(self, var: int) -> Poly:
        if self.spec is None:
            raise ValueError("integer polynomials have no Poly form here")
        coeffs = [0] * (self.degree_in(var) + 1)
        for e, c in self.terms.items():
            if any(k for i, k in enumerate(e) if i != var):
                raise ValueError("polynomial involves other variables")
            coeffs[e[var]] ^= c
        return Poly(self.spec, coeffs)

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, mapping: Dict[int, "SparsePoly"]) -> "SparsePoly":
        """Replace variables by polynomials; unmapped variables persist.

        Each term's image, its coefficient and unmapped part times the
        cached powers of the images of its mapped variables, is multiplied
        out as term dicts and added into one output dict."""
        for img in mapping.values():
            if img.nvars != self.nvars or img.spec != self.spec:
                raise ValueError("substitution image in wrong ring")
        plus = add if self.spec is None else xor
        powers: Dict[Tuple[int, int], Terms] = {}
        out: Terms = {}
        for e, c in self.terms.items():
            fixed = list(e)
            for v in mapping:
                fixed[v] = 0
            image = {tuple(fixed): c}
            for v, img in mapping.items():
                k = e[v]
                if k:
                    pk = powers.get((v, k))
                    if pk is None:
                        pk = powers[v, k] = (img ** k).terms
                    image = _mul_terms(image, pk, self.spec)
            for te, tc in image.items():
                out[te] = plus(out.get(te, 0), tc)
        return self._like(out)

    def linear_change(self, m: Sequence[Sequence[int]]) -> "SparsePoly":
        """The form in y with x = y.m on the first len(m) variables
        (x_c -> sum_j m[j][c] y_j); later variables are untouched."""
        unit = [tuple(int(i == j) for i in range(self.nvars))
                for j in range(len(m))]
        return self.substitute({c: self._like({unit[j]: m[j][c]
                                               for j in range(len(m))})
                                for c in range(len(m))})

    def evaluate(self, vals: Sequence[int]) -> int:
        """Evaluate at a point given by raw coefficients (bitmasks or ints)."""
        if len(vals) != self.nvars:
            raise ValueError("wrong number of coordinates")
        total = 0
        if self.spec is not None:
            mul, powi = self.spec.mul_int, self.spec.pow_int
            for e, c in self.terms.items():
                t = c
                for v, k in zip(vals, e):
                    if k:
                        t = mul(t, powi(v, k))
                        if t == 0:
                            break
                total ^= t
        else:
            for e, c in self.terms.items():
                t = c
                for v, k in zip(vals, e):
                    if k:
                        t *= v ** k
                total += t
        return total

    # -- coefficient-ring changes ---------------------------------------------

    def embed(self, emb: FieldEmbedding) -> "SparsePoly":
        if self.spec != emb.source:
            raise FieldError("embedding source mismatch")
        return SparsePoly(self.nvars, emb.target,
                          {e: emb.apply_int(c) for e, c in self.terms.items()})

    def drop_vars(self, keep: Sequence[int]) -> "SparsePoly":
        """Project onto a subset of variables; others must not occur."""
        out = {}
        for e, c in self.terms.items():
            for i, k in enumerate(e):
                if k and i not in keep:
                    raise ValueError(f"variable {i} still occurs")
            out[tuple(e[i] for i in keep)] = c
        return SparsePoly(len(keep), self.spec, out)


# -- generic linear algebra over any ring ------------------------------------


def det_generic(rows: List[List[object]], zero: object) -> object:
    """Division-free determinant via Laplace expansion with subset DP.

    Entries need only support + and *; signs are tracked so the result is
    exact over the integers as well (over GF(2^k) they are no-ops).
    O(n 2^n) ring multiplications -- fine for the small matrices used here.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    # state: bitmask of used columns -> minor value over the first popcount rows
    minors = {0: None}  # None marks the empty product (acts as ring one)
    for r in range(n):
        nxt: Dict[int, object] = {}
        for mask, val in minors.items():
            pos = 0  # number of used columns below c, for the sign
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    pos += 1
                    continue
                entry = rows[r][c]
                term = entry if val is None else val * entry
                sign = (r + pos) % 2  # parity of permutation contribution
                if sign:
                    term = -term
                cur = nxt.get(mask | bit)
                nxt[mask | bit] = term if cur is None else cur + term
        minors = nxt
    out = minors[(1 << n) - 1]
    return zero if out is None else out


def _bareiss_det(rows: List[List[Poly]]) -> Poly:
    """Determinant over GF(2^k)[x] by fraction-free elimination (Bareiss
    1968): O(n^3) ring operations, every division exact and checked by
    `Poly.exact_div`.  Row swaps only flip the sign, a no-op in
    characteristic 2."""
    m = [list(row) for row in rows]
    n = len(m)
    prev = Poly.one(m[0][0].spec)
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if piv is None:
            return Poly.zero(prev.spec)
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (pk * m[i][j] - mik * m[k][j]).exact_div(prev)
        prev = pk
    return m[n - 1][n - 1]


def _hybrid_bezout_matrix(f: Sequence[object], g: Sequence[object],
                          zero: object) -> List[List[object]]:
    """The n x n hybrid Bezout matrix of two binary forms with formal
    degrees n = len(f)-1 >= m = len(g)-1 >= 1 (coefficients x-major).

    With a and b the little-endian coefficients (b padded with zeros to
    length n+1), the first m rows are Bezout rows
    B_ij = sum_{k=0}^{min(i, n-1-j)} (a_{j+k+1} b_{i-k} - a_{i-k} b_{j+k+1}),
    built by the recurrence B_ij = a_{j+1} b_i - a_i b_{j+1} + B_{i-1,j+1};
    the last n-m rows are the coefficients of x^k g for k < n-m.  Its
    determinant is the resultant up to sign (Cox-Little-O'Shea, *Using
    Algebraic Geometry*, ch. 3)."""
    n, m = len(f) - 1, len(g) - 1
    a = list(reversed(f))
    b = list(reversed(g)) + [zero] * (n - m)
    rows: List[List[object]] = []
    prev = [zero] * n
    for i in range(m):
        row = [a[j + 1] * b[i] - a[i] * b[j + 1]
               + (prev[j + 1] if j + 1 < n else zero) for j in range(n)]
        rows.append(row)
        prev = row
    for k in range(n - m):
        rows.append([zero] * k + b[:m + 1] + [zero] * (n - m - 1 - k))
    return rows


def sylvester_resultant(f: Sequence[object], g: Sequence[object],
                        zero: object) -> object:
    """Resultant of two binary forms from their coefficient sequences.

    f has formal degree m = len(f)-1 with f[i] the coefficient of
    x^(m-i) y^i (same for g); entries may be field elements, univariate
    polynomials, or symbolic multivariate polynomials.  Using the formal
    (padded) degrees means a drop in actual degree corresponds to common
    roots at [0:1], which is exactly the projective convention needed here.
    The determinant taken is that of the hybrid Bezout matrix, of size
    max(m, n) rather than the m + n of the Sylvester matrix; it equals the
    Sylvester determinant up to sign, exactly in characteristic 2.
    Univariate `Poly` entries are eliminated fraction-free; any other ring
    goes through the division-free `det_generic`.
    """
    if len(f) < 2 or len(g) < 2:
        raise ValueError("forms must have formal degree >= 1")
    if len(f) < len(g):
        f, g = g, f
    rows = _hybrid_bezout_matrix(f, g, zero)
    if isinstance(zero, Poly):
        return _bareiss_det(rows)
    return det_generic(rows, zero)


def binary_roots(coeffs: Sequence[int], spec: FieldSpec
                 ) -> List[Tuple[Tuple[int, int], int]]:
    """Projective roots of a binary form over its coefficient field.

    coeffs[i] is the coefficient of x^(d-i) y^i.  Returns
    [((a, b), multiplicity)] with roots normalized to [1:b] or [0:1].
    """
    d = len(coeffs) - 1
    if all(c == 0 for c in coeffs):
        raise ValueError("zero form has no root set")
    p = Poly(spec, list(coeffs))  # f(1, t)
    out = [((1, r), m) for r, m in p.roots()]
    m_inf = d - p.degree()
    if m_inf > 0:
        out.append(((0, 1), m_inf))
    return out


# -- linear-form division and squarefree testing ------------------------------


def divide_by_linear(p: SparsePoly, ell: Sequence[int]
                     ) -> Optional[SparsePoly]:
    """Exact quotient p / ell for a linear form ell (or None if not divisible).

    Synthetic division in the pivot variable, the first with a nonzero
    coefficient in ell: the terms of one remainder dict are cleared from
    the highest pivot degree down, each quotient term q cancelling its
    term and adding q times the rest of ell one pivot degree lower.  None
    when any remainder is left.  Characteristic-2 field coefficients only.
    """
    if p.spec is None:
        raise ValueError("field coefficients required")
    pivot = next((i for i, c in enumerate(ell) if c), None)
    if pivot is None:
        raise ValueError("zero linear form")
    exps, logs = _tables(p.spec)
    inv_piv = p.spec.order - logs[ell[pivot]]
    rest = [(i, logs[c]) for i, c in enumerate(ell) if c and i != pivot]
    rem = dict(p.terms)
    quot: Terms = {}
    for k in range(p.degree_in(pivot), 0, -1):
        for e in [e for e in rem if e[pivot] == k]:
            c = rem.pop(e)
            if not c:
                continue
            qe = e[:pivot] + (k - 1,) + e[pivot + 1:]
            q = quot[qe] = exps[logs[c] + inv_piv]
            lq = logs[q]
            for i, li in rest:
                ne = qe[:i] + (qe[i] + 1,) + qe[i + 1:]
                rem[ne] = rem.get(ne, 0) ^ exps[lq + li]
    if any(rem.values()):
        return None
    return p._like(quot)


def _square_root(p: SparsePoly) -> Optional[SparsePoly]:
    """The g with g^2 = p when every exponent of p is even, else None: in
    characteristic 2, (sum a_e x^e)^2 = sum a_e^2 x^(2e)."""
    if any(k % 2 for e in p.terms for k in e):
        return None
    return p._like({tuple(k // 2 for k in e): p.spec.sqrt_int(c)
                    for e, c in p.terms.items()})


def squarefree_test(p: SparsePoly) -> Tuple[bool, Optional[SparsePoly]]:
    """Squarefreeness over the algebraic closure, with witness.

    Over a perfect field of characteristic 2 a repeated factor of a form of
    degree <= 4 is either (a) visible as a perfect square -- every exponent
    even -- or (b) a repeated linear factor ell defined over the coefficient
    field itself (a conjugate pair of repeated linear factors multiplies to
    a perfect square, case (a)).  In case (b), p = ell^2 h with h not a
    perfect square, and d(ell^2 h)/dx_i = ell^2 dh/dx_i in characteristic 2:
    some partial of order deg p - 2 in distinct variables is a nonzero
    multiple of ell^2: for a quartic d_j d_i p = m_j ell^2 with m = d_i h,
    and for a cubic p = ell^2 m and d_i p = m_i ell^2.  Each such partial
    whose terms are all squares, sum c_k x_k^2, names the candidate
    ell = sum sqrt(c_k) x_k, kept when two `divide_by_linear` calls confirm
    ell^2 | p.  At most six candidates, exact at every field size.

    Returns (True, None) or (False, witness) where witness**2 divides p;
    a linear witness is normalized to leading coefficient 1.  Raises
    ValueError unless p is a form of degree <= 4 over a field.
    """
    if p.spec is None:
        raise ValueError("field coefficients required")
    d = p.total_degree()
    if d > 4 or not p.is_homogeneous():
        raise ValueError("squarefree_test needs a form of degree <= 4")
    root = _square_root(p)   # also the zero form, as its own witness
    if root is not None:
        return False, root
    if d < 3:
        return True, None   # a form of degree <= 2 that is not a square
    units = [tuple(int(i == j) for j in range(p.nvars))
             for i in range(p.nvars)]
    for vs in itertools.combinations(range(p.nvars), d - 2):
        part = reduce(SparsePoly.derivative, vs, p)
        ell = None if part.is_zero() else _square_root(part)
        if ell is None:
            continue
        coeffs = [ell.terms.get(u, 0) for u in units]
        q = divide_by_linear(p, coeffs)
        if q is not None and divide_by_linear(q, coeffs) is not None:
            lead = next(c for c in coeffs if c)
            return False, ell.scale(p.spec.inv_int(lead))
    return True, None
