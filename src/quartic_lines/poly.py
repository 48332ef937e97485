"""Exact polynomial algebra over GF(2^k) and over the integers.

Two representations:

* `Poly` -- dense univariate polynomials over a fixed GF(2^k), coefficients
  stored as raw bitmasks (index i = coefficient of x^i).  Used for pencil
  parameters and function-field base variables.
* `SparsePoly` -- multivariate polynomials as {exponent-tuple: coefficient}
  dictionaries.  With a FieldSpec the coefficients are GF(2^k) bitmasks;
  with spec=None they are signed Python integers (exact integer ring, used
  for universal constructions that must divide out integer constants).

Resultants of binary forms are Sylvester determinants: fraction-free
elimination when the entries are univariate polynomials, a generic
division-free expansion for field elements and multivariate symbolic
entries.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .field import (FieldElement, FieldEmbedding, FieldError, FieldSpec,
                    find_roots_int)


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

    @classmethod
    def from_elements(cls, coeffs: Sequence[FieldElement]) -> "Poly":
        if not coeffs:
            raise ValueError("empty coefficient list")
        spec = coeffs[0].spec
        return cls(spec, [c.bits for c in coeffs])

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] ^= c
        return Poly(self.spec, out)

    __sub__ = __add__

    def __neg__(self) -> "Poly":
        return self

    def __mul__(self, other: "Poly") -> "Poly":
        if other.spec != self.spec:
            raise FieldError("polynomials over different fields")
        if not self.coeffs or not other.coeffs:
            return Poly(self.spec)
        mul = self.spec.mul_int
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return Poly(self.spec, out)

    def scale(self, c: int) -> "Poly":
        mul = self.spec.mul_int
        return Poly(self.spec, [mul(c, a) for a in self.coeffs])

    def shift(self, n: int) -> "Poly":
        """Multiply by x^n."""
        if not self.coeffs:
            return self
        return Poly(self.spec, (0,) * n + self.coeffs)

    def __pow__(self, e: int) -> "Poly":
        out = Poly.one(self.spec)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def divmod(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        mul, inv = spec.mul_int, spec.inv_int
        rem = list(self.coeffs)
        d = other.degree()
        lead_inv = inv(other.leading())
        quot = [0] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            q = mul(rem[-1], lead_inv)
            shift = len(rem) - 1 - d
            quot[shift] = q
            for i, c in enumerate(other.coeffs):
                rem[shift + i] ^= mul(q, c)
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(spec, quot), Poly(spec, rem)

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
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.spec.inv_int(self.leading()))

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

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.spec != self.spec:
            raise FieldError("evaluation point in the wrong field")
        return FieldElement(self.eval_int(x.bits), self.spec)

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
        mult = 0
        work = self
        lin = Poly(self.spec, (r, 1))
        while not work.is_zero():
            q, rem = work.divmod(lin)
            if not rem.is_zero():
                break
            mult += 1
            work = q
        return mult

    def embed(self, emb: FieldEmbedding) -> "Poly":
        if emb.source != self.spec:
            raise FieldError("embedding source mismatch")
        return Poly(emb.target, [emb.apply_int(c) for c in self.coeffs])


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
        out: Dict[Tuple[int, ...], int] = {}
        if self.spec is not None:
            mul = self.spec.mul_int
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) ^ mul(c1, c2)
        else:
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return self._like(out)

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
            base = base * base
            e >>= 1
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

    def coefficient_in(self, var: int, power: int) -> "SparsePoly":
        return self.coefficients_in(var).get(power,
                                             SparsePoly.zero(self.nvars,
                                                             self.spec))

    def as_univariate(self, var: int) -> Poly:
        if self.spec is None:
            raise ValueError("integer polynomials have no Poly form here")
        coeffs = [0] * (self.degree_in(var) + 1)
        for e, c in self.terms.items():
            if any(k for i, k in enumerate(e) if i != var):
                raise ValueError("polynomial involves other variables")
            coeffs[e[var]] ^= c
        return Poly(self.spec, coeffs)

    @classmethod
    def from_univariate(cls, p: Poly, var: int, nvars: int) -> "SparsePoly":
        terms = {}
        for i, c in enumerate(p.coeffs):
            if c:
                e = [0] * nvars
                e[var] = i
                terms[tuple(e)] = c
        return cls(nvars, p.spec, terms)

    # -- substitution and evaluation ------------------------------------------

    def substitute(self, mapping: Dict[int, "SparsePoly"]) -> "SparsePoly":
        """Replace variables by polynomials; unmapped variables persist."""
        images = {}
        for v, img in mapping.items():
            if img.nvars != self.nvars or img.spec != self.spec:
                raise ValueError("substitution image in wrong ring")
            images[v] = img
        pow_cache: Dict[Tuple[int, int], SparsePoly] = {}

        def img_pow(v: int, k: int) -> SparsePoly:
            key = (v, k)
            got = pow_cache.get(key)
            if got is None:
                got = images[v] ** k
                pow_cache[key] = got
            return got

        out = SparsePoly.zero(self.nvars, self.spec)
        for e, c in self.terms.items():
            fixed = list(e)
            factors = []
            for v in images:
                if e[v]:
                    factors.append(img_pow(v, e[v]))
                    fixed[v] = 0
            term = SparsePoly(self.nvars, self.spec, {tuple(fixed): c})
            for f in factors:
                term = term * f
            out = out + term
        return out

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

    def eval_elements(self, point: Sequence[FieldElement]) -> FieldElement:
        if self.spec is None:
            raise ValueError("not a field polynomial")
        return FieldElement(self.evaluate([p.bits for p in point]), self.spec)

    # -- coefficient-ring changes ---------------------------------------------

    def reduce_mod2(self, spec: FieldSpec) -> "SparsePoly":
        """View an integer polynomial over GF(2) inside the given field."""
        if self.spec is not None:
            raise ValueError("already over a field")
        return SparsePoly(self.nvars, spec,
                          {e: c % 2 for e, c in self.terms.items()})

    def embed(self, emb: FieldEmbedding) -> "SparsePoly":
        if self.spec != emb.source:
            raise FieldError("embedding source mismatch")
        return SparsePoly(self.nvars, emb.target,
                          {e: emb.apply_int(c) for e, c in self.terms.items()})

    def extend_vars(self, nvars: int) -> "SparsePoly":
        if nvars < self.nvars:
            raise ValueError("cannot drop variables")
        pad = (0,) * (nvars - self.nvars)
        return SparsePoly(nvars, self.spec,
                          {e + pad: c for e, c in self.terms.items()})

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


def sylvester_matrix(f: Sequence[object], g: Sequence[object],
                     zero: object) -> List[List[object]]:
    """The (m+n) x (m+n) Sylvester matrix of two binary forms of formal
    degrees m = len(f)-1 and n = len(g)-1 (coefficients x-major)."""
    m, n = len(f) - 1, len(g) - 1
    if m < 1 or n < 1:
        raise ValueError("forms must have formal degree >= 1")
    size = m + n
    rows = []
    for i in range(n):
        rows.append([zero] * i + list(f) + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + list(g) + [zero] * (size - n - 1 - i))
    return rows


def sylvester_resultant(f: Sequence[object], g: Sequence[object],
                        zero: object) -> object:
    """Resultant of two binary forms from their coefficient sequences.

    f has formal degree m = len(f)-1 with f[i] the coefficient of
    x^(m-i) y^i (same for g); entries may be field elements, univariate
    polynomials, or symbolic multivariate polynomials.  Using the formal
    (padded) degrees means a drop in actual degree corresponds to common
    roots at [0:1], which is exactly the projective convention needed here.
    Univariate `Poly` entries are eliminated fraction-free; any other ring
    goes through the division-free `det_generic`.
    """
    rows = sylvester_matrix(f, g, zero)
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

    Long division in the pivot variable with multivariate coefficients;
    characteristic-2 field coefficients only.
    """
    if p.spec is None:
        raise ValueError("field coefficients required")
    spec = p.spec
    pivot = next((i for i, c in enumerate(ell) if c), None)
    if pivot is None:
        raise ValueError("zero linear form")
    c_piv = ell[pivot]
    inv_piv = spec.inv_int(c_piv)
    rest = SparsePoly(p.nvars, spec,
                      {tuple(1 if j == i else 0 for j in range(p.nvars)): c
                       for i, c in enumerate(ell) if c and i != pivot})
    cofs = p.coefficients_in(pivot)
    top = max(cofs, default=0)
    acc = [cofs.get(k, SparsePoly.zero(p.nvars, spec))
           for k in range(top + 1)]
    quot = [SparsePoly.zero(p.nvars, spec) for _ in range(max(top, 1))]
    for k in range(top, 0, -1):
        q = acc[k].scale(inv_piv)
        quot[k - 1] = q
        acc[k] = SparsePoly.zero(p.nvars, spec)
        acc[k - 1] = acc[k - 1] + q * rest  # char 2: subtraction == addition
    if not acc[0].is_zero():
        return None
    xp = SparsePoly.variable(pivot, p.nvars, spec)
    out = SparsePoly.zero(p.nvars, spec)
    for k, q in enumerate(quot):
        out = out + q * xp ** k
    return out


def _linear_forms(nvars: int, spec: FieldSpec) -> Iterable[Tuple[int, ...]]:
    """Normalized nonzero linear forms (first nonzero coefficient = 1)."""
    for pivot in range(nvars):
        tails = itertools.product(range(spec.size), repeat=nvars - pivot - 1)
        for tail in tails:
            yield (0,) * pivot + (1,) + tail


SQUAREFREE_SCAN_LIMIT = 300_000


def squarefree_test(p: SparsePoly) -> Tuple[bool, Optional[SparsePoly]]:
    """Squarefreeness over the algebraic closure, with witness.

    Over a perfect field of characteristic 2 a repeated factor of a form of
    degree <= 4 is either (a) visible as a perfect square -- every exponent
    even -- or (b) a repeated linear factor defined over the coefficient
    field itself (a conjugate pair of repeated linear factors multiplies to
    a perfect square, case (a)).  So: check the even-exponent square case,
    then scan the finitely many normalized linear forms for ell^2 | p.

    Returns (True, None) or (False, witness) where witness**2 divides p.
    """
    if p.spec is None:
        raise ValueError("field coefficients required")
    if p.is_zero():
        return False, p
    spec = p.spec
    if all(k % 2 == 0 for e in p.terms for k in e):
        root = SparsePoly(p.nvars, spec,
                          {tuple(k // 2 for k in e): spec.sqrt_int(c)
                           for e, c in p.terms.items()})
        return False, root
    count = (spec.size ** p.nvars - 1) // (spec.size - 1) if spec.size > 1 else 0
    if count > SQUAREFREE_SCAN_LIMIT:
        raise ValueError(
            f"squarefree scan over GF(2^{spec.degree}) in {p.nvars} variables "
            "is too large; work over a smaller coefficient field")
    for ell in _linear_forms(p.nvars, spec):
        q = divide_by_linear(p, ell)
        if q is None:
            continue
        q2 = divide_by_linear(q, ell)
        if q2 is not None:
            return False, SparsePoly(
                p.nvars, spec,
                {tuple(1 if j == i else 0 for j in range(p.nvars)): c
                 for i, c in enumerate(ell) if c})
    return True, None
