"""Quartic surfaces and lines in P^3 over GF(2^k).

Conventions: projective coordinates are indexed 0..3 (printed as x1..x4);
points and matrix rows are 4-tuples of raw bitmasks; projective points are
normalized so the first nonzero coordinate is 1.  A line is the row span of
a 2x4 matrix kept in reduced row echelon form, which is a unique
representative, so lines compare and sort by their raw entries.

Line enumeration works from points: both RREF rows of a line on the
surface are points of it, so each of the six Schubert cells of pivot
patterns pairs the surface's points on two row charts (about q^2
numpy-vectorized evaluations), keeps the pairs that meet the tangent
condition, and confirms them exactly.  Singular points come from
resultant elimination in one coordinate frame for every level: the
eliminant S(x3) is split into Galois orbits once, and each orbit is
lifted in its own field, so each point is found once, over the field of
its degree.  The frames are those of `centred_frames`, one GF(2) frame
centred at each GF(2)-point, tried in turn while the elimination
degenerates.

The elimination kernel is shared with `pencil`, which finds the singular
points of fiber cubics the same way: `centred_frames` (the frames),
`first_variable_conditions` (the forms free of x1, then the resultants
in x1), `lift_tails` (the common zeros over their projections: at each,
the gcd in x1 by `gcd_at_tail`, split by `root_orbits`, over the fields
`FormLevels` keeps) and `SparsePoly.linear_change` (the frame moves).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import MAX_DEGREE, FieldSpec, json_natural, root_orbits
from .poly import Poly, SparsePoly, squarefree_test, sylvester_resultant

Row = Tuple[int, int, int, int]


# -- small exact linear algebra over GF(2^k) ----------------------------------


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
            spec: FieldSpec) -> List[List[int]]:
    n, m, p = len(a), len(b), len(b[0])
    mul = spec.mul_int
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        for k in range(m):
            aik = a[i][k]
            if aik == 0:
                continue
            for j in range(p):
                if b[k][j]:
                    out[i][j] ^= mul(aik, b[k][j])
    return out


def vec_mat(v: Sequence[int], m: Sequence[Sequence[int]],
            spec: FieldSpec) -> List[int]:
    return mat_mul([list(v)], m, spec)[0]


def rref(rows: Sequence[Sequence[int]], spec: FieldSpec
         ) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mul, inv = spec.mul_int, spec.inv_int
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        scale = inv(mat[r][c])
        mat[r] = [mul(scale, x) for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x ^ mul(f, y) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def restrict_form(form: SparsePoly, p1: Sequence[int],
                  p2: Sequence[int]) -> List[int]:
    """Coefficients of form(s*p1 + t*p2) as a binary form in (s, t),
    s-major."""
    mul = form.spec.mul_int
    out = [0] * (form.total_degree() + 1)
    for e, c in form.terms.items():
        factor = [c]
        for i, k in enumerate(e):
            for _ in range(k):
                nxt = [0] * (len(factor) + 1)
                for j, fc in enumerate(factor):
                    if fc:
                        nxt[j] ^= mul(fc, p1[i])
                        nxt[j + 1] ^= mul(fc, p2[i])
                factor = nxt
        for j, fc in enumerate(factor):
            out[j] ^= fc
    return out


def mat_rank(rows: Sequence[Sequence[int]], spec: FieldSpec) -> int:
    return len(rref(rows, spec)[1])


def mat_inverse(m: Sequence[Sequence[int]], spec: FieldSpec
                ) -> List[List[int]]:
    n = len(m)
    aug = [list(m[i]) + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug, spec)
    if pivots[:n] != list(range(n)):
        raise UsageError("matrix is singular")
    return [row[n:] for row in red]


def kernel_vector(rows: Sequence[Sequence[int]], spec: FieldSpec
                  ) -> Optional[List[int]]:
    """One nonzero kernel vector of the matrix (rows act on column vectors),
    or None if the kernel is trivial."""
    red, pivots = rref(rows, spec)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    c = free[0]
    v = [0] * ncols
    v[c] = 1
    for i, p in enumerate(pivots):
        v[p] = red[i][c]  # char 2: -x = x
    return v


def canonical_point(coords: Sequence[int], spec: FieldSpec) -> Row:
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise UsageError("zero vector is not a projective point")
    inv = spec.inv_int(lead)
    return tuple(spec.mul_int(inv, c) for c in coords)  # type: ignore


# -- lines --------------------------------------------------------------------


SCHUBERT_CELLS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class Line:
    """A line of P^3 as the row span of a canonical RREF 2x4 matrix."""

    __slots__ = ("spec", "rows", "pivots")

    def __init__(self, spec: FieldSpec, rows: Sequence[Sequence[int]],
                 _canonical: bool = False):
        if _canonical:
            mat = [list(rows[0]), list(rows[1])]
            pivots = [next(c for c in range(4) if mat[0][c]),
                      next(c for c in range(4) if mat[1][c])]
        else:
            mat, pivots = rref(rows, spec)
            if len(pivots) != 2:
                raise UsageError("rows do not span a line (rank != 2)")
        self.spec = spec
        self.rows = (tuple(mat[0]), tuple(mat[1]))
        self.pivots = tuple(pivots)

    def key(self) -> tuple:
        return (self.pivots, self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Line) and self.spec == other.spec
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.spec.degree, self.spec.modulus))

    def __repr__(self) -> str:
        r = ", ".join("[" + " ".join(hex(c) for c in row) + "]"
                      for row in self.rows)
        return f"Line({r})"

    def points(self) -> Iterable[Row]:
        """The q+1 rational points, canonically normalized."""
        r1, r2 = self.rows
        yield canonical_point(r2, self.spec)
        mul = self.spec.mul_int
        for v in range(self.spec.size):
            pt = tuple(a ^ mul(v, b) for a, b in zip(r1, r2))
            yield canonical_point(pt, self.spec)

    def embed(self, target: FieldSpec) -> "Line":
        emb = self.spec.embedding_to(target)
        return Line(target, [[emb.apply_int(c) for c in row]
                             for row in self.rows])

    def to_json(self) -> dict:
        return {"rows": [hex(c) for row in self.rows for c in row],
                "cell": SCHUBERT_CELLS.index(self.pivots)}

    @classmethod
    def from_json(cls, data: dict, spec: FieldSpec) -> "Line":
        vals = [int(h, 16) for h in data["rows"]]
        return cls(spec, [vals[:4], vals[4:]])


def axis_line(spec: FieldSpec) -> Line:
    """The normal-form line {x3 = x4 = 0}."""
    return Line(spec, [[1, 0, 0, 0], [0, 1, 0, 0]])


def lines_meet(l1: Line, l2: Line) -> Optional[Row]:
    """Intersection point of two distinct lines, or None if disjoint.

    Two lines meet iff the stacked 4x4 matrix has rank 3; the point is
    found from a kernel relation between the two bases.
    """
    if l1.spec != l2.spec:
        raise UsageError("lines over different fields")
    if l1 == l2:
        raise UsageError("lines_meet requires distinct lines")
    spec = l1.spec
    stacked = [list(l1.rows[0]), list(l1.rows[1]),
               list(l2.rows[0]), list(l2.rows[1])]
    # kernel of the transpose: a*r1 + b*r2 + c*s1 + d*s2 = 0
    cols = [[stacked[j][i] for j in range(4)] for i in range(4)]
    v = kernel_vector(cols, spec)
    if v is None:
        return None
    a, b = v[0], v[1]
    mul = spec.mul_int
    pt = tuple(mul(a, x) ^ mul(b, y)
               for x, y in zip(l1.rows[0], l1.rows[1]))
    if not any(pt):  # kernel vector touched only one line's basis
        raise InconsistencyError("degenerate kernel for distinct lines")
    return canonical_point(pt, spec)


# -- surfaces -----------------------------------------------------------------


def _is_fourth_power(f: SparsePoly) -> bool:
    """In characteristic 2, (sum a_e x^e)^4 = sum a_e^4 x^(4e): a form is a
    4th power iff all exponents are multiples of 4."""
    return all(all(k % 4 == 0 for k in e) for e in f.terms)


class QuarticSurface:
    """A squarefree homogeneous quartic form in 4 variables."""

    __slots__ = ("f", "label")

    def __init__(self, f: SparsePoly, label: str = "custom",
                 check: bool = True):
        if f.nvars != 4 or f.spec is None:
            raise UsageError("surface must be a 4-variable form over a field")
        if f.is_zero() or not f.is_homogeneous(4):
            raise UsageError("surface form must be homogeneous of degree 4")
        if check:
            ok, witness = squarefree_test(f)
            if not ok:
                if _is_fourth_power(f):
                    raise UsageError(
                        "quartic is a 4th power of a linear form")
                raise UsageError(
                    f"quartic is not squarefree (repeated factor {witness!r})")
        self.f = f
        self.label = label

    @property
    def spec(self) -> FieldSpec:
        return self.f.spec

    def evaluate(self, pt: Sequence[int]) -> int:
        return self.f.evaluate(list(pt))

    def base_change(self, target: FieldSpec) -> "QuarticSurface":
        if target == self.spec:
            return self
        emb = self.spec.embedding_to(target)
        return QuarticSurface(self.f.embed(emb), self.label, check=False)

    def transform(self, m: Sequence[Sequence[int]]) -> "QuarticSurface":
        """Coordinate change x -> x.M: returns the surface with form f(y M)."""
        return QuarticSurface(self.f.linear_change(m), self.label,
                              check=False)

    def restrict_to_line(self, line: Line) -> List[int]:
        """Coefficients [c0..c4] of the binary quartic f(u r1 + v r2),
        c_i = coefficient of u^(4-i) v^i."""
        return restrict_form(self.f, *line.rows)

    def contains_line(self, line: Line) -> bool:
        if line.spec != self.spec:
            raise UsageError("line not over the surface's field")
        return all(c == 0 for c in self.restrict_to_line(line))

    def partials(self) -> List[SparsePoly]:
        return [self.f.derivative(i) for i in range(4)]

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "label": self.label,
            "terms": [{"exps": list(e), "coeff": hex(c)}
                      for e, c in self.f.canonical_terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuarticSurface":
        spec = FieldSpec.from_json(data["field"])
        terms = {}
        for t in data["terms"]:
            exps = tuple(json_natural(e, "exponent") for e in t["exps"])
            if len(exps) != 4:
                raise UsageError("term exponent vector must have length 4")
            terms[exps] = terms.get(exps, 0) ^ spec.element(
                int(t["coeff"], 16))
        f = SparsePoly(4, spec, terms)
        return cls(f, data.get("label", "file"))

    @classmethod
    def load(cls, path: str) -> "QuarticSurface":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- evaluation on grids of points -------------------------------------------


def _eval_on_grid(p: SparsePoly, grids: List[np.ndarray],
                  spec: FieldSpec) -> np.ndarray:
    val = np.zeros(grids[0].shape, dtype=np.uint32)
    for e, c in p.terms.items():
        term = np.broadcast_to(np.uint32(c), grids[0].shape)
        for g, k in zip(grids, e):
            if k:
                term = spec.mul_arr(term, spec.pow_arr(g, k))
        val = val ^ term
    return val


def _chart(lead: int, free: Sequence[int], q: int) -> List[np.ndarray]:
    """Coordinate arrays of the q^len(free) points whose coordinate `lead`
    is 1, whose `free` coordinates run over GF(q) and whose others are 0."""
    n = q ** len(free)
    idx = np.arange(n, dtype=np.int64)
    coords = [np.zeros(n, dtype=np.uint32) for _ in range(4)]
    coords[lead] = np.ones(n, dtype=np.uint32)
    for j, c in enumerate(free):
        coords[c] = ((idx // q ** j) % q).astype(np.uint32)
    return coords


# -- line enumeration ---------------------------------------------------------


def _cell_free_positions(p1: int, p2: int) -> List[Tuple[int, int]]:
    """Free (row, column) slots of the RREF pattern with pivots (p1, p2)."""
    slots = [(0, c) for c in range(p1 + 1, 4) if c != p2]
    slots += [(1, c) for c in range(p2 + 1, 4)]
    return slots


def _cell_lines(surf: QuarticSurface, partials: List[SparsePoly],
                p1: int, p2: int) -> List[Line]:
    """The lines on the surface in the Schubert cell with pivots (p1, p2).

    Both RREF rows of such a line are points of the surface: row 1 in the
    chart x_{p1} = 1 with zeros before p1 and at p2, row 2 in the chart
    x_{p2} = 1 with zeros before p2.  A pair (P, Q) must meet the tangent
    condition grad f(P).Q = 0, the s^3 t coefficient of f(sP + tQ); then
    f(sP + tQ) has a double root at (1:0) and a root at (0:1), and two more
    at t = 1, 2 make five, so it vanishes.  GF(2) has no element 2, and
    its few survivors are checked with contains_line.
    """
    spec = surf.spec
    slots = _cell_free_positions(p1, p2)
    rows = []
    for row, lead in enumerate((p1, p2)):
        coords = _chart(lead, [c for r, c in slots if r == row], spec.size)
        on = _eval_on_grid(surf.f, coords, spec) == 0
        rows.append(np.stack([c[on] for c in coords]))
    ps, qs = rows
    grad = [_eval_on_grid(g, list(ps), spec) for g in partials]
    pairs = []
    for j, qpt in enumerate(qs.T.tolist()):
        dot = grad[p2].copy()  # qpt is 0 before p2 and 1 at p2
        for c in range(p2 + 1, 4):
            if qpt[c]:
                dot ^= spec.mul_arr(grad[c], qpt[c])
        pairs += [(i, j) for i in np.nonzero(dot == 0)[0].tolist()]
    if not pairs:
        return []
    pi, qj = np.array(pairs, dtype=np.int64).T
    p, q = ps[:, pi], qs[:, qj]
    if spec.size >= 4:
        on = ((_eval_on_grid(surf.f, list(p ^ q), spec) == 0)
              & (_eval_on_grid(surf.f, list(p ^ spec.mul_arr(q, 2)), spec)
                 == 0))
        p, q = p[:, on], q[:, on]
    lines = [Line(spec, r, _canonical=True)
             for r in zip(p.T.tolist(), q.T.tolist())]
    if spec.size < 4:
        lines = [ln for ln in lines if surf.contains_line(ln)]
    return lines


def enumerate_lines(surface: QuarticSurface, ext: int = 1) -> List[Line]:
    """All lines of P^3(GF(2^(k*ext))) on the surface, canonically sorted."""
    if ext < 1:
        raise UsageError("extension degree must be >= 1")
    k = surface.spec.degree
    if k * ext > MAX_DEGREE:
        raise CapabilityError(
            f"target field GF(2^{k * ext}) exceeds the 2^{MAX_DEGREE} limit")
    target = surface.spec.level(ext)
    surf = surface.base_change(target)
    partials = surf.partials()
    lines = []
    for p1, p2 in SCHUBERT_CELLS:
        lines += _cell_lines(surf, partials, p1, p2)
    lines.sort(key=Line.key)
    return lines


def count_candidate_lines(q: int) -> int:
    """|Gr(2,4)(F_q)| = (q^2+1)(q^2+q+1)."""
    return (q * q + 1) * (q * q + q + 1)


# -- elimination of the first variable ----------------------------------------
#
# The common zeros of a form and its partials (singular points of the
# quartic here, of a fiber cubic in `pencil`) are found in three steps:
# conditions on the other variables after eliminating x1 by resultants
# (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3), their common zeros,
# and at each of those the gcd in x1 of the forms, its roots grouped into
# Galois orbits (von zur Gathen and Gerhard, Modern Computer Algebra,
# ch. 14): `lift_tails`.


def _univariate_in(g: SparsePoly, var: int, tail: Sequence[int]) -> Poly:
    """Specialize all variables but `var` at the given values."""
    spec = g.spec
    coeffs = [0] * (g.degree_in(var) + 1)
    mul, powi = spec.mul_int, spec.pow_int
    for e, c in g.terms.items():
        t = c
        j = 0
        for i, k in enumerate(e):
            if i == var:
                continue
            if k:
                t = mul(t, powi(tail[j], k))
            j += 1
        if t:
            coeffs[e[var]] ^= t
    return Poly(spec, coeffs)


def _x1_coefficients(g: SparsePoly) -> List[SparsePoly]:
    """The coefficients of g in x1, highest power first."""
    by_power = g.coefficients_in(0)
    zero = SparsePoly.zero(g.nvars, g.spec)
    return [by_power.get(k, zero) for k in range(g.degree_in(0), -1, -1)]


def first_variable_conditions(forms: Sequence[SparsePoly]
                              ) -> Iterator[SparsePoly]:
    """Forms free of x1 vanishing on the projection from [1:0:...:0] of
    every common zero of the forms: the nonzero forms free of x1, then the
    nonzero resultants in x1 of the first form that involves x1 with each
    later one.  Lazy, so a caller that takes a few conditions forms only
    the resultants it reads."""
    forms = [g for g in forms if not g.is_zero()]
    yield from (g for g in forms if g.degree_in(0) == 0)
    with_x1 = [g for g in forms if g.degree_in(0) >= 1]
    if len(with_x1) < 2:
        return
    first = _x1_coefficients(with_x1[0])
    zero = SparsePoly.zero(with_x1[0].nvars, with_x1[0].spec)
    for other in with_x1[1:]:
        r = sylvester_resultant(first, _x1_coefficients(other), zero)
        if not r.is_zero():
            yield r


def gcd_at_tail(forms: Sequence[SparsePoly], var: int,
                tail: Sequence[int]) -> Optional[Poly]:
    """The monic gcd in `var` of the forms with the other variables set to
    `tail`, stopping once it is constant; None when every form vanishes
    there."""
    g = Poly.zero(forms[0].spec)
    for form in forms:
        g = g.gcd(_univariate_in(form, var, tail))
        if g.degree() == 0:
            break
    return None if g.is_zero() else g


def centred_frames(first: Sequence[int]) -> Iterator[Tuple[tuple, ...]]:
    """The GF(2) coordinate frames M of P^(n-1), n = len(first), one
    centred at each GF(2)-point c, the one at `first` first.  Row 0 of M
    is c, the image of the projection centre (1 : 0 : ... : 0) under
    x = y.M, and the other rows are the unit vectors but the one at c's
    leading coordinate, so M is invertible."""
    unit = [tuple(int(i == j) for j in range(len(first)))
            for i in range(len(first))]
    first = tuple(first)
    rest = (c for c in itertools.product((0, 1), repeat=len(first))
            if any(c) and c != first)
    for c in itertools.chain([first], rest):
        lead = c.index(1)
        yield (c,) + tuple(unit[:lead] + unit[lead + 1:])


# -- lifting common zeros from a projection -----------------------------------


class FormLevels:
    """Forms over GF(q) and their images over GF(q^d) (`FieldSpec.level`),
    embedded on first use."""

    __slots__ = ("spec", "_levels")

    def __init__(self, forms: Sequence[SparsePoly]):
        self.spec = forms[0].spec
        self._levels = {1: list(forms)}

    def field(self, d: int) -> FieldSpec:
        return self.spec.level(d)

    def at(self, d: int) -> List[SparsePoly]:
        if d not in self._levels:
            emb = self.spec.embedding_to(self.field(d))
            self._levels[d] = [g.embed(emb) for g in self._levels[1]]
        return self._levels[d]


def lift_tails(forms: FormLevels, tails: Iterable[Tuple[tuple, int]],
               cap: int) -> Optional[List[Tuple[tuple, int]]]:
    """The common zeros of the forms of degree n <= cap over GF(q), as
    (coordinates over GF(q^n), n), from the tails they project to from
    the centre (1 : 0 : ... : 0).

    A tail is (coordinates of the other variables over GF(q^d), d).  Over
    it, the first coordinates are the roots of the gcd in x1 of the forms
    (`gcd_at_tail`), grouped by `root_orbits`: a root of degree
    e <= cap // d over GF(q^d) makes a point of degree d e.  Every
    candidate is checked on all forms, and the centre directly.  None
    when the forms vanish on a whole line through the centre.

    A tail lifted from GF(q^d) to GF(q^(d e)) is checked on the forms
    embedded straight from GF(q): the two embeddings agree for every
    field up to GF(2^16) (`FieldSpec.embedding_to`, checked exhaustively
    by `tests/test_field.py::test_embeddings_through_a_level_agree`)."""
    centre = (1,) + (0,) * (forms.at(1)[0].nvars - 1)
    found = [(centre, 1)] if all(g.evaluate(list(centre)) == 0
                                 for g in forms.at(1)) else []
    for tail, d in tails:
        g = gcd_at_tail(forms.at(d), 0, tail)
        if g is None:
            return None
        if g.degree() < 1:
            continue
        levels, _ = root_orbits(g.coeffs, forms.field(d), cap // d)
        for e, (target, roots) in enumerate(levels, 1):
            if not roots:
                continue
            emb = forms.field(d).embedding_to(target)
            lifted = tuple(emb.apply_int(c) for c in tail)
            for r in roots:
                pt = (r,) + lifted
                if all(h.evaluate(list(pt)) == 0 for h in forms.at(d * e)):
                    found.append((pt, d * e))
    return found


# -- singular point search ----------------------------------------------------


# Infinitely many common zeros of the x1-conditions are listed on the P^2
# grid, 3 q^2 points at each level.
_GRID_MAX_Q = 4096
# The centre of the first frame the quartic's elimination tries: the
# identity frame.
_CENTRE = (1, 0, 0, 0)


def _x2_coefficients(r: SparsePoly) -> List[Poly]:
    """r(x2, x3, 1) as a polynomial in x2: its coefficients in GF(2^k)[x3],
    highest power of x2 first."""
    n = r.degree_in(0)
    rows = [[0] * (r.degree_in(1) + 1) for _ in range(n + 1)]
    for e, c in r.terms.items():
        rows[n - e[0]][e[1]] ^= c
    return [Poly(r.spec, row) for row in rows]


def _x3_eliminant(conds: List[SparsePoly]) -> Optional[Poly]:
    """S(x3) vanishing at x3 = a whenever two conditions on (x2 : x3 : x4)
    have a common zero (x2, a, 1); None when there is no such S (fewer
    than two conditions, or Res_x2 vanishes identically)."""
    if len(conds) < 2:
        return None
    ca, cb = (_x2_coefficients(r) for r in conds)
    if len(ca) == 1 or len(cb) == 1:  # free of x2: its own x3-eliminant
        s = ca[0] if len(ca) == 1 else cb[0]
    else:
        s = sylvester_resultant(ca, cb, Poly.zero(conds[0].spec))
    return None if s.is_zero() else s


def _has_degree(pt: Sequence[int], spec: FieldSpec, m: int) -> bool:
    """Do the canonical coordinates of a point over spec = GF(q^m) lie in
    no proper subfield GF(q^d), so that the point has degree m?"""
    k = spec.degree // m
    return not any(all(spec.pow_int(c, 2 ** (k * d)) == c for c in pt)
                   for d in range(1, m) if m % d == 0)


def _grid_tails(conds: FormLevels, cap: int) -> List[Tuple[tuple, int]]:
    """The common zeros of degree m <= cap of the conditions in P^2, by
    evaluation on every point of P^2(GF(q^m)), each kept at the level of
    its degree: the listing when there are infinitely many."""
    k = conds.spec.degree
    if 2 ** (k * cap) > _GRID_MAX_Q:
        raise CapabilityError(
            "the elimination conditions share a curve of zeros; listing "
            f"them on the P^2 grid over GF(2^{k * cap}) is refused "
            f"for q > {_GRID_MAX_Q}")
    tails = []
    for m in range(1, cap + 1):
        spec = conds.field(m)
        for chart in range(1, 4):
            coords = _chart(chart, range(chart + 1, 4), spec.size)[1:]
            mask = None
            for r in conds.at(m):
                v = _eval_on_grid(r, coords, spec) == 0
                mask = v if mask is None else (mask & v)
                if not mask.any():
                    break
            for i in np.nonzero(mask)[0].tolist():
                pt = tuple(int(c[i]) for c in coords)
                if _has_degree(pt, spec, m):
                    tails.append((pt, m))
    return tails


def _points_in_frame(surface: QuarticSurface, frame, cap: int,
                     grid: bool) -> set:
    """The singular points of degree n <= cap over the surface's field
    found by elimination in the frame, as (point canonical over GF(q^n),
    n) in the surface's coordinates.

    The conditions on (x2 : x3 : x4) left after eliminating x1
    (`first_variable_conditions`), the first two of them, and S(x3) are
    formed once, and S is split into orbits once.  Each direction
    (x3 : x4) is lifted to P^2 on the two conditions, or on all of them
    when the two share a line through (1 : 0 : 0), and then to P^3 on
    the five forms (`lift_tails`).  When there is no S or every condition
    vanishes on that line, the P^2 grid lists their zeros if `grid`
    allows it, and else the frame is refused."""
    moved = surface.transform(frame)
    forms = FormLevels([moved.f] + moved.partials())
    conds = first_variable_conditions(forms.at(1))
    plane = [r.drop_vars([1, 2, 3]) for r in itertools.islice(conds, 2)]
    if not plane:
        raise CapabilityError(
            "degenerate elimination: no condition is left after "
            "eliminating x1")
    s = _x3_eliminant(plane)
    tails = None
    if s is not None:
        levels, _ = root_orbits(s.coeffs, forms.spec, cap)
        dirs = [((1, 0), 1)] + [((a, 1), d) for d, (_, roots)
                                in enumerate(levels, 1) for a in roots]
        tails = lift_tails(FormLevels(plane), dirs, cap)
        if tails is None:   # the other conditions may cut a shared line
            plane += [r.drop_vars([1, 2, 3]) for r in conds]
            tails = lift_tails(FormLevels(plane), dirs, cap)
    if tails is None:
        if not grid:
            raise CapabilityError(
                "the elimination conditions share a curve of zeros")
        tails = _grid_tails(FormLevels(plane), cap)
    pts = lift_tails(forms, tails, cap)
    if pts is None:
        raise CapabilityError(
            "degenerate elimination: the forms vanish on a whole line "
            "through [1:0:0:0]")
    return {(canonical_point(vec_mat(pt, frame, forms.field(n)),
                             forms.field(n)), n) for pt, n in pts}


@dataclass(frozen=True)
class SingularPoint:
    point: Row
    ext: int  # extension degree over the surface's base field
    spec: FieldSpec

    def to_json(self) -> dict:
        return {"point": [hex(c) for c in self.point], "ext": self.ext,
                "field": self.spec.to_json()}


def singular_point_search(surface: QuarticSurface,
                          max_ext: int = 6) -> List[SingularPoint]:
    """All singular points of degree m <= max_ext over the surface's field
    GF(q), each listed once, over GF(q^m), sorted by degree, then point.

    An empty result certifies smoothness over GF(q^max_ext), not over the
    algebraic closure.  In a coordinate frame, x1 is eliminated by
    `first_variable_conditions` and x2 by the resultant S(x3) of the first
    two conditions, all once over GF(q), and S is split into Galois orbits
    once (`root_orbits`).  Each root orbit is lifted in its own field, to
    (x2 : x3 : x4) on the two conditions (on all of them when the two
    share a line through the projection centre) and then to P^3 on the
    five forms (`lift_tails`), every candidate checked on all of them.
    The frames are the GF(2) frames of `centred_frames`, the identity
    first, less those centred at singular points; through the others
    passes no line of singular points, and no quartic is singular at all
    fifteen GF(2)-points.  An elimination that degenerates (no condition
    left, conditions sharing a curve of zeros) is retried in the next
    frame; only when every frame refuses, as for a surface singular along
    a curve, are they tried again with the shared curve's points listed
    on the P^2 grid level by level, up to GF(4096).  CapabilityError is
    raised for a target field past GF(2^16) and when every frame
    degenerates even so.
    """
    if max_ext < 1:
        raise UsageError("max_ext must be >= 1")
    k = surface.spec.degree
    if k * max_ext > MAX_DEGREE:
        raise CapabilityError(
            f"target field GF(2^{k * max_ext}) exceeds the 2^{MAX_DEGREE} "
            "limit")
    forms = [surface.f] + surface.partials()
    exc = None
    for grid, frame in itertools.product((False, True),
                                         centred_frames(_CENTRE)):
        if not any(g.evaluate(frame[0]) for g in forms):
            continue
        try:
            found = _points_in_frame(surface, frame, max_ext, grid)
            break
        except CapabilityError as err:
            exc = err
    else:
        raise CapabilityError("singular-point elimination degenerates in "
                              f"every coordinate frame; last: {exc}"
                              ) from exc
    return [SingularPoint(pt, m, surface.spec.level(m))
            for pt, m in sorted(found, key=lambda pm: (pm[1], pm[0]))]


# -- intersection graphs and configurations -----------------------------------


class IntersectionGraph:
    """Pairwise incidence of a set of lines on one surface."""

    def __init__(self, lines: Sequence[Line]):
        self.lines = list(lines)
        n = len(self.lines)
        self.adj = np.zeros((n, n), dtype=bool)
        self.points: Dict[Tuple[int, int], Row] = {}
        for i in range(n):
            for j in range(i + 1, n):
                pt = lines_meet(self.lines[i], self.lines[j])
                if pt is not None:
                    self.adj[i, j] = self.adj[j, i] = True
                    self.points[(i, j)] = pt

    def __len__(self) -> int:
        return len(self.lines)

    def valency(self, i: int) -> int:
        return int(self.adj[i].sum())

    def valencies(self) -> List[int]:
        return [self.valency(i) for i in range(len(self.lines))]

    def point(self, i: int, j: int) -> Optional[Row]:
        if i == j:
            raise UsageError("no self-intersection point")
        return self.points.get((min(i, j), max(i, j)))


@dataclass
class ConfigurationReport:
    triangles: List[Tuple[int, int, int]]
    stars: List[Tuple[int, int, int]]
    squares: List[Tuple[int, int, int, int]]
    case: str  # "triangle-case" | "square-case" | "squarefree-case"

    def to_json(self) -> dict:
        return {"triangles": [list(t) for t in self.triangles],
                "stars": [list(t) for t in self.stars],
                "squares": [list(s) for s in self.squares],
                "case": self.case}


def detect_configurations(graph: IntersectionGraph) -> ConfigurationReport:
    """3-cliques split into triangles vs stars, chordless 4-cycles, and the
    triangle-case / square-case / squarefree-case trichotomy."""
    n = len(graph)
    triangles, stars = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if not graph.adj[i, j]:
                continue
            for k in range(j + 1, n):
                if graph.adj[i, k] and graph.adj[j, k]:
                    pij = graph.point(i, j)
                    pik = graph.point(i, k)
                    pjk = graph.point(j, k)
                    if pij == pik == pjk:
                        stars.append((i, j, k))
                    else:
                        triangles.append((i, j, k))
    squares = set()
    for i in range(n):
        for k in range(i + 1, n):
            if graph.adj[i, k]:
                continue
            common = [m for m in range(n)
                      if graph.adj[i, m] and graph.adj[k, m]]
            for a_idx in range(len(common)):
                for b_idx in range(a_idx + 1, len(common)):
                    j, l = common[a_idx], common[b_idx]
                    if graph.adj[j, l]:
                        continue
                    cyc = _canonical_cycle(i, j, k, l)
                    squares.add(cyc)
    if triangles or stars:
        case = "triangle-case"
    elif squares:
        case = "square-case"
    else:
        case = "squarefree-case"
    return ConfigurationReport(sorted(triangles), sorted(stars),
                               sorted(squares), case)


def _canonical_cycle(i, j, k, l) -> Tuple[int, int, int, int]:
    """Canonical representative of the 4-cycle i-j-k-l-i (adjacent pairs are
    the consecutive ones): smallest vertex first, smaller neighbor second."""
    verts = [i, j, k, l]
    start = verts.index(min(verts))
    fwd = [verts[(start + d) % 4] for d in range(4)]
    bwd = [verts[(start - d) % 4] for d in range(4)]
    return tuple(min(fwd, bwd))  # type: ignore


@dataclass
class SquarePartition:
    square: Tuple[int, int, int, int]
    classes: Dict[int, List[int]]  # m.D in {0,1,2} -> line indices
    bound: int
    valency_sum_cap: int

    def to_json(self) -> dict:
        return {"square": list(self.square),
                "classes": {str(k): v for k, v in self.classes.items()},
                "bound": self.bound,
                "valency_sum_cap": self.valency_sum_cap}


def square_fibration_partition(graph: IntersectionGraph,
                               square: Sequence[int]) -> SquarePartition:
    """Partition the other lines by intersection number with the square
    divisor D (fiber component / section / bisection), and emit the counting
    bound #lines <= #fiber-lines + sum(v(l_i) - 2) (generic cap 40)."""
    if len(set(square)) != 4:
        raise UsageError("square must consist of 4 distinct line indices")
    i, j, k, l = square
    ok = (graph.adj[i, j] and graph.adj[j, k] and graph.adj[k, l]
          and graph.adj[l, i] and not graph.adj[i, k] and not graph.adj[j, l])
    if not ok:
        raise UsageError("given lines do not form a chordless 4-cycle "
                         "in the order i-j-k-l")
    classes: Dict[int, List[int]] = {0: [], 1: [], 2: []}
    for m in range(len(graph)):
        if m in square:
            continue
        d = int(sum(graph.adj[m, s] for s in square))
        if d > 2:
            raise InconsistencyError(
                f"line {m} meets the square divisor {d} > 2 times")
        classes[d].append(m)
    vsum = sum(graph.valency(s) - 2 for s in square)
    bound = len(classes[0]) + vsum
    return SquarePartition(tuple(square), classes, bound, min(vsum, 40))


# -- normalization and orbits -------------------------------------------------


def normalize_line(surface: QuarticSurface, line: Line
                   ) -> Tuple[List[List[int]], QuarticSurface]:
    """Projective change of coordinates carrying the line to {x3 = x4 = 0}.

    Returns (T, S') with S' = surface.transform(T); rows 0 and 1 of T are
    the line's basis, rows 2 and 3 standard vectors on its non-pivot
    columns, so T is invertible and every monomial of S' involves x3 or x4.
    """
    if not surface.contains_line(line):
        raise UsageError("line does not lie on the surface")
    spec = surface.spec
    nonpivot = [c for c in range(4) if c not in line.pivots]
    t = [list(line.rows[0]), list(line.rows[1])]
    for c in nonpivot:
        t.append([1 if i == c else 0 for i in range(4)])
    if mat_rank(t, spec) != 4:  # pragma: no cover - construction guarantees
        raise InconsistencyError("normalization matrix is singular")
    sprime = surface.transform(t)
    for e in sprime.f.terms:
        if e[2] == 0 and e[3] == 0:
            raise InconsistencyError(
                "normalized surface has a monomial purely in x1, x2")
    return t, sprime


def surface_preserved_by(surface: QuarticSurface,
                         m: Sequence[Sequence[int]]) -> bool:
    """Does x -> x.M send the surface to itself (up to scalar)?"""
    g = surface.transform(m).f
    f = surface.f
    if set(g.terms) != set(f.terms):
        return False
    e0 = next(iter(f.terms))
    spec = surface.spec
    c = spec.div_int(g.terms[e0], f.terms[e0])
    return g == f.scale(spec.inv_int(c))


def orbit(lines: Sequence[Line] | Line, generators: Sequence[Sequence[Sequence[int]]],
          surface: QuarticSurface) -> List[Line]:
    """Closure of the given line(s) under the group the generators produce.

    Each generator must preserve the surface (checked).  Lines map by
    transforming their basis rows with the same x -> x.M convention.
    """
    if isinstance(lines, Line):
        lines = [lines]
    spec = lines[0].spec
    for g in generators:
        if not surface_preserved_by(surface.base_change(spec), g):
            raise UsageError("generator does not preserve the surface")
    seen = set(lines)
    queue = list(lines)
    while queue:
        line = queue.pop()
        for g in generators:
            image = Line(spec, [vec_mat(row, g, spec) for row in line.rows])
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return sorted(seen, key=Line.key)
