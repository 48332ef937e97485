"""Quartic surfaces and lines in P^3 over GF(2^k).

Conventions: projective coordinates are indexed 0..3 (printed as x1..x4);
points and matrix rows are 4-tuples of raw bitmasks; projective points are
normalized so the first nonzero coordinate is 1.  A line is the row span of
a 2x4 matrix kept in reduced row echelon form, which is a unique
representative, so lines compare and sort by their raw entries.

Line enumeration works from points: both RREF rows of a line on the
surface are points of it, so each of the six Schubert cells of pivot
patterns (p1, p2) pairs the surface's points on the row charts of the
cell (about q^2 numpy-vectorized evaluations), keeps the pairs that meet
the tangent condition, and confirms them exactly.  Row 2 is 0 before p2
and 1 at p2, so its chart is evaluated once per last pivot p2 and shared
by the cells with that p2, and the tangent condition reads the partials
of f from p2 on.

Singular points come from one path from elimination conditions to
points, shared with `pencil` for the fiber cubics: in a GF(2) frame of
`centred_frames` (moved by `SparsePoly.linear_change`),
`first_variable_conditions` leaves conditions in the other variables,
`eliminant` a univariate polynomial, split into Galois orbits once, and
`lift_tails` lifts each orbit in its own field, so each point is found
once, over the field of its degree.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import (MAX_DEGREE, FieldSpec, all_orbits, json_hex, json_natural,
                    json_key, json_of, root_orbits)
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
    s-major, read off `SparsePoly.linear_change`."""
    out = [0] * (form.total_degree() + 1)
    for (_, j), c in form.linear_change([p1, p2]).terms.items():
        out[j] ^= c
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
                 _pivots: Optional[Tuple[int, int]] = None):
        """The line spanned by `rows`; with `_pivots`, the rows are taken
        as already in RREF with those pivot columns."""
        if _pivots is None:
            rows, _pivots = rref(rows, spec)
            if len(_pivots) != 2:
                raise UsageError("rows do not span a line (rank != 2)")
        self.spec = spec
        self.rows = (tuple(rows[0]), tuple(rows[1]))
        self.pivots = tuple(_pivots)

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
        rows = json_of(json_key(json_of(data, dict, "line"), "rows", "line"),
                       list, "rows")
        vals = [json_hex(h, "line entry") for h in rows]
        return cls(spec, [vals[:4], vals[4:]])


def axis_line(spec: FieldSpec) -> Line:
    """The normal-form line {x3 = x4 = 0}."""
    return Line(spec, [[1, 0, 0, 0], [0, 1, 0, 0]])


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
        data = json_of(data, dict, "surface")
        spec = FieldSpec.from_json(json_key(data, "field", "surface"))
        terms = {}
        for t in json_of(json_key(data, "terms", "surface"), list,
                         "surface terms"):
            t = json_of(t, dict, "surface term")
            exps = tuple(json_natural(e, "exponent") for e in json_of(
                json_key(t, "exps", "surface term"), list, "exponents"))
            if len(exps) != 4:
                raise UsageError("term exponent vector must have length 4")
            terms[exps] = terms.get(exps, 0) ^ spec.element(json_hex(
                json_key(t, "coeff", "surface term"), "term coefficient"))
        f = SparsePoly(4, spec, terms)
        return cls(f, data.get("label", "file"))

    @classmethod
    def load(cls, path: str) -> "QuarticSurface":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- evaluation on grids of points -------------------------------------------


def _eval_on_grid(p: SparsePoly, grids: Sequence, spec: FieldSpec
                  ) -> np.ndarray:
    """p at the points whose coordinates `grids` (arrays and ints)
    broadcast together: a coordinate of one value folds into the
    coefficients (a term with a positive power of a fixed 0 goes, a
    fixed 1 costs nothing), each power of another is computed once, on
    its own array."""
    val = np.zeros(np.broadcast(*grids).shape, dtype=np.uint32)
    fixed = {i: g if isinstance(g, int) else int(g.flat[0])
             for i, g in enumerate(grids) if np.size(g) == 1}
    zeros = [i for i, x in fixed.items() if x == 0]
    fold = [(i, x) for i, x in fixed.items() if x > 1]
    powers = {}
    for e, c in p.terms.items():
        if any(e[i] for i in zeros):
            continue
        for i, x in fold:
            c = spec.mul_int(c, spec.pow_int(x, e[i]))
        term = c
        for i, k in enumerate(e):
            if c and k and i not in fixed:
                if (i, k) not in powers:
                    powers[i, k] = (spec.pow_arr(grids[i], k) if k > 1
                                    else grids[i])
                term = spec.mul_arr(powers[i, k], term)
        val ^= term
    return val


def _chart(lead: int, free: Sequence[int], q: int) -> List[np.ndarray]:
    """Coordinates of the q^len(free) points whose coordinate `lead` is 1,
    whose `free` coordinates run over GF(q) and whose others are 0, as
    arrays that broadcast together: free coordinate j runs along axis
    -1-j, every other coordinate is one value."""
    coords = [np.zeros(1, dtype=np.uint32) for _ in range(4)]
    coords[lead] = np.ones(1, dtype=np.uint32)
    for j, c in enumerate(free):
        coords[c] = np.arange(q, dtype=np.uint32).reshape((q,) + (1,) * j)
    return coords


# -- line enumeration ---------------------------------------------------------


def _cell_free_positions(p1: int, p2: int) -> List[Tuple[int, int]]:
    """Free (row, column) slots of the RREF pattern with pivots (p1, p2)."""
    slots = [(0, c) for c in range(p1 + 1, 4) if c != p2]
    slots += [(1, c) for c in range(p2 + 1, 4)]
    return slots


def _surface_points(f: SparsePoly, lead: int, free: Sequence[int],
                    spec: FieldSpec) -> Optional[list]:
    """The points of the chart `_chart(lead, free, q)` on the surface, or
    None when there is none: coordinate `lead` is 1, the others outside
    `free` are 0, and a free coordinate is the array of its values, its
    index along the chart's axis."""
    on = _eval_on_grid(f, _chart(lead, free, spec.size), spec) == 0
    if not on.any():
        return None
    pts = [0] * 4
    pts[lead] = 1
    for c, idx in zip(reversed(free), np.nonzero(on)):
        pts[c] = idx
    return pts


def _at(coords: list, idx: np.ndarray) -> list:
    """The coordinates at the given indices; a fixed one stays an int."""
    return [x if isinstance(x, int) else x[idx] for x in coords]


def _cell_lines(surf: QuarticSurface, partials: List[SparsePoly],
                p1: int, p2: int, qs: list) -> List[Line]:
    """The lines on the surface in the Schubert cell with pivots (p1, p2),
    given the surface's points `qs` on the chart of row 2.

    Both RREF rows of such a line are points of the surface: row 1 in the
    chart x_{p1} = 1 with zeros before p1 and at p2, row 2 in the chart
    x_{p2} = 1 with zeros before p2.  A pair (P, Q) must meet the tangent
    condition grad f(P).Q = 0, the s^3 t coefficient of f(sP + tQ), where
    Q is 0 before p2 and 1 at p2; then f(sP + tQ) has a double root at
    (1:0) and a root at (0:1), and two more at t = 1, 2 make five, so it
    vanishes.  GF(2) has no element 2, and its few survivors are checked
    with contains_line.
    """
    f, spec = surf.f, surf.spec
    ps = _surface_points(f, p1, [c for r, c in _cell_free_positions(p1, p2)
                                 if r == 0], spec)
    if ps is None:
        return []
    dot = _eval_on_grid(partials[p2], ps, spec).reshape(-1, 1)
    for c in range(p2 + 1, 4):
        grad = _eval_on_grid(partials[c], ps, spec).reshape(-1, 1)
        dot = dot ^ spec.mul_arr(grad, qs[c])
    pi, qj = np.nonzero(dot == 0)
    p, q = _at(ps, pi), _at(qs, qj)
    # one flag per pair: in cell (2, 3) every coordinate is an int, and
    # the checks below give one value whatever the number of pairs
    on = np.ones(len(pi), dtype=bool)
    if spec.size >= 4:
        omega_q = [spec.mul_int(x, 2) if isinstance(x, int)
                   else spec.mul_arr(x, 2) for x in q]
        on &= ((_eval_on_grid(f, [a ^ b for a, b in zip(p, q)], spec) == 0)
               & (_eval_on_grid(f, [a ^ b for a, b in zip(p, omega_q)],
                                spec) == 0))
    keep = np.flatnonzero(on)
    cols = [[x] * len(keep) if isinstance(x, int) else x[keep].tolist()
            for x in p + q]
    lines = [Line(spec, (r[:4], r[4:]), (p1, p2)) for r in zip(*cols)]
    if spec.size < 4:
        lines = [ln for ln in lines if surf.contains_line(ln)]
    return lines


def enumerate_lines(surface: QuarticSurface, ext: int = 1) -> List[Line]:
    """All lines of P^3(GF(2^(k*ext))) on the surface, canonically sorted.

    The surface's points on the row-2 chart of a cell depend only on its
    last pivot p2, and are found once for the cells that share it."""
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
    for p2 in range(1, 4):
        qs = _surface_points(surf.f, p2, range(p2 + 1, 4), target)
        if qs is not None:
            for p1 in range(p2):
                lines += _cell_lines(surf, partials, p1, p2, qs)
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
# and at each of those the gcd in x1 of the forms with the other variables
# set there (`SparsePoly.restrict`), its roots grouped into Galois orbits
# (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14):
# `lift_tails`.


def _x1_coefficients(g: SparsePoly) -> List[SparsePoly]:
    """The coefficients of g in x1, highest power first, as forms in the
    other variables."""
    by_power = {k: {e[1:]: c for e, c in p.terms.items()}
                for k, p in g.coefficients_in(0).items()}
    return [SparsePoly(g.nvars - 1, g.spec, by_power.get(k))
            for k in range(g.degree_in(0), -1, -1)]


def first_variable_conditions(forms: Sequence[SparsePoly]
                              ) -> Iterator[SparsePoly]:
    """Forms in the other variables x2, ..., xn vanishing on the
    projection from [1:0:...:0] of every common zero of the forms: the
    nonzero forms free of x1, then the nonzero resultants in x1 of the
    first form that involves x1 with each later one.  Lazy, so a caller
    that takes a few conditions forms only the resultants it reads."""
    forms = [g for g in forms if not g.is_zero()]
    yield from (g.restrict({0: 0}) for g in forms if g.degree_in(0) == 0)
    with_x1 = [g for g in forms if g.degree_in(0) >= 1]
    if len(with_x1) < 2:
        return
    first = _x1_coefficients(with_x1[0])
    zero = SparsePoly.zero(with_x1[0].nvars - 1, with_x1[0].spec)
    for other in with_x1[1:]:
        r = sylvester_resultant(first, _x1_coefficients(other), zero)
        if not r.is_zero():
            yield r


def eliminant(rows: Sequence[List[Poly]]) -> Optional[Poly]:
    """A polynomial vanishing wherever the conditions share a zero, from
    their coefficient rows as binary forms in the variable to eliminate,
    each row entry a `Poly` in the one left (`SparsePoly.rows`): a
    condition of degree 0 in that variable is its own eliminant, and
    else the first nonzero resultant of a pair (`sylvester_resultant`).
    None with fewer than two conditions or no nonzero resultant."""
    if len(rows) < 2:
        return None
    pure = next((cs[0] for cs in rows if len(cs) == 1), None)
    if pure is not None:
        return pure
    for fa, fb in itertools.combinations(rows, 2):
        r = sylvester_resultant(fa, fb, Poly.zero(fa[0].spec))
        if not r.is_zero():
            return r
    return None


def gcd_at_tail(forms: Sequence[SparsePoly], var: int,
                tail: Sequence[int]) -> Optional[Poly]:
    """The monic gcd in `var` of the forms with the other variables set to
    `tail`, stopping once it is constant; None when every form vanishes
    there."""
    values = dict(zip([i for i in range(len(tail) + 1) if i != var], tail))
    g = Poly.zero(forms[0].spec)
    for form in forms:
        g = g.gcd(form.restrict(values))
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

    def at(self, d: int) -> List[SparsePoly]:
        if d not in self._levels:
            emb = self.spec.embedding_to(self.spec.level(d))
            self._levels[d] = [g.embed(emb) for g in self._levels[1]]
        return self._levels[d]


def lift_tails(forms: FormLevels, tails: Iterable[Tuple[tuple, int]],
               cap: int, list_all: bool = False
               ) -> Optional[List[Tuple[tuple, int]]]:
    """The common zeros of the forms of degree n <= cap over GF(q), as
    (coordinates over GF(q^n), n), from the tails they project to from
    the centre (1 : 0 : ... : 0).

    A tail is (coordinates of the other variables over GF(q^d), d).  Over
    it, the first coordinates are the roots of the gcd in x1 of the forms
    (`gcd_at_tail`), grouped by `root_orbits`: a root of degree
    e <= cap // d over GF(q^d) makes a point of degree d e.  Every
    candidate is checked on all forms, and the centre directly.  When the
    forms vanish on a whole line through the centre, its points of degree
    at most cap are listed (`all_orbits`) if `list_all`, and else the
    answer is None.

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
            if not list_all:
                return None
            levels = all_orbits(forms.spec.level(d), cap // d)
        elif g.degree() < 1:
            continue
        else:
            levels, _ = root_orbits(g.coeffs, forms.spec.level(d), cap // d)
        for e, (target, roots) in enumerate(levels, 1):
            if not roots:
                continue
            emb = forms.spec.level(d).embedding_to(target)
            lifted = tuple(emb.apply_int(c) for c in tail)
            for r in roots:
                pt = (r,) + lifted
                if all(h.evaluate(list(pt)) == 0 for h in forms.at(d * e)):
                    found.append((pt, d * e))
    return found


# -- singular point search ----------------------------------------------------


# The centre of the first frame the quartic's elimination tries: the
# identity frame.
_CENTRE = (1, 0, 0, 0)


def _points_in_frame(forms: Sequence[SparsePoly], frame, cap: int,
                     list_all: bool) -> set:
    """The singular points of degree n <= cap over the field of the
    surface whose form and four partials are `forms`, found by elimination
    in the frame, as (point canonical over GF(q^n), n) in the surface's
    coordinates.  The identity frame (centre `_CENTRE`) takes the forms
    as they are; another moves the form and takes its partials.

    The first two conditions on (x2 : x3 : x4) left after eliminating x1
    and their `eliminant` S(x3) are formed once, over GF(q), and S is
    split into orbits once.  Each direction (x3 : x4) is lifted to P^2 on
    the two conditions, or on all of them when the two share a line
    through (1 : 0 : 0), and then to P^3 on the five forms (`lift_tails`),
    every candidate checked on all of them.  When there is no S or every
    condition vanishes on a line through (1 : 0 : 0), the frame is
    refused unless `list_all`, and then the zero polynomial has every
    point as a root: S = 0 gives every direction and such a line every
    point of it, each of degree at most cap (`all_orbits`)."""
    if frame[0] != _CENTRE:
        moved = forms[0].linear_change(frame)
        forms = [moved] + [moved.derivative(i) for i in range(4)]
    forms = FormLevels(forms)
    conds = first_variable_conditions(forms.at(1))
    plane = list(itertools.islice(conds, 2))
    if not plane:
        raise CapabilityError(
            "degenerate elimination: no condition is left after "
            "eliminating x1")
    # S(x3) from r(x2, x3, 1) as a form in (w : x2) at w = 1, over
    # GF(q)[x3]; read the other way round (the same S), S = 0 took about
    # 4 times longer
    s = eliminant([r.restrict({2: 1}).rows(r.degree_in(0) + 1)
                   for r in plane])
    if s is not None:
        levels, _ = root_orbits(s.coeffs, forms.spec, cap)
    elif list_all:
        levels = all_orbits(forms.spec, cap)
    else:
        raise CapabilityError(
            "the elimination conditions share a curve of zeros")
    dirs = [((1, 0), 1)] + [((a, 1), d) for d, (_, roots)
                            in enumerate(levels, 1) for a in roots]
    tails = lift_tails(FormLevels(plane), dirs, cap)
    if tails is None:   # the other conditions may cut a shared line
        plane += list(conds)
        tails = lift_tails(FormLevels(plane), dirs, cap, list_all)
    if tails is None:
        raise CapabilityError(
            "the elimination conditions share a curve of zeros")
    pts = lift_tails(forms, tails, cap)
    if pts is None:
        raise CapabilityError(
            "degenerate elimination: the forms vanish on a whole line "
            "through [1:0:0:0]")
    return {(canonical_point(vec_mat(pt, frame, forms.spec.level(n)),
                             forms.spec.level(n)), n) for pt, n in pts}


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
    algebraic closure.  The elimination (`_points_in_frame`) runs in the
    GF(2) frames of `centred_frames`, the identity first, less those
    centred at singular points; through the others passes no line of
    singular points, and no quartic is singular at all fifteen
    GF(2)-points.  A frame whose elimination degenerates is followed by
    the next; only when every frame refuses, as for a surface singular
    along a curve, are they tried again with the curve listed by its
    directions.  CapabilityError is raised for a target field past
    GF(2^16) and when every frame degenerates even so.
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
    for list_all, frame in itertools.product((False, True),
                                             centred_frames(_CENTRE)):
        if not any(g.evaluate(frame[0]) for g in forms):
            continue
        try:
            found = _points_in_frame(forms, frame, max_ext, list_all)
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


# The Pluecker coordinates p_ij, i < j, of a line in this order: the
# complement of pair k is pair 5 - k
_PAIRS = list(itertools.combinations(range(4), 2))


class IntersectionGraph:
    """Pairwise incidence of a set of distinct lines over one field.

    All pairs are decided at once, on n x n arrays (`FieldSpec.mul_arr`).
    A line through the points a and b has the Pluecker coordinates
    p_ij = a_i b_j + a_j b_i (characteristic 2), and two distinct lines
    meet iff the sum of p_ij q_kl over the three splittings of
    {1, 2, 3, 4} into pairs {i, j} and {k, l} vanishes.  Where lines a b
    and L' meet, a plane H through L' that does not contain a b cuts
    that line in H(b) a + H(a) b; the plane through L' and the unit
    point e_m has the coefficient q_kl at x_l, {k, l} the complement of
    {m, l}, and 0 at x_m, and the first m whose plane gives a nonzero
    point is taken, for all meeting pairs at once, then canonicalised."""

    def __init__(self, lines: Sequence[Line]):
        self.lines = list(lines)
        n = len(self.lines)
        self.adj = np.zeros((n, n), dtype=bool)
        self.points: Dict[Tuple[int, int], Row] = {}
        if n < 2:
            return
        spec = self.lines[0].spec
        if any(ln.spec != spec for ln in self.lines):
            raise UsageError("lines over different fields")
        if len(set(self.lines)) != n:
            raise UsageError("an intersection graph needs distinct lines")
        mul = spec.mul_arr
        a, b = (np.array([ln.rows[r] for ln in self.lines], dtype=np.uint32)
                for r in (0, 1))
        p = np.stack([mul(a[:, i], b[:, j]) ^ mul(a[:, j], b[:, i])
                      for i, j in _PAIRS], axis=1)
        pairing = np.zeros((n, n), dtype=np.uint32)
        for k in range(6):
            pairing ^= mul(p[:, k, None], p[None, :, 5 - k])
        self.adj = pairing == 0
        np.fill_diagonal(self.adj, False)
        first, second = np.nonzero(np.triu(self.adj))
        a, b, q = a[first], b[first], p[second]
        pts = np.zeros_like(a)
        todo = np.ones(len(first), dtype=bool)
        for m in range(4):
            plane = {l: q[:, 5 - _PAIRS.index(tuple(sorted((m, l))))]
                     for l in range(4) if l != m}
            ha, hb = (np.bitwise_xor.reduce(
                [mul(h, x[:, l]) for l, h in plane.items()])
                for x in (a, b))
            cand = mul(hb[:, None], a) ^ mul(ha[:, None], b)
            take = todo & cand.any(axis=1)
            pts[take] = cand[take]
            todo &= ~take
        if todo.any():
            raise InconsistencyError("meeting lines with no common point")
        lead = pts[np.arange(len(pts)), np.argmax(pts != 0, axis=1)]
        pts = mul(pts, spec.pow_arr(lead, spec.order - 1)[:, None])
        self.points = {(i, j): tuple(pt) for i, j, pt in zip(
            first.tolist(), second.tolist(), pts.tolist())}

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
    columns, so T is invertible, and every monomial of S' involves x3 or
    x4 iff the surface contains the line.
    """
    spec = surface.spec
    if line.spec != spec:
        raise UsageError("line not over the surface's field")
    nonpivot = [c for c in range(4) if c not in line.pivots]
    t = [list(line.rows[0]), list(line.rows[1])]
    for c in nonpivot:
        t.append([1 if i == c else 0 for i in range(4)])
    if mat_rank(t, spec) != 4:  # pragma: no cover - construction guarantees
        raise InconsistencyError("normalization matrix is singular")
    sprime = surface.transform(t)
    if any(e[2] == 0 and e[3] == 0 for e in sprime.f.terms):
        raise UsageError("line does not lie on the surface")
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
