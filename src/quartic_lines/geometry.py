"""Quartic surfaces and lines in P^3 over GF(2^k).

Conventions: projective coordinates are indexed 0..3 (printed as x1..x4);
points and matrix rows are 4-tuples of raw bitmasks; projective points are
normalized so the first nonzero coordinate is 1.  A line is the row span of
a 2x4 matrix kept in reduced row echelon form, which is a unique
representative, so lines compare and sort by their raw entries.

Line enumeration sweeps the six Schubert cells of RREF pivot patterns --
(q^2+1)(q^2+q+1) candidates in total -- with numpy-vectorized staged
evaluation: a line lies on the surface iff the restricted binary quartic
vanishes, which for q >= 4 is equivalent to vanishing at 5 distinct points
of P^1.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import MAX_DEGREE, FieldSpec
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

    def contains(self, pt: Sequence[int]) -> bool:
        stacked = [list(self.rows[0]), list(self.rows[1]), list(pt)]
        return mat_rank(stacked, self.spec) == 2

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
        spec = self.spec
        images = {}
        for c in range(4):
            img = SparsePoly.zero(4, spec)
            for j in range(4):
                if m[j][c]:
                    img = img + SparsePoly.variable(j, 4, spec).scale(m[j][c])
            images[c] = img
        return QuarticSurface(self.f.substitute(images), self.label,
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
            exps = tuple(int(e) for e in t["exps"])
            if len(exps) != 4:
                raise UsageError("term exponent vector must have length 4")
            terms[exps] = terms.get(exps, 0) ^ int(t["coeff"], 16)
        f = SparsePoly(4, spec, terms)
        return cls(f, data.get("label", "file"))

    @classmethod
    def load(cls, path: str) -> "QuarticSurface":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- line enumeration ---------------------------------------------------------


_CHUNK = 1 << 20


def _cell_free_positions(p1: int, p2: int) -> List[Tuple[int, int]]:
    """Free (row, column) slots of the RREF pattern with pivots (p1, p2)."""
    slots = [(0, c) for c in range(p1 + 1, 4) if c != p2]
    slots += [(1, c) for c in range(p2 + 1, 4)]
    return slots


def _enumerate_cell(f: SparsePoly, spec: FieldSpec, p1: int, p2: int,
                    lo: int, hi: int) -> List[Tuple[Row, Row]]:
    """Surviving candidate lines of one Schubert-cell index range."""
    q = spec.size
    slots = _cell_free_positions(p1, p2)
    idx = np.arange(lo, hi, dtype=np.int64)

    # 5 sample points of P^1 are enough to kill a binary quartic (q >= 4);
    # for q = 2 the three rational points are a filter before an exact check.
    samples = [(1, 0), (0, 1), (1, 1)]
    if q >= 4:
        samples += [(1, 2), (1, 3)]

    max_exp = [f.degree_in(i) for i in range(4)]

    def row_entries(which_row, digits):
        ent = []
        for c in range(4):
            if (which_row == 0 and c == p1) or (which_row == 1 and c == p2):
                ent.append(None)  # pivot: constant one
            else:
                j = next((k for k, s in enumerate(slots)
                          if s == (which_row, c)), None)
                ent.append(digits[j] if j is not None else 0)
        return ent

    for u, v in samples:
        if len(idx) == 0:
            break
        digits = []
        rest = idx
        for _ in slots:
            digits.append((rest % q).astype(np.uint32))
            rest = rest // q
        r1 = row_entries(0, digits)
        r2 = row_entries(1, digits)
        coords = []
        for c in range(4):
            a = np.uint32(1) if r1[c] is None else r1[c]
            b = np.uint32(1) if r2[c] is None else r2[c]
            pa = spec.mul_arr(np.broadcast_to(np.asarray(a, dtype=np.uint32),
                                              idx.shape),
                              np.uint32(u))
            pb = spec.mul_arr(np.broadcast_to(np.asarray(b, dtype=np.uint32),
                                              idx.shape),
                              np.uint32(v))
            coords.append(pa ^ pb)
        # precompute needed powers of each coordinate
        pows = []
        for c in range(4):
            pc = [None] * (max_exp[c] + 1)
            for k in range(1, max_exp[c] + 1):
                pc[k] = spec.pow_arr(coords[c], k)
            pows.append(pc)
        val = np.zeros(idx.shape, dtype=np.uint32)
        for e, cf in f.terms.items():
            term = np.broadcast_to(np.uint32(cf), idx.shape)
            for c in range(4):
                if e[c]:
                    term = spec.mul_arr(term, pows[c][e[c]])
            val = val ^ term
        idx = idx[val == 0]

    out = []
    for i in idx.tolist():
        digits = []
        rest = i
        for _ in slots:
            digits.append(rest % q)
            rest //= q
        r1 = [0] * 4
        r2 = [0] * 4
        r1[p1] = 1
        r2[p2] = 1
        for (row, col), d in zip(slots, digits):
            (r1 if row == 0 else r2)[col] = d
        out.append((tuple(r1), tuple(r2)))
    return out


def enumerate_lines(surface: QuarticSurface, ext: int = 1,
                    threads: Optional[int] = None) -> List[Line]:
    """All lines of P^3(GF(2^(k*ext))) on the surface, canonically sorted."""
    if ext < 1:
        raise UsageError("extension degree must be >= 1")
    k = surface.spec.degree
    if k * ext > MAX_DEGREE:
        raise CapabilityError(
            f"target field GF(2^{k * ext}) exceeds the 2^{MAX_DEGREE} limit")
    target = surface.spec if ext == 1 else FieldSpec.default(k * ext)
    surf = surface.base_change(target)
    q = target.size
    fq = surf.f

    tasks = []
    for p1, p2 in SCHUBERT_CELLS:
        total = q ** len(_cell_free_positions(p1, p2))
        for lo in range(0, total, _CHUNK):
            tasks.append((p1, p2, lo, min(lo + _CHUNK, total)))

    def run(task):
        p1, p2, lo, hi = task
        return _enumerate_cell(fq, target, p1, p2, lo, hi)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            chunks = list(ex.map(run, tasks))
    else:
        chunks = [run(t) for t in tasks]

    lines = []
    for rows_list in chunks:
        for r1, r2 in rows_list:
            line = Line(target, [r1, r2], _canonical=True)
            if q >= 4 or surf.contains_line(line):
                lines.append(line)
    lines.sort(key=Line.key)
    return lines


def count_candidate_lines(q: int) -> int:
    """|Gr(2,4)(F_q)| = (q^2+1)(q^2+q+1)."""
    return (q * q + 1) * (q * q + q + 1)


# -- singular point search ----------------------------------------------------


_DIRECT_SCAN_MAX_Q = 64
_ELIMINATION_MAX_Q = 4096


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


def _verify_singular(forms: List[SparsePoly], pt: Sequence[int]) -> bool:
    return all(g.evaluate(list(pt)) == 0 for g in forms)


def _chart_points(chart: int, q: int) -> List[np.ndarray]:
    """Meshgrid coordinate arrays for the chart where coordinate `chart` is
    the leading 1 (coordinates below it are 0, above it free)."""
    nfree = 3 - chart
    n = q ** nfree
    idx = np.arange(n, dtype=np.int64)
    coords = []
    for c in range(4):
        if c < chart:
            coords.append(np.zeros(n, dtype=np.uint32))
        elif c == chart:
            coords.append(np.ones(n, dtype=np.uint32))
        else:
            j = c - chart - 1
            coords.append(((idx // (q ** j)) % q).astype(np.uint32))
    return coords


def _singular_points_direct(forms: List[SparsePoly],
                            spec: FieldSpec) -> List[Row]:
    q = spec.size
    found = []
    for chart in range(4):
        coords = _chart_points(chart, q)
        mask = np.ones(coords[0].shape, dtype=bool)
        for g in forms:
            if g.is_zero():
                continue
            mask &= _eval_on_grid(g, coords, spec) == 0
            if not mask.any():
                break
        for i in np.nonzero(mask)[0].tolist():
            found.append(tuple(int(coords[c][i]) for c in range(4)))
    return found


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


def _singular_points_elimination(forms: List[SparsePoly],
                                 spec: FieldSpec) -> List[Row]:
    """Project out x1 by resultants, scan P^2, lift candidates."""
    q = spec.size
    with_x1 = [g for g in forms if not g.is_zero() and g.degree_in(0) >= 1]
    if len(with_x1) < 2:
        raise CapabilityError(
            "degenerate elimination: too few forms involve x1")
    resultants = []
    for ga, gb in itertools.combinations(with_x1, 2):
        ca = [ga.coefficient_in(0, k)
              for k in range(ga.degree_in(0), -1, -1)]
        cb = [gb.coefficient_in(0, k)
              for k in range(gb.degree_in(0), -1, -1)]
        r = sylvester_resultant(ca, cb, SparsePoly.zero(4, spec))
        if not r.is_zero():
            resultants.append(r)
        if len(resultants) == 2:
            break
    if not resultants:
        raise CapabilityError(
            "all elimination resultants vanish identically; "
            "use a smaller field for the direct scan")
    found = []
    # candidate [1:0:0:0] never appears in the x2,x3,x4 projective scan
    if _verify_singular(forms, (1, 0, 0, 0)):
        found.append((1, 0, 0, 0))
    nonzero_forms = [g for g in forms if not g.is_zero()]
    for chart in range(1, 4):
        coords = _chart_points(chart, q)
        mask = None
        for r in resultants:
            v = _eval_on_grid(r, coords, spec) == 0
            mask = v if mask is None else (mask & v)
            if not mask.any():
                break
        for i in np.nonzero(mask)[0].tolist():
            tail = tuple(int(coords[c][i]) for c in range(1, 4))
            unis = [_univariate_in(g, 0, tail) for g in nonzero_forms]
            if all(u.is_zero() for u in unis):
                if q > _DIRECT_SCAN_MAX_Q:
                    raise CapabilityError(
                        "surface is singular along a whole line over a "
                        "large field; point listing refused")
                for x1 in range(q):
                    pt = canonical_point((x1,) + tail, spec)
                    if _verify_singular(forms, pt):
                        found.append(pt)
                continue
            g = None
            for u in unis:
                if u.is_zero():
                    continue
                g = u if g is None else g.gcd(u)
                if g.degree() == 0:
                    break
            if g is None or g.degree() < 1:
                continue
            for r_bits, _ in g.roots():
                pt = canonical_point((r_bits,) + tail, spec)
                if _verify_singular(forms, pt):
                    found.append(pt)
    return sorted(set(found))


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
    """All singular points over GF(2^(k*m)) for m <= max_ext.

    An empty result is a certificate up to the achieved level, not a
    smoothness proof.  Levels whose field exceeds the elimination-scan
    budget raise CapabilityError; callers wanting a partial certificate
    should lower max_ext.
    """
    if max_ext < 1:
        raise UsageError("max_ext must be >= 1")
    k = surface.spec.degree
    results: List[SingularPoint] = []
    seen_by_level: Dict[int, List[Row]] = {}
    for m in range(1, max_ext + 1):
        if k * m > MAX_DEGREE:
            break
        target = surface.spec if m == 1 else FieldSpec.default(k * m)
        q = target.size
        if q > _ELIMINATION_MAX_Q:
            raise CapabilityError(
                f"singular-point scan at GF(2^{k * m}) exceeds the "
                f"desk-scale budget (q > {_ELIMINATION_MAX_Q}); "
                "lower max_ext for a partial certificate")
        surf = surface.base_change(target)
        forms = [surf.f] + surf.partials()
        if q <= _DIRECT_SCAN_MAX_Q:
            pts = _singular_points_direct(forms, target)
        else:
            pts = _singular_points_elimination(forms, target)
        # drop points already found over subfields
        fresh = []
        for pt in sorted(set(pts)):
            known = False
            for d, old_pts in seen_by_level.items():
                if m % d != 0:
                    continue
                src = surface.spec if d == 1 else FieldSpec.default(k * d)
                emb = src.embedding_to(target)
                if any(tuple(emb.apply_int(c) for c in op) == pt
                       for op in old_pts):
                    known = True
                    break
            if not known:
                fresh.append(pt)
        seen_by_level[m] = sorted(set(pts))
        for pt in fresh:
            results.append(SingularPoint(pt, m, target))
    return results


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

    def neighbors(self, i: int) -> List[int]:
        return [j for j in range(len(self.lines)) if self.adj[i, j]]


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
