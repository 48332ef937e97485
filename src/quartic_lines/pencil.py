"""The genus-one pencil attached to a line on a quartic surface.

After normalizing the line to {x3 = x4 = 0}, the planes containing it form
a pencil H_lambda = {x4 = lambda*x3} (plus the plane {x3 = 0} at infinity).
Cutting the quartic with H_lambda and removing the line leaves the residual
cubic C_lambda.  This module classifies the singular members (the Kodaira
types realizable by plane cubics), computes the ramification of the
degree-3 map from the line to the lambda-line, and audits the interaction
table between the two.

Internal variable layout: residual cubics live in a 4-variable ring
(x1, x2, z, param) where z is the plane coordinate (x3 on the finite
chart, x4 at infinity) and param is the pencil parameter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import MAX_DEGREE, FieldSpec
from .geometry import (Line, QuarticSurface, _univariate_in, canonical_point,
                       kernel_vector, mat_inverse, normalize_line,
                       restrict_form, rref)
from .poly import (Poly, SparsePoly, binary_roots, divide_by_linear,
                   sylvester_resultant)


# -- positions on the lambda-line ---------------------------------------------


@dataclass(frozen=True)
class PencilPosition:
    """A point of the parameter P^1: ('finite', bits, ext) or ('inf', 0, 1).

    `ext` is the degree of the position's field over the pencil's base
    field; finite positions are always reported over the smallest field
    containing them, so structural equality is well defined.
    """
    chart: str
    bits: int
    ext: int

    def is_infinite(self) -> bool:
        return self.chart == "inf"

    def to_json(self) -> dict:
        return {"chart": self.chart, "value": hex(self.bits),
                "ext-degree": self.ext}


POS_INF = PencilPosition("inf", 0, 1)
POS_ZERO = PencilPosition("finite", 0, 1)


# -- pencil construction ------------------------------------------------------


class ResidualPencil:
    """The residual-cubic pencil of a line, in normalized coordinates."""

    __slots__ = ("surface", "line", "spec", "transform", "normalized",
                 "g", "g_inf", "A", "B")

    def __init__(self, surface: QuarticSurface, line: Line):
        spec = line.spec
        if spec.degree % surface.spec.degree != 0:
            raise UsageError("line field does not extend the surface field")
        surf = surface.base_change(spec) if spec != surface.spec else surface
        t, sprime = normalize_line(surf, line)
        self.surface = surface
        self.line = line
        self.spec = spec
        self.transform = t
        self.normalized = sprime
        fp = sprime.f
        lam_z = SparsePoly.monomial(4, spec, (0, 0, 1, 1))
        self.g = _shift_down(fp.substitute({3: lam_z}), 2)
        gi = _shift_down(fp.substitute({2: lam_z}), 3)
        self.g_inf = _swap_vars(gi, 2, 3)
        # restriction to the line: g|_{z=0} = A(x1,x2) + lambda*B(x1,x2)
        a = [0] * 4
        b = [0] * 4
        for e, c in self.g.terms.items():
            if e[2] != 0:
                continue
            if e[3] == 0:
                a[3 - e[0]] ^= c
            elif e[3] == 1:
                b[3 - e[0]] ^= c
            else:
                raise InconsistencyError(
                    "restriction to the line has lambda-degree > 1")
        self.A = a
        self.B = b
        for e in self.g.terms:
            if e[3] > e[2] + 1:
                raise InconsistencyError(
                    "lambda-degree exceeds the z-degree budget")
        # chart consistency: g_inf|_{z=0} must be B + mu*A
        ai = [0] * 4
        bi = [0] * 4
        for e, c in self.g_inf.terms.items():
            if e[2] != 0:
                continue
            if e[3] == 0:
                bi[3 - e[0]] ^= c
            elif e[3] == 1:
                ai[3 - e[0]] ^= c
        if ai != a or bi != b:
            raise InconsistencyError("chart restrictions disagree")

    def position_field(self, pos: PencilPosition) -> FieldSpec:
        if pos.ext == 1:
            return self.spec
        return FieldSpec.default(self.spec.degree * pos.ext)


def _shift_down(p: SparsePoly, var: int) -> SparsePoly:
    """Exact division by the given variable."""
    out = {}
    for e, c in p.terms.items():
        if e[var] == 0:
            raise InconsistencyError(
                "pencil form is not divisible by the plane coordinate; "
                "the marked line does not lie on the surface")
        out[e[:var] + (e[var] - 1,) + e[var + 1:]] = c
    return SparsePoly(p.nvars, p.spec, out)


def _swap_vars(p: SparsePoly, i: int, j: int) -> SparsePoly:
    out = {}
    for e, c in p.terms.items():
        le = list(e)
        le[i], le[j] = le[j], le[i]
        out[tuple(le)] = c
    return SparsePoly(p.nvars, p.spec, out)


def residual_cubic(pencil: ResidualPencil,
                   pos: PencilPosition) -> SparsePoly:
    """The residual cubic at a pencil position, as a ternary cubic in
    (x1, x2, z) over the position's field."""
    target = pencil.position_field(pos)
    g = pencil.g_inf if pos.is_infinite() else pencil.g
    if target != pencil.spec:
        g = g.embed(pencil.spec.embedding_to(target))
    lam = SparsePoly.constant(4, target, pos.bits)
    return g.substitute({3: lam}).drop_vars([0, 1, 2])


# -- plane cubic classification -----------------------------------------------


@dataclass
class CubicSingularity:
    point: Tuple[int, int, int]   # coordinates in the working field
    ext: int                      # minimal level over the cubic's field
    local_type: str               # "node" | "cusp" | "triple"


@dataclass
class FiberReport:
    position: Optional[PencilPosition]
    kodaira: str                  # smooth | I1 | I2 | I3 | II | III | IV
    work_degree: int              # absolute degree of the reporting field
    components: List[Tuple[int, int, int]]   # linear forms, working field
    singular_points: List[CubicSingularity]
    # conjugate component pairs/triples that do not split over the working
    # field are counted here instead of being listed as forms
    hidden_components: int = 0
    flags: List[str] = dc_field(default_factory=list)

    def component_count(self) -> int:
        return len(self.components) + self.hidden_components

    def to_json(self) -> dict:
        return {
            "lambda": self.position.to_json() if self.position else None,
            "kodaira": self.kodaira,
            "work-field-degree": self.work_degree,
            "components": [[hex(c) for c in form]
                           for form in self.components],
            "hidden-components": self.hidden_components,
            "singular-points": [
                {"point": [hex(c) for c in s.point], "ext": s.ext,
                 "type": s.local_type}
                for s in self.singular_points],
            "flags": list(self.flags),
        }


# 3x3 frames over the prime field (rows of x = frame . y; the images of e1,
# i.e. first columns, are pairwise distinct) used to dodge degenerate
# elimination directions
_FRAMES = (
    ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    ((1, 1, 1), (0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (1, 0, 1), (0, 1, 1)),
    ((0, 1, 1), (0, 0, 1), (1, 0, 1)),
)


def _apply_frame(p: SparsePoly, frame) -> SparsePoly:
    """Substitute x_i -> sum_j frame[i][j] * y_j on the first three
    variables (any trailing variables are untouched)."""
    n = p.nvars
    images = {}
    for i in range(3):
        img = SparsePoly.zero(n, p.spec)
        for j in range(3):
            if frame[i][j]:
                img = img + SparsePoly.variable(j, n, p.spec)
        images[i] = img
    return p.substitute(images)


def _binary_collect(p: SparsePoly, vi: int, vj: int) -> List[SparsePoly]:
    """Coefficients of p as a binary form in (vi, vj), vi-major; entries
    are polynomials in the remaining variables.  Input must be homogeneous
    in (vi, vj)."""
    deg = max((e[vi] + e[vj] for e in p.terms), default=0)
    out = [SparsePoly.zero(p.nvars, p.spec) for _ in range(deg + 1)]
    for e, c in p.terms.items():
        if e[vi] + e[vj] != deg:
            raise InconsistencyError(
                "binary collection of a non-homogeneous polynomial")
        ne = list(e)
        ne[vi] = ne[vj] = 0
        out[deg - e[vi]] = out[deg - e[vi]] + SparsePoly(
            p.nvars, p.spec, {tuple(ne): c})
    return out


def _coeff_list(p: SparsePoly, var: int) -> List[SparsePoly]:
    """Coefficients of p in var, highest power first."""
    d = p.degree_in(var)
    return [p.coefficient_in(var, k) for k in range(d, -1, -1)]


def _cubic_singular_points(cubic: SparsePoly, spec: FieldSpec
                           ) -> List[Tuple[int, int, int]]:
    """Spec-rational singular points of a ternary cubic: common zeros of
    the three partials.  (The cubic itself vanishes automatically at such
    points: odd degree plus the Euler relation in characteristic 2.)"""
    if all(cubic.derivative(i).is_zero() for i in range(3)):
        raise InconsistencyError("cubic with identically vanishing partials")
    # eliminate y1 in a frame where the partials cooperate, find the
    # candidate (y2 : y3) directions as roots of binary forms, lift y1 by
    # univariate gcd
    for frame in _FRAMES:
        moved = _apply_frame(cubic, frame)
        parts = [moved.derivative(i) for i in range(3)]
        parts = [p for p in parts if not p.is_zero()]
        with1 = [p for p in parts if p.degree_in(0) >= 1]
        conds = [p for p in parts if 0 <= p.degree_in(0) < 1]
        if len(with1) >= 2:
            c0 = _coeff_list(with1[0], 0)
            for other in with1[1:]:
                r = sylvester_resultant(c0, _coeff_list(other, 0),
                                        SparsePoly.zero(3, spec))
                if not r.is_zero():
                    conds.append(r)
        if not conds:
            continue
        cands = None
        for cond in conds[:3]:
            coeffs = []
            for entry in _binary_collect(cond, 1, 2):
                coeffs.append(0 if entry.is_zero()
                              else entry.evaluate([0, 0, 0]))
            if not any(coeffs) or len(coeffs) < 2:
                continue
            pts = {pt for pt, _ in binary_roots(coeffs, spec)}
            cands = pts if cands is None else (cands & pts)
        if cands is None:
            continue
        found = []
        if all(p.evaluate([1, 0, 0]) == 0 for p in parts):
            found.append((1, 0, 0))
        for y2, y3 in sorted(cands):
            unis = [_univariate_in(p, 0, (y2, y3)) for p in parts]
            if all(u.is_zero() for u in unis):
                raise InconsistencyError(
                    "cubic singular along a whole line (non-reduced)")
            g = None
            for u in unis:
                if u.is_zero():
                    continue
                g = u if g is None else g.gcd(u)
            if g is None or g.degree() < 1:
                continue
            for r_bits, _m in g.roots():
                if all(p.evaluate([r_bits, y2, y3]) == 0 for p in parts):
                    found.append((r_bits, y2, y3))
        out = []
        mul = spec.mul_int
        for y in set(found):
            x = [0, 0, 0]
            for i in range(3):
                for j in range(3):
                    if frame[i][j]:
                        x[i] ^= mul(1, y[j])
            out.append(canonical_point(tuple(x), spec))
        return sorted(set(out))
    raise CapabilityError(
        "singular-point elimination degenerated in every frame")


def _local_quadratic(cubic: SparsePoly, pt: Sequence[int]):
    """Local expansion at a singular point.

    Returns (quad, cone3, pivot, moved, m): the quadratic part [a, b, c]
    (a u^2 + b uv + c v^2), the degree-3 part [t0..t3] in (u, v) (u-major),
    the pivot index, the translated cubic, and the translation matrix m
    (rows; x = y . m maps the point to the pivot vertex).  u, v are the
    two non-pivot variables in increasing order."""
    spec = cubic.spec
    pt = canonical_point(pt, spec)
    pivot = next(i for i in range(3) if pt[i])
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    m[pivot] = list(pt)
    images = {}
    for c in range(3):
        img = SparsePoly.zero(3, spec)
        for j in range(3):
            if m[j][c]:
                img = img + SparsePoly.variable(j, 3, spec).scale(m[j][c])
        images[c] = img
    moved = cubic.substitute(images)
    others = [i for i in range(3) if i != pivot]
    quad = [0, 0, 0]
    cone3 = [0, 0, 0, 0]
    for e, c in moved.terms.items():
        if e[pivot] >= 2:
            raise InconsistencyError(
                "local expansion requested at a non-singular point")
        if e[pivot] == 1:
            eu, ev = e[others[0]], e[others[1]]
            if (eu, ev) == (2, 0):
                quad[0] ^= c
            elif (eu, ev) == (1, 1):
                quad[1] ^= c
            else:
                quad[2] ^= c
        else:
            cone3[e[others[1]]] ^= c
    return quad, cone3, pivot, moved, m


def _divide_by_conic(p: SparsePoly, q: SparsePoly
                     ) -> Optional[Tuple[int, int, int]]:
    """Solve p = q * L for a linear form L in three variables, or None.

    Small linear system over the field (three unknowns, one equation per
    cubic monomial)."""
    spec = p.spec
    cols = []
    monos = set()
    for i in range(3):
        qi = q * SparsePoly.variable(i, 3, spec)
        cols.append(qi)
        monos.update(qi.terms)
    monos.update(p.terms)
    rows = [[cols[0].terms.get(e, 0), cols[1].terms.get(e, 0),
             cols[2].terms.get(e, 0), p.terms.get(e, 0)]
            for e in sorted(monos)]
    red, pivots = rref(rows, spec)
    if 3 in pivots:  # a pivot in the right-hand column: inconsistent
        return None
    sol = [0, 0, 0]
    for row, c in zip(red, pivots):
        sol[c] = row[3]
    if not any(sol):
        return None
    return tuple(sol)


def _pull_back_form(form: Sequence[int], m: Sequence[Sequence[int]],
                    spec: FieldSpec) -> Tuple[int, int, int]:
    """Transport a linear form from y-coordinates to x-coordinates, where
    x = y . m (rows): the x-form coefficients are m^{-1} . form."""
    minv = mat_inverse(m, spec)
    out = [0, 0, 0]
    for d in range(3):
        for c in range(3):
            if minv[d][c] and form[c]:
                out[d] ^= spec.mul_int(minv[d][c], form[c])
    return canonical_point(tuple(out), spec)


def _direction_point(pt: Sequence[int], uv: Tuple[int, int],
                     pivot: int) -> Tuple[int, int, int]:
    """A second point on the tangent line through pt with chart direction
    (u, v) (pivot coordinate zero, so never proportional to pt)."""
    others = [i for i in range(3) if i != pivot]
    d = [0, 0, 0]
    d[others[0]], d[others[1]] = uv
    return tuple(d)


def _line_form_through(p1: Sequence[int], p2: Sequence[int],
                       spec: FieldSpec) -> Tuple[int, int, int]:
    """The linear form vanishing on the line through two distinct points
    (cross product, characteristic-free)."""
    mul = spec.mul_int
    a = mul(p1[1], p2[2]) ^ mul(p1[2], p2[1])
    b = mul(p1[2], p2[0]) ^ mul(p1[0], p2[2])
    c = mul(p1[0], p2[1]) ^ mul(p1[1], p2[0])
    if not (a or b or c):
        raise UsageError("points coincide; no unique line")
    return canonical_point((a, b, c), spec)


def _form_two_points(form: Sequence[int], spec: FieldSpec):
    """Two distinct points spanning the projective line {form = 0}."""
    piv = next(i for i in range(3) if form[i])
    inv = spec.inv_int(form[piv])
    pts = []
    for free in (i for i in range(3) if i != piv):
        v = [0, 0, 0]
        v[free] = 1
        v[piv] = spec.mul_int(inv, form[free])
        pts.append(tuple(v))
    return pts[0], pts[1]


def _conic_nucleus(conic: SparsePoly) -> Optional[Tuple[int, int, int]]:
    """Common zero of the conic's (linear) partials; None when the conic
    is a perfect square.  In characteristic 2 the partial matrix always
    has a kernel (the strange point of the conic)."""
    spec = conic.spec
    rows = []
    for i in range(3):
        d = conic.derivative(i)
        row = [0, 0, 0]
        for e, c in d.terms.items():
            j = next(k for k in range(3) if e[k])
            row[j] ^= c
        rows.append(row)
    if not any(any(r) for r in rows):
        return None
    v = kernel_vector(rows, spec)
    if v is None:  # pragma: no cover - see docstring
        raise InconsistencyError("conic without nucleus in characteristic 2")
    return canonical_point(v, spec)


def _split_conic(conic: SparsePoly, nucleus) -> List[Tuple[int, int, int]]:
    """The two lines of a reducible conic (both pass through the nucleus);
    an empty list when they are conjugate over the coefficient field."""
    work = conic.spec
    aux = None
    for probe in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)):
        dot = 0
        for a, b in zip(probe, nucleus):
            dot ^= work.mul_int(a, b)
        if dot != 0:
            aux = probe
            break
    if aux is None:  # pragma: no cover - some probe always separates
        raise InconsistencyError("no transversal line found")
    base_pts = _form_two_points(aux, work)
    quad = restrict_form(conic, base_pts[0], base_pts[1])
    roots = binary_roots(quad, work)
    if sum(m for _, m in roots) < 2:
        return []
    mul = work.mul_int
    out = []
    for (s, t), _m in roots:
        pt = tuple(mul(s, a) ^ mul(t, b)
                   for a, b in zip(base_pts[0], base_pts[1]))
        out.append(_line_form_through(nucleus, canonical_point(pt, work),
                                      work))
    if len(out) != 2 or out[0] == out[1]:
        raise InconsistencyError("split conic did not yield two lines")
    return out


def classify_fiber(cubic: SparsePoly,
                   position: Optional[PencilPosition] = None) -> FiberReport:
    """Kodaira type of a reduced plane cubic over GF(2^k).

    A reduced plane cubic has at most three singular points and the set is
    Galois-stable, so every singular point has degree <= 3 over the cubic's
    field; a degree-3 point only occurs as the vertices of a triangle of
    conjugate lines, which then leaves no room for a point of lower degree.
    Singular points are therefore searched over extensions of degree 1, 2
    and 3 (within the GF(2^16) cap, flagged when the cap may hide one);
    tangent cones and component matching then happen in one working field,
    enlarged as needed until every relevant binary form splits."""
    if cubic.nvars != 3 or cubic.spec is None:
        raise UsageError("fiber must be a ternary form over a field")
    if cubic.is_zero() or not cubic.is_homogeneous(3):
        raise InconsistencyError("residual fiber is not a cubic form")
    base = cubic.spec
    k = base.degree

    reachable = [d for d in (1, 2, 3) if k * d <= MAX_DEGREE]
    per_level: Dict[int, List[Tuple[int, int, int]]] = {}
    sing: List[Tuple[Tuple[int, int, int], int]] = []
    for d in reachable:
        target = base if d == 1 else FieldSpec.default(k * d)
        cd = cubic if d == 1 else cubic.embed(base.embedding_to(target))
        pts = _cubic_singular_points(cd, target)
        for pt in pts:
            known = False
            for dd, old in per_level.items():
                if d % dd:
                    continue
                src = base if dd == 1 else FieldSpec.default(k * dd)
                emb = src.embedding_to(target)
                if any(tuple(emb.apply_int(c) for c in op) == pt
                       for op in old):
                    known = True
                    break
            if not known:
                sing.append((pt, d))
        per_level[d] = pts

    flags: List[str] = []
    top = reachable[-1]
    if top == 1 or (top == 2 and not sing):
        flags.append("singular-point search capped at extension degree "
                     f"{top}")
    if not sing:
        return FiberReport(position, "smooth", k, [], [], 0, flags)

    wd = k * math.lcm(*(d for _, d in sing))
    if wd > MAX_DEGREE:
        raise CapabilityError(
            "fiber classification needs fields beyond GF(2^16)")
    work = base if wd == k else FieldSpec.default(wd)
    return _classify_in_field(cubic, sing, work, position, flags)


def _classify_in_field(cubic: SparsePoly, sing, work: FieldSpec,
                       position, flags) -> FiberReport:
    """Classification over one working field containing all singular
    points.  Every type decision is rational: distinctness of the roots of
    a binary quadratic is read off the cross coefficient (characteristic
    2), cusp directions are perfect squares, and conjugate component pairs
    are detected by conic divisibility instead of being factored."""
    base = cubic.spec
    k = base.degree
    cw = cubic if work == base else cubic.embed(base.embedding_to(work))

    singularities: List[CubicSingularity] = []
    comp_forms: Dict[Tuple[int, int, int], None] = {}
    hidden = 0
    forced_kod: Optional[str] = None

    def add_component(form) -> None:
        if form in comp_forms:
            return
        quotient = divide_by_linear(cw, form)
        if quotient is None:  # pragma: no cover - callers verified this
            raise InconsistencyError("division/restriction disagree")
        if divide_by_linear(quotient, form) is not None:
            raise InconsistencyError(
                "repeated linear factor: fiber cubic is not reduced")
        comp_forms[form] = None

    for pt, d in sing:
        src = base if d == 1 else FieldSpec.default(k * d)
        ptw = canonical_point(
            tuple(src.embedding_to(work).apply_int(c) for c in pt)
            if src != work else tuple(pt), work)
        quad, cone3, pivot, moved, tmat = _local_quadratic(cw, ptw)
        others = [i for i in range(3) if i != pivot]
        if any(quad):
            if quad[1] != 0:
                local = "node"
                roots = binary_roots(quad, work)
                if sum(m for _, m in roots) == 2:
                    dirs = [r for r, _ in roots]
                else:
                    # conjugate tangent directions: both or neither are
                    # components, decided by conic divisibility
                    dirs = []
                    e_u = [0, 0, 0]
                    e_u[others[0]] = 1
                    e_v = [0, 0, 0]
                    e_v[others[1]] = 1
                    qcone = SparsePoly(3, work, {
                        tuple(2 * a for a in e_u): quad[0],
                        tuple(a + b for a, b in zip(e_u, e_v)): quad[1],
                        tuple(2 * a for a in e_v): quad[2]})
                    lin = _divide_by_conic(moved, qcone)
                    if lin is not None:
                        hidden += 2
                        add_component(_pull_back_form(lin, tmat, work))
                        forced_kod = "I3"
            else:
                local = "cusp"
                s = work.sqrt_int(quad[0])
                t = work.sqrt_int(quad[2])
                dirs = [(t, s)]
        else:
            local = "triple"
            if not any(cone3):
                raise InconsistencyError("zero tangent cone: fiber cubic "
                                         "is singular along a curve")
            # a triple point on a cubic means the cubic equals its own
            # tangent cone: three concurrent lines
            if any(e[pivot] for e in moved.terms):
                raise InconsistencyError(
                    "triple point but the cubic is not its tangent cone")
            forced_kod = "IV"
            roots = binary_roots(cone3, work)
            if any(m > 1 for _, m in roots):
                raise InconsistencyError(
                    "repeated line through a triple point: not reduced")
            dirs = [r for r, _ in roots]
            hidden += 3 - len(dirs)
        singularities.append(CubicSingularity(ptw, d, local))
        for uv in dirs:
            dpt = _direction_point(ptw, uv, pivot)
            if not any(restrict_form(cw, ptw, dpt)):
                add_component(_line_form_through(ptw, dpt, work))

    components = list(comp_forms)
    if len(components) + hidden == 1:
        # backstop: a reducible residual conic whose intersection points
        # with the line escaped the singular-point search caps
        conic = divide_by_linear(cw, components[0])
        nucleus = _conic_nucleus(conic)
        if nucleus is None:
            raise InconsistencyError(
                "residual conic is a double line: fiber not reduced")
        if conic.evaluate(list(nucleus)) == 0:
            extra = _split_conic(conic, nucleus)
            if extra:
                for fm in extra:
                    comp_forms.setdefault(fm)
                components = list(comp_forms)
            else:
                hidden += 2
            forced_kod = "IV" if _form_at(components[0], nucleus,
                                          work) == 0 else "I3"
    if len(components) == 2 and hidden == 0:
        # two lines found; the third is their exact cofactor
        rest = divide_by_linear(divide_by_linear(cw, components[0]),
                                components[1])
        if rest is None or rest.total_degree() != 1:
            raise InconsistencyError("two line components without a "
                                     "linear cofactor")
        lin = [0, 0, 0]
        for e, c in rest.terms.items():
            lin[next(i for i in range(3) if e[i])] ^= c
        add_component(canonical_point(tuple(lin), work))
        components = list(comp_forms)

    ncomp = len(components) + hidden
    if forced_kod is not None and ncomp != 3:
        raise InconsistencyError("component bookkeeping mismatch")
    if ncomp == 0:
        if len(singularities) != 1:
            raise InconsistencyError(
                "several singular points but no line component")
        local = singularities[0].local_type
        if local == "node":
            kod = "I1"
        elif local == "cusp":
            kod = "II"
        else:  # pragma: no cover - triple forces components above
            raise InconsistencyError("triple point without components")
    elif ncomp == 1:
        form = components[0]
        conic = divide_by_linear(cw, form)
        quad = restrict_form(conic, *_form_two_points(form, work))
        # distinct intersection points iff the cross coefficient survives
        kod = "I2" if quad[1] != 0 else "III"
    elif ncomp == 3:
        if forced_kod is not None:
            kod = forced_kod
        else:
            rest = cw
            for f in components:
                rest = divide_by_linear(rest, f)
                if rest is None:
                    raise InconsistencyError(
                        "component product does not divide the cubic")
            if rest.total_degree() != 0:
                raise InconsistencyError("component product degree mismatch")
            vertices = set()
            for fa, fb in itertools.combinations(components, 2):
                v = kernel_vector([list(fa), list(fb)], work)
                if v is None:  # pragma: no cover - lines in P^2 meet
                    raise InconsistencyError("parallel projective lines")
                vertices.add(canonical_point(v, work))
            kod = "IV" if len(vertices) == 1 else "I3"
    else:
        raise InconsistencyError(
            f"{ncomp} components counted on a reduced cubic")

    return FiberReport(position, kod, work.degree, sorted(components),
                       singularities, hidden, flags)


# -- the lambda-discriminant and singular fibers ------------------------------


def _lambda_discriminant(pencil: ResidualPencil) -> Poly:
    """A univariate polynomial in lambda vanishing at every singular
    finite fiber (spurious extra roots allowed; they are filtered by the
    classifier).

    Strategy: in each of several coordinate frames, eliminate y1 from the
    three partials of the fiber cubic by formal resultants, then eliminate
    (y2 : y3) by a binary-form resultant, leaving a condition in lambda
    (the second resultant's entries are univariate in lambda, so it runs
    over GF(2^k)[lambda]).
    A frame can only miss a singular fiber whose every singular point sits
    at the image of e1; the frames have pairwise distinct e1-images, so
    the product of two usable frame conditions misses nothing."""
    spec = pencil.spec
    zero4 = SparsePoly.zero(4, spec)
    discs: List[Poly] = []
    for frame in _FRAMES:
        moved = _apply_frame(pencil.g, frame)
        parts = [moved.derivative(i) for i in range(3)]
        parts = [p for p in parts if not p.is_zero()]
        if len(parts) < 2:
            continue
        with1 = [p for p in parts if p.degree_in(0) >= 1]
        conds = [p for p in parts if 0 <= p.degree_in(0) < 1]
        if len(with1) >= 2:
            c0 = _coeff_list(with1[0], 0)
            for other in with1[1:]:
                r = sylvester_resultant(c0, _coeff_list(other, 0), zero4)
                if not r.is_zero():
                    conds.append(r)
        if len(conds) < 2:
            continue
        dm: Optional[Poly] = None
        pure = [c for c in conds
                if max((e[1] + e[2] for e in c.terms), default=0) == 0]
        if pure:
            dm = pure[0].as_univariate(3)
        else:
            for ca, cb in itertools.combinations(conds, 2):
                fa = [e.as_univariate(3) for e in _binary_collect(ca, 1, 2)]
                fb = [e.as_univariate(3) for e in _binary_collect(cb, 1, 2)]
                if len(fa) < 2 or len(fb) < 2:
                    continue
                r = sylvester_resultant(fa, fb, Poly.zero(spec))
                if not r.is_zero():
                    dm = r
                    break
        if dm is not None and not dm.is_zero():
            discs.append(dm)
        if len(discs) >= 2:
            break
    if len(discs) < 2:
        return Poly.zero(spec)
    out = discs[0]
    for d in discs[1:]:
        out = out * d
    return out


def singular_fibers(pencil: ResidualPencil,
                    max_ext: int = 6) -> List[FiberReport]:
    """All singular fibers at positions of degree <= max_ext over the
    pencil's field.  Full Galois orbits are reported: conjugate positions
    each get their own report, so component counts add up to the geometric
    valency of the line."""
    spec = pencil.spec
    k = spec.degree
    disc = _lambda_discriminant(pencil)
    if disc.is_zero():
        _probe_generic_smoothness(pencil)
        raise CapabilityError(
            "lambda-discriminant degenerated in every frame")

    reports: List[FiberReport] = []
    seen_levels: Dict[int, List[int]] = {}
    for m in range(1, max_ext + 1):
        if k * m > MAX_DEGREE:
            break
        target = spec if m == 1 else FieldSpec.default(k * m)
        dm = disc if m == 1 else disc.embed(spec.embedding_to(target))
        roots = [r for r, _ in dm.roots()]
        for r in roots:
            known = False
            for dd, old in seen_levels.items():
                if m % dd:
                    continue
                src = spec if dd == 1 else FieldSpec.default(k * dd)
                emb = src.embedding_to(target)
                if any(emb.apply_int(o) == r for o in old):
                    known = True
                    break
            if known:
                continue
            pos = PencilPosition("finite", r, m)
            rep = classify_fiber(residual_cubic(pencil, pos), pos)
            if rep.kodaira != "smooth":
                reports.append(rep)
        seen_levels[m] = roots

    rep = classify_fiber(residual_cubic(pencil, POS_INF), POS_INF)
    if rep.kodaira != "smooth":
        reports.append(rep)
    return reports


def _probe_generic_smoothness(pencil: ResidualPencil) -> None:
    """Distinguish a generically singular pencil (an inconsistency for a
    smooth quartic) from a mere elimination failure."""
    k = pencil.spec.degree
    ext = 2 if 2 * k <= MAX_DEGREE else 1
    probe_spec = pencil.spec if ext == 1 else FieldSpec.default(k * ext)
    for bits in range(2, min(probe_spec.size, 8)):
        pos = PencilPosition("finite", bits, ext)
        rep = classify_fiber(residual_cubic(pencil, pos), pos)
        if rep.kodaira == "smooth":
            return
    raise InconsistencyError(
        "pencil appears generically singular; this cannot happen for a "
        "line on a smooth quartic in this setting")


_EULER_MIN = {"I1": 1, "I2": 2, "I3": 3, "II": 4, "III": 4, "IV": 4}


def euler_budget_audit(fibers: Sequence[FiberReport]) -> Tuple[int, bool]:
    """Lower bound for the summed Euler contributions (wild parts at their
    minimum) and whether it fits the K3 budget of 24."""
    total = sum(_EULER_MIN[f.kodaira] for f in fibers)
    return total, total <= 24


def fiber_line_count(fibers: Sequence[FiberReport]) -> int:
    """Total number of line components over all singular fibers; equals
    the geometric valency of the pencil's line."""
    return sum(f.component_count() for f in fibers)


def geometric_valency(surface: QuarticSurface, line: Line,
                      max_ext: int = 6) -> int:
    pencil = ResidualPencil(surface, line)
    return fiber_line_count(singular_fibers(pencil, max_ext))


# -- ramification of the restriction to the line ------------------------------


@dataclass
class RamificationPoint:
    pos: Tuple[int, int]     # point of the line as (x1 : x2), normalized
    ext: int                 # degree over the pencil field
    image: PencilPosition
    e: int                   # ramification index, 2 or 3


@dataclass
class RamificationData:
    points: List[RamificationPoint]
    type: str                # "(1)" | "(1,1)" | "(1,2)" | "(2,2)"

    def to_json(self) -> dict:
        return {"points": [{"pos": [hex(p.pos[0]), hex(p.pos[1])],
                            "ext": p.ext, "image": p.image.to_json(),
                            "e": p.e}
                           for p in self.points],
                "type": self.type}


def _form_mul(a: Sequence[int], b: Sequence[int], spec: FieldSpec
              ) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    mul = spec.mul_int
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] ^= mul(x, y)
    return out


def _form_derivs(f: Sequence[int], spec: FieldSpec
                 ) -> Tuple[List[int], List[int]]:
    """(df/du, df/dv) of a binary form (u-major, formal degree len-1);
    characteristic 2 keeps odd exponents only."""
    d = len(f) - 1
    du = [0] * d
    dv = [0] * d
    for i, c in enumerate(f):      # c * u^(d-i) * v^i
        if c:
            if (d - i) % 2 == 1:
                du[i] = c
            if i % 2 == 1:
                dv[i - 1] = c
    return du, dv


def _eval_form(form: Sequence[int], u0: int, v0: int,
               spec: FieldSpec) -> int:
    d = len(form) - 1
    mul, powi = spec.mul_int, spec.pow_int
    out = 0
    for i, c in enumerate(form):
        if c:
            out ^= mul(c, mul(powi(u0, d - i), powi(v0, i)))
    return out


def _form_root_multiplicity(form: Sequence[int], root: Tuple[int, int],
                            spec: FieldSpec) -> int:
    """Multiplicity of a projective root in a binary form (u-major): the
    order in t of form(s*root + t*w) for a second point w."""
    d = len(form) - 1
    w = (0, 1) if root[0] else (1, 0)
    binary = SparsePoly(2, spec, {(d - i, i): c for i, c in enumerate(form)})
    out = restrict_form(binary, root, w)
    return next((j for j, c in enumerate(out) if c), d + 1)


def _minimal_position(lam: int, ext: int, base: FieldSpec) -> PencilPosition:
    """A finite position over the smallest subfield that contains it."""
    if ext == 1:
        return PencilPosition("finite", lam, 1)
    k = base.degree
    target = FieldSpec.default(k * ext)
    for dd in range(1, ext):
        if ext % dd:
            continue
        if target.pow_int(lam, 2 ** (k * dd)) == lam:
            src = base if dd == 1 else FieldSpec.default(k * dd)
            table = src.embedding_to(target).apply_arr(
                np.arange(src.size, dtype=np.uint32))
            hits = np.nonzero(table == lam)[0]
            return PencilPosition("finite", int(hits[0]), dd)
    return PencilPosition("finite", lam, ext)


def ramification_type(pencil: ResidualPencil) -> RamificationData:
    """Ramification of the degree-3 map p -> [A(p) : B(p)] from the line
    to the lambda-line.

    The ramification divisor is the formal degree-4 Wronskian
    W = A_u B_v + A_v B_u; at each root, the index e is the multiplicity
    of that root in the fiber form B(p0) A + A(p0) B.  The degree budget
    forces 1 or 2 ramification points with indices in {2, 3}."""
    spec = pencil.spec
    a, b = pencil.A, pencil.B
    if not any(a) or not any(b):
        raise UsageError("degenerate restriction: A or B vanishes, the "
                         "map to the lambda-line is not finite of degree 3")
    res = sylvester_resultant([spec.element(c) for c in a],
                              [spec.element(c) for c in b], spec.zero)
    if not res:
        raise UsageError("A and B share a root: the restriction to the "
                         "line is degenerate")
    au, av = _form_derivs(a, spec)
    bu, bv = _form_derivs(b, spec)
    w = [x ^ y for x, y in zip(_form_mul(au, bv, spec),
                               _form_mul(av, bu, spec))]
    if not any(w):
        raise InconsistencyError(
            "vanishing Wronskian for a separable degree-3 map")
    k = spec.degree
    points: List[RamificationPoint] = []
    budget = 4
    seen: Dict[int, List[Tuple[int, int]]] = {}
    for d in (1, 2, 3, 4):
        if k * d > MAX_DEGREE or budget <= 0:
            break
        target = spec if d == 1 else FieldSpec.default(k * d)
        emb = None if d == 1 else spec.embedding_to(target)
        wd = w if emb is None else [emb.apply_int(c) for c in w]
        roots = binary_roots(wd, target)
        for (u0, v0), mult in roots:
            known = False
            for dd, old in seen.items():
                if d % dd:
                    continue
                src = spec if dd == 1 else FieldSpec.default(k * dd)
                e2 = src.embedding_to(target)
                if any((e2.apply_int(ou), e2.apply_int(ov)) == (u0, v0)
                       for ou, ov in old):
                    known = True
                    break
            if known:
                continue
            ad = a if emb is None else [emb.apply_int(c) for c in a]
            bd = b if emb is None else [emb.apply_int(c) for c in b]
            a0 = _eval_form(ad, u0, v0, target)
            b0 = _eval_form(bd, u0, v0, target)
            fiber_form = [target.mul_int(b0, x) ^ target.mul_int(a0, y)
                          for x, y in zip(ad, bd)]
            e = _form_root_multiplicity(fiber_form, (u0, v0), target)
            if e not in (2, 3):
                raise InconsistencyError(
                    f"ramification index {e} outside {{2, 3}}")
            image = _minimal_position(target.div_int(a0, b0), d, spec) \
                if b0 else POS_INF
            points.append(RamificationPoint((u0, v0), d, image, e))
            budget -= mult
        seen[d] = [r for r, _ in roots]
    if budget > 0:
        raise CapabilityError("ramification points escape the field cap")
    if len(points) not in (1, 2):
        raise InconsistencyError(
            f"{len(points)} ramification points; characteristic 2 allows "
            "only 1 or 2")
    label = {(2,): "(1)", (2, 2): "(1,1)", (2, 3): "(1,2)",
             (3, 3): "(2,2)"}.get(tuple(sorted(p.e for p in points)))
    if label is None:
        raise InconsistencyError("impossible ramification index multiset")
    return RamificationData(points, label)


# -- interaction audit: ramification against fiber types ----------------------


@dataclass
class FiberAuditEntry:
    position: Optional[PencilPosition]
    kodaira: str
    ramification: str            # "unramified" | "simple" | "double"
    ok: Optional[bool]           # None: not decidable within field caps
    detail: str


_ALLOWED = {
    "unramified": {"I1", "I3", "IV"},
    "simple": {"II"},
    "double": {"I1", "I2", "IV"},
}


def second_kind_fiber_audit(pencil: ResidualPencil, ram: RamificationData,
                            fibers: Sequence[FiberReport]
                            ) -> List[FiberAuditEntry]:
    """Check every singular fiber against the allowed interaction table
    for lines of the second kind:

      unramified: I1 (three smooth points), I3/IV (one smooth point on
                  each component);
      simple:     II (one smooth point plus the cusp);
      double:     I1 (tangent at the node), I2 (tangent at one of the
                  nodes), IV (through the triple point).

    Violations come back as failed entries, never as exceptions."""
    out = []
    for fib in fibers:
        ram_here = "unramified"
        for p in ram.points:
            if p.image == fib.position:
                ram_here = "simple" if p.e == 2 else "double"
        ok, detail = _audit_one_fiber(pencil, fib, ram_here)
        out.append(FiberAuditEntry(fib.position, fib.kodaira, ram_here,
                                   ok, detail))
    return out


def _audit_one_fiber(pencil: ResidualPencil, fib: FiberReport,
                     ram_here: str) -> Tuple[Optional[bool], str]:
    if fib.kodaira not in _ALLOWED[ram_here]:
        return False, (f"type {fib.kodaira} not allowed under "
                       f"{ram_here} ramification")
    pos = fib.position
    pf = pencil.position_field(pos)
    if pos.is_infinite():
        fiber_form = list(pencil.B)
    else:
        emb = None if pf == pencil.spec else pencil.spec.embedding_to(pf)
        av = pencil.A if emb is None else [emb.apply_int(c)
                                           for c in pencil.A]
        bv = pencil.B if emb is None else [emb.apply_int(c)
                                           for c in pencil.B]
        fiber_form = [x ^ pf.mul_int(pos.bits, y) for x, y in zip(av, bv)]
    if not any(fiber_form):
        return False, "line lies inside the fiber plane cut"

    # a field where the intersection divisor splits and the fiber data fits
    work = None
    div_roots = None
    for extra in (1, 2, 3, 6):
        wd = math.lcm(pf.degree * extra, fib.work_degree)
        if wd > MAX_DEGREE:
            continue
        target = FieldSpec.default(wd)
        ff = fiber_form if target.degree == pf.degree else \
            [pf.embedding_to(target).apply_int(c) for c in fiber_form]
        roots = binary_roots(ff, target)
        if sum(m for _, m in roots) == 3:
            work = target
            div_roots = roots
            break
    if work is None:
        return None, "intersection divisor does not split within field caps"

    wf = FieldSpec.default(fib.work_degree)
    femb = None if wf.degree == work.degree else wf.embedding_to(work)

    def lift(pt):
        return canonical_point(
            pt if femb is None else tuple(femb.apply_int(c) for c in pt),
            work)

    comps = [lift(f) for f in fib.components]
    sing_pts = {lift(s.point): s.local_type for s in fib.singular_points}
    line_pts = [(canonical_point((u, v, 0), work), m)
                for (u, v), m in div_roots]

    if ram_here == "unramified":
        if len(line_pts) != 3:
            return False, "unramified fiber met in fewer than 3 points"
        if any(p in sing_pts for p, _ in line_pts):
            return False, "line passes through a singular point of the fiber"
        if fib.kodaira in ("I3", "IV"):
            # a smooth point lying on no listed component sits on exactly
            # one of the hidden (conjugate) components; two such points
            # cannot share a hidden component because that component would
            # then be the cut line itself
            used = set()
            off = 0
            for p, _ in line_pts:
                on = [i for i, f in enumerate(comps)
                      if _form_at(f, p, work) == 0]
                if len(on) > 1 or (on and on[0] in used):
                    return False, ("intersection points are not one "
                                   "smooth point per component")
                if on:
                    used.add(on[0])
                else:
                    off += 1
            if off != fib.hidden_components or len(used) != len(comps):
                return False, ("intersection points are not one "
                               "smooth point per component")
        return True, "ok"
    if ram_here == "simple":
        mults = sorted(m for _, m in line_pts)
        if mults != [1, 2]:
            return False, f"intersection multiplicities {mults} != [1, 2]"
        cusp = next((p for p, t in sing_pts.items() if t == "cusp"), None)
        if cusp is None:
            return False, "II fiber without a recorded cusp"
        double_pt = next(p for p, m in line_pts if m == 2)
        if double_pt != cusp:
            return False, "double contact point is not the cusp"
        return True, "ok"
    # double ramification: single triple contact at the marked point
    if len(line_pts) != 1 or line_pts[0][1] != 3:
        return False, "double ramification needs a single triple contact"
    p = line_pts[0][0]
    if fib.kodaira == "IV":
        triple = next((q for q, t in sing_pts.items() if t == "triple"),
                      None)
        if triple is None:
            return False, "IV fiber without a recorded triple point"
        return ((p == triple), "ok" if p == triple
                else "line misses the triple point")
    nodes = [q for q, t in sing_pts.items() if t == "node"]
    if p in nodes:
        return True, "ok"
    return False, "triple contact point is not a node"


def _form_at(form: Sequence[int], pt: Sequence[int], spec: FieldSpec) -> int:
    out = 0
    for c, x in zip(form, pt):
        out ^= spec.mul_int(c, x)
    return out
