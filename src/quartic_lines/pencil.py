"""The genus-one pencil attached to a line on a quartic surface.

After normalizing the line to {x3 = x4 = 0}, the planes containing it form
a pencil H_lambda = {x4 = lambda*x3} (plus the plane {x3 = 0} at infinity).
Cutting the quartic with H_lambda and removing the line leaves the residual
cubic C_lambda.  This module classifies the singular members (the Kodaira
types realizable by plane cubics), computes the ramification of the
degree-3 map from the line to the lambda-line, and audits the interaction
table between the two.

Internal variable layout: the pencil form g lives in a 4-variable ring
(x1, x2, z, lambda), where z = x3 is the plane coordinate and lambda the
pencil parameter; it is read off the normalized quartic by an exponent
map.  There is no second chart: the fiber at infinity is taken from the
normalized quartic on {x3 = 0}, as a cubic in (x1, x2, x4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import MAX_DEGREE, FieldSpec, poly_mul, root_orbits
from .geometry import (FormLevels, Line, QuarticSurface, canonical_point,
                       centred_frames, first_variable_conditions,
                       gcd_at_tail, lift_tails, mat_inverse, normalize_line,
                       vec_mat)
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
                 "g", "A", "B")

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
        # the cut by x4 = lambda*x3, divided by x3: c x1^i x2^j x3^k x4^l
        # becomes c x1^i x2^j z^(k+l-1) lambda^l, an injective exponent map
        # (normalize_line refuses monomials in x1, x2 only)
        self.g = SparsePoly(4, spec, {(i, j, k + l - 1, l): c for (
            i, j, k, l), c in sprime.f.terms.items()})
        # restriction to the line: g|_{z=0} = A(x1,x2) + lambda*B(x1,x2)
        on_line = _binary_cubic_in_lambda(self.g)
        self.A = [p[0] for p in on_line]
        self.B = [p[1] for p in on_line]

    def position_field(self, pos: PencilPosition) -> FieldSpec:
        return self.spec.level(pos.ext)


def _binary_cubic_in_lambda(p: SparsePoly) -> List[Poly]:
    """Restrict a (x1, x2, z, param) cubic to z = 0 and collect the four
    binary-cubic coefficients (x1-major) as polynomials in the parameter."""
    spec = p.spec
    buckets: List[Dict[int, int]] = [dict() for _ in range(4)]
    for e, c in p.terms.items():
        if e[2] != 0:
            continue
        d = buckets[e[1]]
        d[e[3]] = d.get(e[3], 0) ^ c
    out = []
    for d in buckets:
        n = max(d, default=-1) + 1
        out.append(Poly(spec, [d.get(i, 0) for i in range(n)]))
    return out


def residual_cubic(pencil: ResidualPencil,
                   pos: PencilPosition) -> SparsePoly:
    """The residual cubic at a pencil position, as a ternary cubic over
    the position's field.  At a finite position it is g, embedded there,
    at lambda = the position (`_at_lambda`), in (x1, x2, x3).  At infinity
    it is the plane x3 = 0: the terms of the normalized quartic free of
    x3, divided by x4, in (x1, x2, x4).  That fiber is searched in its own
    frames: the lambda-discriminant's frames mix z = x3 with x1 and x2,
    so their conditions cannot be read at mu = 1/lambda = 0."""
    if pos.is_infinite():
        return SparsePoly(3, pencil.spec, {
            (i, j, l - 1): c for (i, j, k, l), c
            in pencil.normalized.f.terms.items() if k == 0})
    target = pencil.position_field(pos)
    g = pencil.g
    if target != pencil.spec:
        g = g.embed(pencil.spec.embedding_to(target))
    return _at_lambda(g, pos.bits)


def _at_lambda(g: SparsePoly, lam: int) -> SparsePoly:
    """A form in (y1, y2, y3, param) at param = lam, as a form in
    (y1, y2, y3): one pass over the terms, the powers of lam cached."""
    mul = g.spec.mul_int
    powers = [1]
    out: Dict[Tuple[int, ...], int] = {}
    for e, c in g.terms.items():
        while len(powers) <= e[3]:
            powers.append(mul(powers[-1], lam))
        key = e[:3]
        out[key] = out.get(key, 0) ^ mul(c, powers[e[3]])
    return SparsePoly(3, g.spec, out)


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


# The centre of the first frame the eliminations on fiber cubics try
# (`centred_frames`)
_CENTRE = (1, 1, 1)


def _frame_conditions(p: SparsePoly, frame):
    """The nonzero partials in the first three variables of p moved by the
    frame, and the lazy conditions left after eliminating y1 from them."""
    moved = p.linear_change(frame)
    parts = [d for d in (moved.derivative(i) for i in range(3))
             if not d.is_zero()]
    return parts, first_variable_conditions(parts)


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


def _dehomogenized(spec: FieldSpec, binaries
                   ) -> List[Tuple[Poly, int]]:
    """(cond(1, t), formal degree) for each binary condition, given by its
    coefficient list in (y2, y3), y2-major, that is neither zero nor free
    of (y2 : y3)."""
    return [(Poly(spec, cs), len(cs) - 1) for cs in binaries
            if len(cs) >= 2 and any(cs)]


def _cubic_singular_points(cubic: SparsePoly, top: int
                           ) -> List[Tuple[Tuple[int, int, int], int]]:
    """Singular points of degree d <= top over the cubic's field GF(q):
    common zeros of the three partials, each as (point canonical in
    GF(q^d), d), sorted by degree, then point.  (The cubic itself vanishes
    automatically at such points: odd degree plus the Euler relation in
    characteristic 2.)

    The GF(2) frames of `centred_frames`, centred at (1:1:1) first, are
    tried in turn: in each, y1 is eliminated from the moved partials by
    the shared kernel `first_variable_conditions`, and `_frame_points`
    finds the points from the <= 3 binary conditions left, unless none is
    left.  (A finite fiber of a pencil first tries the
    lambda-discriminant's frame specialised at its position, through the
    same step; see `classify_fiber`.)"""
    spec = cubic.spec
    if all(cubic.derivative(i).is_zero() for i in range(3)):
        raise InconsistencyError("cubic with identically vanishing partials")
    for fr in centred_frames(_CENTRE):
        parts, conds = _frame_conditions(cubic, fr)
        dehom = _dehomogenized(spec, (
            [0 if entry.is_zero() else entry.evaluate([0, 0, 0])
             for entry in _binary_collect(cond, 1, 2)]
            for cond in itertools.islice(conds, 3)))
        found = _frame_points(parts, dehom, fr, top)
        if found is not None:
            return found
    raise CapabilityError(
        "singular-point elimination degenerated in every frame")


def _frame_points(parts: List[SparsePoly], dehom: List[Tuple[Poly, int]],
                  frame, top: int
                  ) -> Optional[List[Tuple[Tuple[int, int, int], int]]]:
    """The singular points of degree <= top of a plane cubic from one
    frame, as `_cubic_singular_points` returns them; None when no
    condition is left.

    `parts` are the cubic's nonzero partials moved by the frame (x = y.m)
    and `dehom` the dehomogenizations in t = y3/y2 of binary conditions
    in the elimination ideal of `parts` and k[y2, y3], each with its
    formal degree.  Every singular point other than the frame's centre
    (1:0:0) then has a direction (y2 : y3) that is a common root of the
    conditions: a root of the gcd of their dehomogenizations, grouped by
    `root_orbits`, or (0 : 1) when every condition drops degree.  The
    directions are lifted to points by `lift_tails`, which checks the
    centre directly and every candidate on all partials, so a common root
    of the conditions that carries no singular point costs one check and
    changes no answer."""
    if not dehom:
        return None
    spec = dehom[0][0].spec
    g = dehom[0][0]
    for p, _ in dehom[1:]:
        g = g.gcd(p)
    levels, _ = root_orbits(g.coeffs, spec, top)
    dirs = [((1, r), d) for d, (_, roots) in enumerate(levels, 1)
            for r in roots]
    if all(p.degree() < deg for p, deg in dehom):
        dirs.append(((0, 1), 1))
    forms = FormLevels(parts)
    found = lift_tails(forms, dirs, top)
    if found is None:
        raise InconsistencyError(
            "cubic singular along a whole line (non-reduced)")
    out = {(canonical_point(vec_mat(y, frame, forms.field(e)),
                            forms.field(e)), e)
           for y, e in found}
    return sorted(out, key=lambda pe: (pe[1], pe[0]))


def _local_quadratic(cubic: SparsePoly, pt: Sequence[int]):
    """Local expansion at a singular point pt, canonical with pivot p.

    In y-coordinates with x = y . m (m: the identity with row p replaced
    by pt) the cubic is s * Q(w) + C(w), s = y_p and w the other two
    coordinates, because the s^3 and s^2 parts f(pt) and grad f(pt) . w
    vanish at a singular point.  Q is sum_i pt_i * df/dx_i and C is f, both
    restricted to {x_p = 0}.  Returns (quad, cone3, pivot, m): Q as
    [a, b, c] (a u^2 + b uv + c v^2), C as [t0..t3] in (u, v) (u-major),
    the pivot index and m (rows).  u, v are the two non-pivot variables in
    increasing order."""
    spec = cubic.spec
    pt = canonical_point(pt, spec)
    pivot = next(i for i in range(3) if pt[i])
    if any(cubic.derivative(i).evaluate(list(pt)) for i in range(3)):
        raise InconsistencyError(
            "local expansion requested at a non-singular point")
    m = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    m[pivot] = list(pt)
    v = [i for i in range(3) if i != pivot][1]
    mul = spec.mul_int
    quad = [0, 0, 0]
    cone3 = [0, 0, 0, 0]
    for e, c in cubic.terms.items():
        if e[pivot] == 0:
            cone3[e[v]] ^= c
        for i in range(3):
            # d/dx_i keeps x^e (char 2: odd e_i) as x^(e - e_i) on {x_p = 0}
            if e[i] % 2 and e[pivot] == (i == pivot) and pt[i]:
                quad[e[v] - (i == v)] ^= mul(pt[i], c)
    return quad, cone3, pivot, m


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


def classify_fiber(cubic: SparsePoly,
                   position: Optional[PencilPosition] = None, *,
                   frame=None) -> FiberReport:
    """Kodaira type of a reduced plane cubic over GF(2^k).

    A reduced plane cubic has at most three singular points and the set is
    Galois-stable, so every singular point has degree <= 3 over the cubic's
    field; a degree-3 point only occurs as the vertices of a triangle of
    conjugate lines, which then leaves no room for a point of lower degree.
    Singular points of degree 1, 2 and 3 come from one elimination over
    the cubic's field (within the GF(2^16) cap, flagged when the cap may
    hide one); the type and the line components are then read off the
    local expansion at each of them, in the smallest field holding them
    all (`_classify_in_field`).

    `frame`, when given, is a frame already prepared for this cubic, as
    (moved partials, dehomogenized conditions, frame): `singular_fibers`
    passes the lambda-discriminant's frame specialised at the fiber's
    position (`_PencilFrame.at`).  The singular points come from it
    (`_frame_points`) unless it leaves no condition, and else from the
    cubic's own frames (`_cubic_singular_points`)."""
    if cubic.nvars != 3 or cubic.spec is None:
        raise UsageError("fiber must be a ternary form over a field")
    if cubic.is_zero() or not cubic.is_homogeneous(3):
        raise InconsistencyError("residual fiber is not a cubic form")
    k = cubic.spec.degree
    top = min(3, MAX_DEGREE // k)
    sing = None if frame is None else _frame_points(*frame, top)
    if sing is None:
        sing = _cubic_singular_points(cubic, top)

    flags: List[str] = []
    if top == 1 or (top == 2 and not sing):
        flags.append("singular-point search capped at extension degree "
                     f"{top}")
    if not sing:
        return FiberReport(position, "smooth", k, [], [], 0, flags)

    wd = k * math.lcm(*(d for _, d in sing))
    if wd > MAX_DEGREE:
        raise CapabilityError(
            "fiber classification needs fields past GF(2^16)")
    work = cubic.spec if wd == k else FieldSpec.default(wd)
    return _classify_in_field(cubic, sing, work, position, flags)


def _classify_in_field(cubic: SparsePoly, sing, work: FieldSpec,
                       position, flags) -> FiberReport:
    """Classification over one working field containing all singular
    points, read off the local model s Q(w) + C(w) at each of them
    (`_local_quadratic`).  On the line through the point in a tangent
    direction w, where Q(w) = 0, the cubic is t^3 C(w), so that line is a
    component iff C(w) = 0.  Distinct tangent directions are read off Q's
    cross coefficient (characteristic 2) and a cusp's direction is a
    square root.  Conjugate tangent directions are both components iff Q
    divides C, and then the cubic is Q(w) (s + L(w)) with C = Q L.

    Every component is found through a found singular point on it, so
    the types follow: a line and a conic meet in two nodes (I2) or are
    tangent at a tacnode, whose tangent cone is a square (III), and three
    lines are IV only through a triple point, always rational and found,
    else I3."""
    base = cubic.spec
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
            raise InconsistencyError("division/local expansion disagree")
        if divide_by_linear(quotient, form) is not None:
            raise InconsistencyError(
                "repeated linear factor: fiber cubic is not reduced")
        comp_forms[form] = None

    for pt, d in sing:
        src = base.level(d)
        ptw = canonical_point(
            tuple(src.embedding_to(work).apply_int(c) for c in pt)
            if src != work else tuple(pt), work)
        quad, cone3, pivot, tmat = _local_quadratic(cw, ptw)
        if any(quad):
            if quad[1] != 0:
                local = "node"
                dirs = [r for r, _ in binary_roots(quad, work)]
                if not dirs:
                    # conjugate tangent directions, so Q(1, t) has degree 2
                    lin, rest = Poly(work, cone3).divmod(Poly(work, quad))
                    if rest.is_zero():
                        form = [0, 0, 0]
                        u, v = (i for i in range(3) if i != pivot)
                        form[pivot], form[u], form[v] = 1, lin[0], lin[1]
                        hidden += 2
                        add_component(_pull_back_form(form, tmat, work))
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
            # with Q = 0 the moved cubic is C(w), its own tangent cone:
            # three concurrent lines
            forced_kod = "IV"
            roots = binary_roots(cone3, work)
            if any(m > 1 for _, m in roots):
                raise InconsistencyError(
                    "repeated line through a triple point: not reduced")
            dirs = [r for r, _ in roots]
            hidden += 3 - len(dirs)
        singularities.append(CubicSingularity(ptw, d, local))
        for uv in dirs:
            if _eval_form(cone3, *uv, work) == 0:
                add_component(_line_form_through(
                    ptw, _direction_point(ptw, uv, pivot), work))

    components = list(comp_forms)
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
        kod = "III" if any(s.local_type == "cusp"
                           for s in singularities) else "I2"
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
            kod = "I3"
    else:
        raise InconsistencyError(
            f"{ncomp} components counted on a reduced cubic")

    return FiberReport(position, kod, work.degree, sorted(components),
                       singularities, hidden, flags)


# -- the lambda-discriminant and singular fibers ------------------------------


class _PencilFrame(NamedTuple):
    """The frame of the lambda-discriminant, kept for the fibers: the
    moved pencil partials, forms in (y1, y2, y3, lambda), and for each
    condition on (y2 : y3) its coefficients as a binary form in (y2, y3),
    y2-major, each a polynomial in lambda."""
    frame: Tuple[Tuple[int, int, int], ...]
    parts: List[SparsePoly]
    conds: List[List[Poly]]

    def embed(self, emb) -> "_PencilFrame":
        return _PencilFrame(self.frame, [p.embed(emb) for p in self.parts],
                            [[c.embed(emb) for c in cs] for cs in self.conds])

    def at(self, lam: int):
        """The frame of the fiber at lambda = lam, in the coefficient field,
        as `classify_fiber` takes it."""
        parts = [q for q in (_at_lambda(p, lam) for p in self.parts)
                 if not q.is_zero()]
        dehom = _dehomogenized(self.parts[0].spec, (
            [c.eval_int(lam) for c in cs] for cs in self.conds))
        return parts, dehom, self.frame


def _lambda_discriminant(pencil: ResidualPencil
                         ) -> Tuple[Poly, Optional[_PencilFrame]]:
    """A univariate polynomial in lambda vanishing at every singular
    finite fiber (spurious extra roots allowed; they are filtered by the
    classifier), and the frame it was found in; zero and None when every
    frame degenerates.

    Strategy: in the first usable GF(2) frame of `centred_frames`, the
    one centred at (1:1:1) first, eliminate y1 from the three partials of
    the fiber cubic by formal resultants, then eliminate (y2 : y3) by a
    binary-form resultant, leaving a condition in lambda (the second
    resultant's entries are univariate in lambda, so it runs over
    GF(2^k)[lambda]).
    The frame can only miss a singular fiber whose every singular point
    sits at its centre P, the image of e1.  The fibers singular at P are
    the roots of the gcd over i of dg/dx_i(P, lambda), so the frame
    condition times that gcd misses nothing.  A frame whose centre gcd
    vanishes identically (every fiber singular at P, so the surface is
    singular) is skipped."""
    spec = pencil.spec
    partials = [pencil.g.derivative(i) for i in range(3)]
    for frame in centred_frames(_CENTRE):
        at_centre = gcd_at_tail(partials, 3, frame[0])
        if at_centre is None:
            continue
        parts, conds = _frame_conditions(pencil.g, frame)
        coeffs = [[e.as_univariate(3) for e in _binary_collect(c, 1, 2)]
                  for c in conds]
        if len(coeffs) < 2:
            continue
        dm: Optional[Poly] = None
        pure = [cs[0] for cs in coeffs if len(cs) == 1]
        if pure:
            dm = pure[0]
        else:
            for fa, fb in itertools.combinations(coeffs, 2):
                r = sylvester_resultant(fa, fb, Poly.zero(spec))
                if not r.is_zero():
                    dm = r
                    break
        if dm is not None and not dm.is_zero():
            return dm * at_centre, _PencilFrame(frame, parts, coeffs)
    return Poly.zero(spec), None


# Positions of degree past this over the pencil's field are flagged, not
# classified.
_FIBER_MAX_EXT = 6


def singular_fibers(pencil: ResidualPencil,
                    flags: Optional[List[str]] = None) -> List[FiberReport]:
    """All singular fibers at positions of degree <= _FIBER_MAX_EXT over
    the pencil's field (and at most GF(2^16)).  Full Galois orbits are
    reported: conjugate positions each get their own report, so component
    counts add up to the geometric valency of the line.

    `flags`, when given, gets what the reports may miss: the total degree
    of the orbits past the cap, left unsplit by `root_orbits`; and when
    the Euler sum (`_EULER_MIN`) is below 24, each dropped orbit whose
    singular-point search was capped, or else, with only I1, I2 and I3
    fibers and no flag at all, the sum itself.

    A finite fiber's singular points come from the lambda-discriminant's
    frame, embedded once per level and specialised at the root: a formal
    resultant is a polynomial identity in its inputs' coefficients, so it
    commutes with setting lambda, and the specialised conditions lie in
    the elimination ideal of the fiber's moved partials.  When they all
    vanish at a root, the fiber falls back to its own frames.  The fiber
    at infinity is searched in its own frames (see `residual_cubic`)."""
    spec = pencil.spec
    disc, frame = _lambda_discriminant(pencil)
    if disc.is_zero():
        _probe_generic_smoothness(pencil)
        raise CapabilityError(
            "lambda-discriminant degenerated in every frame")

    found: List[FiberReport] = []
    levels, rest = root_orbits(disc.coeffs, spec, _FIBER_MAX_EXT)
    for m, (target, roots) in enumerate(levels, 1):
        if not roots:
            continue
        on_level = frame if m == 1 else frame.embed(
            spec.embedding_to(target))
        for r in roots:
            pos = PencilPosition("finite", r, m)
            found.append(classify_fiber(residual_cubic(pencil, pos), pos,
                                        frame=on_level.at(r)))
    found.append(classify_fiber(residual_cubic(pencil, POS_INF), POS_INF))
    reports = [rep for rep in found if rep.kodaira != "smooth"]
    if flags is None:
        return reports
    if len(rest) > 1:
        flags.append(f"fiber orbits of total degree {len(rest) - 1} past "
                     f"degree {len(levels)} not classified")
    total, _ = euler_budget_audit(reports)
    if total < 24:
        capped = sorted((rep.position.ext, rep.flags[0]) for rep in found
                        if rep.kodaira == "smooth" and rep.flags)
        # conjugate positions share their report: m of them per orbit
        for (m, text), same in itertools.groupby(capped):
            flags += [f"fiber orbit of degree {m}: {text}"] * (
                len(list(same)) // m)
        if not flags and all(rep.kodaira in ("I1", "I2", "I3")
                             for rep in reports):
            flags.append(f"Euler sum {total} < 24: surface singular or "
                         "fiber missed")
    return reports


def _probe_generic_smoothness(pencil: ResidualPencil) -> None:
    """Distinguish a generically singular pencil (an inconsistency for a
    smooth quartic) from a mere elimination failure."""
    k = pencil.spec.degree
    ext = 2 if 2 * k <= MAX_DEGREE else 1
    probe_spec = pencil.spec.level(ext)
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
    """Multiplicity of a projective root (1 : t) or (0 : 1) in a nonzero
    binary form (u-major): that of t in form(1, t), or the form's drop in
    degree at (0 : 1)."""
    f = Poly(spec, form)
    if root[0]:
        return f.multiplicity_at(root[1])
    return len(form) - 1 - f.degree()


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
    res = sylvester_resultant([Poly.constant(spec, c) for c in a],
                              [Poly.constant(spec, c) for c in b],
                              Poly.zero(spec))
    if res.is_zero():
        raise UsageError("A and B share a root: the restriction to the "
                         "line is degenerate")
    au, av = _form_derivs(a, spec)
    bu, bv = _form_derivs(b, spec)
    w = [x ^ y for x, y in zip(poly_mul(au, bv, spec),
                               poly_mul(av, bu, spec))]
    if not any(w):
        raise InconsistencyError(
            "vanishing Wronskian for a separable degree-3 map")
    # roots of W(1, t) by degree, then (0 : 1) when W drops degree there
    levels, rest = root_orbits(w, spec, 4)
    if len(rest) > 1:
        raise CapabilityError("ramification points escape the field cap")
    roots = [(d, target, (1, t)) for d, (target, ts) in enumerate(levels, 1)
             for t in ts]
    if not w[-1]:
        roots.insert(len(levels[0][1]), (1, spec, (0, 1)))
    points: List[RamificationPoint] = []
    for d, target, (u0, v0) in roots:
        emb = None if d == 1 else spec.embedding_to(target)
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
        # a ramification point of degree d maps to a position of degree
        # d: two over one position would need indices summing past 3
        image = (PencilPosition("finite", target.div_int(a0, b0), d)
                 if b0 else POS_INF)
        points.append(RamificationPoint((u0, v0), d, image, e))
    if len(points) not in (1, 2):
        raise InconsistencyError(
            f"{len(points)} ramification points; characteristic 2 allows "
            "only 1 or 2")
    label = {(2,): "(1)", (2, 2): "(1,1)", (2, 3): "(1,2)",
             (3, 3): "(2,2)"}.get(tuple(sorted(p.e for p in points)))
    if label is None:
        raise InconsistencyError("impossible ramification index multiset")
    return RamificationData(points, label)


def ramification_over(ram: Optional[RamificationData],
                      pos: Optional[PencilPosition]) -> str:
    """How the line's map to the lambda-line ramifies over a position:
    "simple" (index 2), "double" (index 3) or "unramified", also when
    there is no ramification data.  The indices over one position add up
    to at most 3, so at most one ramification point lies over it."""
    for p in ram.points if ram is not None else ():
        if p.image == pos:
            return "simple" if p.e == 2 else "double"
    return "unramified"


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
        ram_here = ramification_over(ram, fib.position)
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

    # a field where the intersection divisor splits and the fiber data
    # fits: the lcm of the cut's root-orbit degrees, the rest at most one
    # orbit ((0 : 1) is rational)
    levels, rest = root_orbits(Poly(pf, fiber_form).coeffs, pf, 3)
    extra = math.lcm(*(d for d, (_, rs) in enumerate(levels, 1) if rs),
                     max(1, len(rest) - 1))
    wd = math.lcm(pf.degree * extra, fib.work_degree)
    if wd > MAX_DEGREE:
        return None, "intersection divisor does not split within field caps"
    work = FieldSpec.default(wd)
    div_roots = binary_roots(fiber_form if wd == pf.degree else [
        pf.embedding_to(work).apply_int(c) for c in fiber_form], work)

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
