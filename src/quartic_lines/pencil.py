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
normalized quartic on {x3 = 0}, as a cubic in (x1, x2, x4), and it is
also g's part at mu = 1/lambda = 0, so the lambda-discriminant's frame
serves it too (`_Frame.at_infinity`).

The singular points of the fiber cubics, and the lambda-discriminant,
come from one elimination of y1 in a GF(2) frame whose centre is the
nucleus of the conic its partial cuts, held in one `_Frame` (`_frame`):
closed-form conditions in (y2 : y3), their resultant for the positions,
the roots of one of them for the directions, and forms linear in y1
that lift them, with `geometry.lift_tails` where they do not reach.
The pencil's frame is read at each fiber, once per Galois orbit of
positions (`_conjugates`), and `classify_fiber` takes the points found.
A singular point of the surface on the line is a common zero of A and
B, the restrictions of df/dx3 and df/dx4 (`_meets_no_singular_point`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import MAX_DEGREE, FieldSpec, poly_gcd, poly_mul, root_orbits
from .geometry import (FormLevels, Line, QuarticSurface, canonical_point,
                       centred_frames, eliminant, gcd_at_tail, lift_tails,
                       mat_inverse, normalize_line, vec_mat)
from .poly import (Poly, SparsePoly, _square, binary_roots,
                   divide_by_linear, sylvester_resultant)


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

    __slots__ = ("surface", "line", "spec", "transform", "g", "A", "B")

    def __init__(self, surface: QuarticSurface, line: Line):
        spec = line.spec
        if spec.degree % surface.spec.degree != 0:
            raise UsageError("line field does not extend the surface field")
        surf = surface.base_change(spec)
        t, sprime = normalize_line(surf, line)
        self.surface = surface
        self.line = line
        self.spec = spec
        self.transform = t
        # the cut by x4 = lambda*x3, divided by x3: c x1^i x2^j x3^k x4^l
        # becomes c x1^i x2^j z^(k+l-1) lambda^l, an injective exponent map
        # (normalize_line refuses monomials in x1, x2 only)
        self.g = SparsePoly(4, spec, {(i, j, k + l - 1, l): c for (
            i, j, k, l), c in sprime.f.terms.items()})
        # restriction to the line: g|_{z=0} = A(x1,x2) + lambda*B(x1,x2)
        on_line = self.g.restrict({0: 1, 2: 0}).rows(4)
        self.A = [p[0] for p in on_line]
        self.B = [p[1] for p in on_line]

    def position_field(self, pos: PencilPosition) -> FieldSpec:
        return self.spec.level(pos.ext)


def residual_cubic(pencil: ResidualPencil,
                   pos: PencilPosition) -> SparsePoly:
    """The residual cubic at a pencil position, as a ternary cubic over
    the position's field.  At a finite position it is g, embedded there,
    at lambda = the position (`SparsePoly.restrict`), in (x1, x2, x3).
    At infinity it is the plane x3 = 0: the terms of the normalized
    quartic free of x3, divided by x4, in (x1, x2, x4), which are the
    terms of g with deg_lambda - deg_z = 1, at lambda = 1 with z read as
    x4 (`_at_bound`), as `_Frame.at_infinity` reads its frame off the
    lambda-discriminant's."""
    if pos.is_infinite():
        return _at_bound(pencil.g, 1)
    target = pencil.position_field(pos)
    g = pencil.g
    if target != pencil.spec:
        g = g.embed(pencil.spec.embedding_to(target))
    return g.restrict({3: pos.bits})


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


# The centre of the first frame the eliminations on fiber cubics and the
# lambda-discriminant try (`centred_frames`): a point of the line z = 0,
# so that frame moves x2 only and leaves z alone
_CENTRE = (1, 1, 0)


def _y1_coefficients(p: SparsePoly) -> List[SparsePoly]:
    """The coefficients of y1^0, y1^1 and y1^2 of a form of y1-degree at
    most 2, each a form in the other variables."""
    out: List[Dict[Tuple[int, ...], int]] = [{}, {}, {}]
    for e, c in p.terms.items():
        out[e[0]][e[1:]] = c
    return [SparsePoly(p.nvars - 1, p.spec, t) for t in out]


# On g, in (x1, x2, z, lambda), every term has deg_lambda - deg_z <= 1:
# c x1^i x2^j x3^k x4^l of the quartic became c x1^i x2^j z^(k+l-1)
# lambda^l, with 1 - k.  A frame that leaves z alone keeps that bound on
# the moved g and on its partials in y1 and y2, and d/dz raises it by one.
# The terms at the bound are those with k = 0: the fiber at infinity.
_PART_BOUNDS = (1, 1, 2)


def _at_bound(p: SparsePoly, bound: int) -> SparsePoly:
    """The terms of p, in (..., z, lambda), with deg_lambda - deg_z equal
    to `bound`, with lambda set to 1 and dropped."""
    return SparsePoly(p.nvars - 1, p.spec, {
        e[:-1]: c for e, c in p.terms.items() if e[-1] - e[-2] == bound})


class _Frame(NamedTuple):
    """The elimination of y1 from a form's partials in one GF(2) frame
    (`_frame`): the frame, the nonzero moved partials, forms in (y1, y2,
    y3, then any other variables), the conditions they leave in (y2, y3,
    ...), V first when it is there, and forms s1 y1 + s0 with s1 nonzero
    that the partials' ideal holds (`_frame`); a_2 and U_2 when V heads
    the conditions, for `_positions` (else None).  The pencil's frame
    alone has `bounds`: those on deg_lambda - deg_z of each partial,
    condition and linear form (`_PART_BOUNDS`), by which the fiber at
    infinity is read off it (`at_infinity`).  A cubic's own frame has
    none; an embedded frame (`embed`) and a fiber's (`at`) hold the first
    four fields only."""
    frame: Tuple[Tuple[int, int, int], ...]
    parts: List[SparsePoly]
    conds: List[SparsePoly]
    lins: List[SparsePoly]
    alpha: Optional[SparsePoly] = None
    u: Optional[SparsePoly] = None
    bounds: Optional[Tuple[Tuple[int, ...], ...]] = None

    def embed(self, emb) -> "_Frame":
        """The forms that `at` reads, over a larger field."""
        return _Frame(self.frame, *[[f.embed(emb) for f in forms] for forms
                                    in (self.parts, self.conds, self.lins)])

    def at(self, lam: int) -> "_Frame":
        """The frame of the fiber at lambda = lam, in the coefficient
        field (`SparsePoly.restrict`).  Each closed form of `_frame` is a
        polynomial identity in the partials' coefficients, so it commutes
        with setting lambda."""
        return self._read((p.restrict({3: lam}) for p in self.parts),
                          (c.restrict({2: lam}) for c in self.conds),
                          (f.restrict({3: lam}) for f in self.lins))

    def at_infinity(self) -> Optional["_Frame"]:
        """The frame of the fiber at infinity, read off the pencil's frame
        at mu = 1/lambda = 0, or None when the frame moves z.  Each form's
        terms at its bound, with lambda set to 1 and z read as x4, are the
        form of the cubic at infinity (`residual_cubic`) moved by the same
        frame: its partials, and each closed form of `_frame` in theirs,
        since every such form is a sum of products whose bounds add up to
        its own, so that its terms at the bound are the same form in the
        partials' terms at theirs; that lies in the cubic's elimination
        ideal as well."""
        if self.bounds is None:
            raise ValueError("only the pencil's frame is read at infinity")
        if [row[2] for row in self.frame] != [0, 0, 1]:
            return None
        return self._read(*(map(_at_bound, forms, bounds) for forms, bounds
                            in zip((self.parts, self.conds, self.lins),
                                   self.bounds)))

    def _read(self, parts, conds, lins) -> "_Frame":
        """A fiber's frame from the pencil's forms read at the fiber: its
        nonzero partials, the first condition that does not vanish and
        the first linear form that keeps an y1 term, which is all
        `points` reads."""
        first = next((c for c in conds if not c.is_zero()), None)
        return _Frame(self.frame, [p for p in parts if not p.is_zero()],
                      [] if first is None else [first],
                      next(([f] for f in lins if any(e[0] for e in f.terms)),
                           []))

    def points(self, top: int
               ) -> Optional[List[Tuple[Tuple[int, int, int], int]]]:
        """The singular points of degree <= top of a plane cubic from this
        frame of it, as `_cubic_singular_points` returns them; None when
        no condition is left.

        Every singular point other than the frame's centre (1:0:0) has a
        direction (y2 : y3) that is a zero of the first condition, of
        degree at most top (`_directions`); the centre is checked
        directly.  Over a direction, the point is the root y1 = s0 / s1
        of the first linear form whose s1 does not vanish there; over the
        other directions it comes from the gcd in y1 of the partials
        (`lift_tails`).  Every candidate is checked on all partials, so a
        root of the condition that carries no singular point costs one
        check and changes no answer."""
        if not self.conds:
            return None
        forms = FormLevels(self.parts)
        lins = FormLevels(self.lins) if self.lins else None
        found, rest = [], []
        for tail, d in _directions(self.conds[0], top):
            for lin in lins.at(d) if lins else ():
                at = lin.restrict({1: tail[0], 2: tail[1]})
                if at[1]:
                    pt = [forms.spec.level(d).div_int(at[0], at[1]), *tail]
                    if all(h.evaluate(pt) == 0 for h in forms.at(d)):
                        found.append((tuple(pt), d))
                    break
            else:
                rest.append((tail, d))
        more = lift_tails(forms, rest, top)
        if more is None:
            raise InconsistencyError(
                "cubic singular along a whole line (non-reduced)")
        out = {(canonical_point(vec_mat(y, self.frame, forms.spec.level(e)),
                                forms.spec.level(e)), e)
               for y, e in found + more}
        return sorted(out, key=lambda pe: (pe[1], pe[0]))


def _in_y1(s1: SparsePoly, s0: SparsePoly) -> SparsePoly:
    """The form s1 y1 + s0, y1 put first, from forms in the other
    variables."""
    terms = {(1,) + e: c for e, c in s1.terms.items()}
    terms.update(((0,) + e, c) for e, c in s0.terms.items())
    return SparsePoly(s1.nvars + 1, s1.spec, terms)


def _frame(form: SparsePoly, frame,
           bounds: Optional[Sequence[int]] = None) -> _Frame:
    """The elimination of y1 from the partials P1, P2, P3 of a form F
    moved by a frame (x = y.m), in closed form; with the bounds of the
    partials, when given, those of the other forms follow from them.

    In characteristic 2 the y1^k coefficient of P1 = dF/dy1 is k + 1
    times one of F, so P1 = A y1^2 + C has no odd power of y1: the frame's
    centre is the nucleus of the conic P1 (Hirschfeld, *Projective
    Geometries over Finite Fields*, ch. 7), A is F's value there and C a
    form in (y2, y3).  With P_j = b_j y1^2 + a_j y1 + c_j (j = 2, 3),
    A P_j + b_j P1 = A a_j y1 + U_j, U_j = A c_j + b_j C, is linear in
    y1, and so is b_3 P_2 + b_2 P_3: these, in that order, are the
    frame's linear forms, those with an y1 term (b_3 P_2 + b_2 P_3 serves
    where A vanishes).  The ideal of the partials holds
    - N_j = U_j^2 + A a_j^2 C, the resultant in y1 of P1 and P_j;
    - the binary cubic V = a_2 U_3 + a_3 U_2, the sum of a_2 (A P_3 +
      b_3 P1) and a_3 (A P_2 + b_2 P1);
    - U_j itself when a_j = 0.
    A form free of y1 (P1 when A = 0, a P_j with a_j = b_j = 0) stays its
    own condition, and with A = 0 the other partials give none.  The
    order is V, when both a_j are nonzero, then each partial's own: N_j,
    U_j or the form.  Bounds add as the forms multiply: A and C have
    P1's, a_j, b_j and c_j that of P_j.  Zero conditions are left out."""
    moved = form.linear_change(frame)
    parts = [moved.derivative(i) for i in range(3)]
    weights = bounds or (0, 0, 0)
    (c1, _, a1), *rest = [_y1_coefficients(p) for p in parts]
    b1 = weights[0]
    own = [(c1, b1)] if a1.is_zero() else []
    pairs, lins = [], []
    for (c, a, b), bj in zip(rest, weights[1:]):
        if a.is_zero() and b.is_zero():
            own.append((c, bj))
        elif not a1.is_zero():
            u = a1 * c + b * c1
            own.append((u, b1 + bj) if a.is_zero() else
                       (_square(u) + a1 * _square(a) * c1, 2 * (b1 + bj)))
            pairs.append((a, u))
            if not a.is_zero():
                lins.append((_in_y1(a1 * a, u), b1 + bj))
    (c2, a2, b2), (c3, a3, b3) = rest
    s1 = b3 * a2 + b2 * a3
    if not s1.is_zero():
        lins.append((_in_y1(s1, b3 * c2 + b2 * c3), weights[1] + weights[2]))
    conds = [(f, b) for f, b in own if not f.is_zero()]
    alpha = u2 = None
    if len(pairs) == 2 and not (pairs[0][0].is_zero()
                                or pairs[1][0].is_zero()
                                or own[0][0].is_zero()):
        v = pairs[0][0] * pairs[1][1] + pairs[1][0] * pairs[0][1]
        if not v.is_zero():
            conds.insert(0, (v, b1 + weights[1] + weights[2]))
            alpha, u2 = pairs[0]
    nonzero = [(p, b) for p, b in zip(parts, weights) if not p.is_zero()]
    return _Frame(frame, [p for p, _ in nonzero], [c for c, _ in conds],
                  [f for f, _ in lins], alpha, u2,
                  None if bounds is None else tuple(
                      tuple(b for _, b in forms)
                      for forms in (nonzero, conds, lins)))


def _cubic_singular_points(cubic: SparsePoly, top: int
                           ) -> List[Tuple[Tuple[int, int, int], int]]:
    """Singular points of degree d <= top over the cubic's field GF(q):
    common zeros of the three partials, each as (point canonical in
    GF(q^d), d), sorted by degree, then point.  (The cubic itself vanishes
    automatically at such points: odd degree plus the Euler relation in
    characteristic 2.)

    The GF(2) frames of `centred_frames`, centred at (1:1:0) first, are
    tried in turn: in each, `_Frame.points` finds the points, unless no
    condition is left."""
    if all(cubic.derivative(i).is_zero() for i in range(3)):
        raise InconsistencyError("cubic with identically vanishing partials")
    for fr in centred_frames(_CENTRE):
        found = _frame(cubic, fr).points(top)
        if found is not None:
            return found
    raise CapabilityError(
        "singular-point elimination degenerated in every frame")


def _directions(form: SparsePoly, top: int) -> List[Tuple[tuple, int]]:
    """The zeros (y2 : y3) of degree d <= top of a nonzero binary form over
    GF(q), as (coordinates over GF(q^d), d): (1 : 0) when the form's
    y2-power coefficient is zero, then (r : 1) for each root r of
    form(y2, 1), grouped by `root_orbits`."""
    dirs = [((1, 0), 1)] if form.restrict({1: 0}).is_zero() else []
    levels, _ = root_orbits(form.restrict({1: 1}).coeffs, form.spec, top)
    return dirs + [((r, 1), d) for d, (_, roots) in enumerate(levels, 1)
                   for r in roots]


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


def _point_cap(spec: FieldSpec) -> int:
    """The largest degree of a fiber cubic's singular point searched over
    its field GF(2^k): 3, lowered to stay within GF(2^16)."""
    return min(3, MAX_DEGREE // spec.degree)


def classify_fiber(cubic: SparsePoly,
                   position: Optional[PencilPosition] = None, *,
                   points=None) -> FiberReport:
    """Kodaira type of a reduced plane cubic over GF(2^k).

    A reduced plane cubic has at most three singular points and the set is
    Galois-stable, so every singular point has degree <= 3 over the cubic's
    field; a degree-3 point only occurs as the vertices of a triangle of
    conjugate lines, which then leaves no room for a point of lower degree.
    Singular points of degree 1, 2 and 3 come from one elimination over
    the cubic's field (within the GF(2^16) cap, flagged when the cap may
    hide one); the type and the line components are then read off in the
    smallest field holding them all (`_classify_in_field`): two or three
    points are the nodes of I2 or I3, joined by the line components, and
    a single one is read off its local expansion.

    `points`, when given, are the singular points, already found, as
    `_cubic_singular_points` returns them (`singular_fibers` finds them
    in the lambda-discriminant's frame, and passes each fiber of a
    Galois orbit of positions the conjugates of the points of the
    orbit's first); an empty list is a smooth cubic.  Without them they
    come from the cubic's own frames (`_cubic_singular_points`).  Either
    way the type is read off as above, with every check."""
    if cubic.nvars != 3 or cubic.spec is None:
        raise UsageError("fiber must be a ternary form over a field")
    if cubic.is_zero() or not cubic.is_homogeneous(3):
        raise InconsistencyError("residual fiber is not a cubic form")
    k = cubic.spec.degree
    top = _point_cap(cubic.spec)
    sing = _cubic_singular_points(cubic, top) if points is None else points

    capped = f"singular-point search capped at extension degree {top}"
    if not sing:
        return FiberReport(position, "smooth", k, [], [], 0,
                           [capped] if top < 3 else [])
    wd = k * math.lcm(*(d for _, d in sing))
    if wd > MAX_DEGREE:
        raise CapabilityError(
            "fiber classification needs fields past GF(2^16)")
    work = cubic.spec if wd == k else FieldSpec.default(wd)
    rep = _classify_in_field(cubic, sing, work, position)
    # a point found leaves the others rational, or an I3's conjugate
    # vertices read off it: only those can hide past the cap
    if rep.kodaira == "I3" and len(rep.singular_points) == 1:
        rep.flags.append(capped)
    return rep


def _classify_in_field(cubic: SparsePoly, sing, work: FieldSpec,
                       position) -> FiberReport:
    """Classification over one working field containing all singular
    points.

    A reduced cubic with two singular points is a line and a conic
    meeting in two nodes (I2), and one with three is a triangle (I3).
    Every point is a node and the line components are the lines through
    pairs of points: their product must divide the cubic with a cofactor
    of the remaining degree that none of them divides.

    A single point is read off the local model s Q(w) + C(w) there
    (`_local_quadratic`).  On the line through the point in a tangent
    direction w, where Q(w) = 0, the cubic is t^3 C(w), so that line is a
    component iff C(w) = 0.  Distinct tangent directions are read off Q's
    cross coefficient (characteristic 2) and a cusp's direction is a
    square root.  Conjugate tangent directions are both components iff Q
    divides C, and then the cubic is Q(w) (s + L(w)) with C = Q L: an I3
    whose other two nodes the search cap hid.  Otherwise a node or cusp
    on no component is I1 or II, a line tangent to a conic at a tacnode,
    whose tangent cone is a square, is III, and three lines through a
    triple point are IV."""
    base = cubic.spec
    cw = cubic if work == base else cubic.embed(base.embedding_to(work))
    pts = [canonical_point(
        tuple(base.level(d).embedding_to(work).apply_int(c) for c in pt)
        if base.level(d) != work else tuple(pt), work) for pt, d in sing]

    if len(pts) >= 2:
        lines = sorted({_line_form_through(p, q, work)
                        for p, q in itertools.combinations(pts, 2)})
        rest = cw
        for form in lines:
            rest = divide_by_linear(rest, form)
            if rest is None:
                raise InconsistencyError(
                    "component product does not divide the cubic")
        if (len(lines) != math.comb(len(pts), 2)
                or rest.total_degree() != 3 - len(lines)
                or divide_by_linear(rest, lines[0]) is not None):
            raise InconsistencyError("singular points of a reduced cubic "
                                     "are not the nodes of I2 or I3")
        return FiberReport(
            position, "I2" if len(pts) == 2 else "I3", work.degree, lines,
            [CubicSingularity(p, d, "node") for p, (_, d) in zip(pts, sing)])

    components: List[Tuple[int, int, int]] = []
    hidden = 0
    forced_kod: Optional[str] = None

    def add_component(form) -> None:
        quotient = divide_by_linear(cw, form)
        if quotient is None:  # pragma: no cover - callers verified this
            raise InconsistencyError("division/local expansion disagree")
        if divide_by_linear(quotient, form) is not None:
            raise InconsistencyError(
                "repeated linear factor: fiber cubic is not reduced")
        components.append(form)

    ptw, d = pts[0], sing[0][1]
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
    for uv in dirs:
        if _eval_form(cone3, *uv, work) == 0:
            add_component(_line_form_through(
                ptw, _direction_point(ptw, uv, pivot), work))

    ncomp = len(components) + hidden
    if forced_kod is not None:
        if ncomp != 3:
            raise InconsistencyError("component bookkeeping mismatch")
        kod = forced_kod
    elif ncomp == 0:
        kod = "I1" if local == "node" else "II"
    elif ncomp == 1 and local == "cusp":
        kod = "III"
    else:
        raise InconsistencyError(
            f"{ncomp} components through a lone {local}")
    return FiberReport(position, kod, work.degree, sorted(components),
                       [CubicSingularity(ptw, d, local)], hidden)


# -- the lambda-discriminant and singular fibers ------------------------------


def _binary_rows(form: SparsePoly, length: int) -> List[Poly]:
    """A form in (y2, y3, lambda), binary of formal degree length - 1 in
    (y2 : y3), at y2 = 1 by its rows: coefficients y2-major, each a
    polynomial in lambda, as `sylvester_resultant` reads them."""
    return form.restrict({0: 1}).rows(length)


def _positions(frame: _Frame) -> Optional[Poly]:
    """A nonzero polynomial in lambda vanishing wherever the conditions of
    a pencil's frame share a zero (y2 : y3), or None.

    When V heads them, G = Res(N_2, V) / U_2(b, a)^2, (b : a) the zero of
    a_2 = a y2 + b y3.  Over a root r of N_2, the point of {P1 = 0,
    A P_2 + b_2 P1 = 0} has y1 = U_2 / (A a_2), so V(r) is a_2(r) times
    the value there of A P_3 + b_3 P1, and N_3(r) is that value squared,
    since A y1^2 = C there.  Hence Res(N_2, V) = Res(N_2, a_2) G, with
    Res(N_2, a_2) = N_2(b, a) = U_2(b, a)^2, so the division is exact (and
    checked), and G^2 = Res(N_2, N_3), the eliminant of the two
    y1-resultants: G has the same roots at half the degree.  None when
    U_2(b, a) = 0, since N_2 and V then share a zero.  Without V, the
    first nonzero resultant of two conditions (`eliminant`)."""
    conds = frame.conds
    if frame.alpha is None:
        return eliminant([_binary_rows(c, max(e[0] + e[1] for e in c.terms)
                                       + 1) for c in conds])
    a, b = _binary_rows(frame.alpha, 2)
    u = _binary_rows(frame.u, 3)
    at_zero = u[0] * b * b + u[1] * a * b + u[2] * a * a
    if at_zero.is_zero():
        return None
    res = sylvester_resultant(_binary_rows(conds[1], 5),
                              _binary_rows(conds[0], 4),
                              Poly.zero(at_zero.spec))
    g, rem = res.divmod(at_zero * at_zero)
    if not rem.is_zero():
        raise InconsistencyError(
            "Res(N_2, V) is not divisible by U_2^2 at the zero of a_2")
    return None if g.is_zero() else g


def _lambda_discriminant(pencil: ResidualPencil
                         ) -> Tuple[Poly, Optional[_Frame]]:
    """A univariate polynomial in lambda vanishing at every singular
    finite fiber (spurious extra roots allowed; they are filtered by the
    classifier), and the frame it was found in; zero and None when every
    frame degenerates.

    Strategy: in the first usable GF(2) frame of `centred_frames`, the
    one centred at (1:1:0) on the line first, eliminate y1 from the three
    partials of the fiber cubic in closed form (`_frame`), then
    (y2 : y3) by one binary-form resultant over GF(2^k)[lambda]
    (`_positions`).  That frame leaves z alone, so every moved partial
    keeps the weight of g, whose coefficient of z^m has lambda-degree at
    most m + 1: on the record lines the condition has degree 22 to 26,
    the square root of the former resultant of two y1-resultants (44 to
    52; 74 to 76 in the frame centred at (1:1:1)).  The frame can only
    miss a singular fiber whose every singular point sits at its centre
    P, the image of e1.  The fibers singular at P are the roots of the
    gcd over i of dg/dx_i(P, lambda), so the frame condition times that
    gcd misses nothing.  A frame whose centre gcd vanishes identically
    (every fiber singular at P, so the surface is singular) is skipped,
    and so is one that leaves no positions."""
    partials = [pencil.g.derivative(i) for i in range(3)]
    for fr in centred_frames(_CENTRE):
        at_centre = gcd_at_tail(partials, 3, fr[0])
        if at_centre is None:
            continue
        frame = _frame(pencil.g, fr, _PART_BOUNDS)
        dm = _positions(frame)
        if dm is not None:
            return dm * at_centre, frame
    return Poly.zero(pencil.spec), None


def singular_fibers(pencil: ResidualPencil,
                    flags: Optional[List[str]] = None) -> List[FiberReport]:
    """All singular fibers at positions in fields up to GF(2^16), the cap
    of `root_orbits`.  Full Galois orbits are reported: conjugate
    positions each get their own report, so component counts add up to
    the geometric valency of the line.

    `flags`, when given, gets what the reports may miss: the total degree
    of the orbits past the cap, left unsplit by `root_orbits`; and when
    the Euler sum (`_EULER_MIN`) is below 24, each dropped orbit whose
    singular-point search was capped, or else, with only I1, I2 and I3
    fibers and no flag at all, the sum itself.

    A finite fiber's singular points come from the lambda-discriminant's
    frame, embedded once per level and read at the root (`_Frame.at`),
    once per Galois orbit of roots, at its first; each conjugate gets the
    conjugates of those points (`_conjugates`) and its own
    `classify_fiber`.  The fiber at infinity reads the same frame at
    mu = 1/lambda = 0 (`_Frame.at_infinity`).  When the conditions all
    vanish at a root, or at infinity, or the frame moves z, the fiber
    falls back to its own frames (`_cubic_singular_points`).  A
    lambda-discriminant zero in every frame is `_ThroughSingularPoint`
    when the line meets a singular point (`_meets_no_singular_point`),
    else a limit: every fiber may be singular (quasi-elliptic)."""
    spec = pencil.spec
    disc, frame = _lambda_discriminant(pencil)
    if disc.is_zero():
        _meets_no_singular_point(pencil)
        raise CapabilityError(
            "lambda-discriminant vanishes in every frame on a line through "
            "no singular point (a quasi-elliptic pencil, or a degenerate "
            "elimination)")

    found: List[FiberReport] = []
    levels, rest = root_orbits(disc.coeffs, spec, MAX_DEGREE // spec.degree)
    for m, (target, roots) in enumerate(levels, 1):
        if not roots:
            continue
        on_level = frame if m == 1 else frame.embed(
            spec.embedding_to(target))
        top = _point_cap(target)
        conjugate = {}
        for r in roots:
            pos = PencilPosition("finite", r, m)
            cubic = residual_cubic(pencil, pos)
            points = conjugate.pop(r, None)
            if points is None:
                points = on_level.at(r).points(top)
                if points is None:
                    points = _cubic_singular_points(cubic, top)
                conjugate.update(_conjugates(r, points, target, spec.size, m))
            found.append(classify_fiber(cubic, pos, points=points))
    inf = frame.at_infinity()
    found.append(classify_fiber(
        residual_cubic(pencil, POS_INF), POS_INF,
        points=None if inf is None else inf.points(_point_cap(spec))))
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


def _conjugates(r: int, points, field: FieldSpec, q: int, m: int
                ) -> Dict[int, List[Tuple[Tuple[int, int, int], int]]]:
    """The singular points of the fibers at the conjugates of a position
    r of degree m over GF(q) in `field`, from those at r: sigma^j, x ->
    x^(q^j), maps the cubic at r to the cubic at sigma^j(r), so it maps
    each point to one of the same degree there, applied in the point's
    own field.  Keyed by sigma^j(r), j = 1, ..., m - 1, each list sorted
    by degree, then point, as `_cubic_singular_points` sorts."""
    out = {}
    for j in range(1, m):
        e = q ** j
        out[field.pow_int(r, e)] = sorted(
            ((tuple(field.level(d).pow_int(c, e) for c in pt), d)
             for pt, d in points), key=lambda pd: (pd[1], pd[0]))
    return out


class _ThroughSingularPoint(UsageError):
    """Every fiber of the line's pencil is singular, and the line passes
    through a singular point of the surface."""


def _meets_no_singular_point(pencil: ResidualPencil) -> None:
    """Raise `_ThroughSingularPoint` when the line meets a singular point
    of the surface over F-bar: with the line at {x3 = x4 = 0}, where
    df/dx1 and df/dx2 vanish, a common zero of A and B, so a root of
    gcd(A(1, t), B(1, t)), or (0 : 1) when both top coefficients vanish
    (also when A = B = 0).  A rational zero (u : v) is named as the point
    u row1 + v row2, first in the order of `Line.points`; else the gcd,
    with no rational root, is irreducible and named by its degree."""
    spec, a, b = pencil.spec, pencil.A, pencil.B
    common = poly_gcd(a, b, spec)
    rational = [] if a[3] or b[3] else [(0, 1)]
    if len(common) > 1:
        rational += [(1, t) for t in root_orbits(common, spec, 1)[0][0][1]]
    if rational:
        (u, v), mul = rational[0], spec.mul_int
        pt = canonical_point([mul(u, x) ^ mul(v, y) for x, y
                              in zip(*pencil.line.rows)], spec)
        where = "the singular point (" + ":".join(f"{c:x}" for c in pt) + ")"
    elif len(common) > 1:
        where = f"a singular point of degree {len(common) - 1}"
    else:
        return
    raise _ThroughSingularPoint(
        f"the line passes through {where} of the surface, so every fiber "
        "of its pencil is singular")


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
        e = dict(binary_roots(fiber_form, target)).get((u0, v0), 0)
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
