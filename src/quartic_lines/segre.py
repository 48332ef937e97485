"""The modified characteristic-2 Hessian and the induced line dossier.

The classical Hessian determinant of a ternary cubic degenerates modulo 2,
but for the generic cubic g with x1*x2*x3-coefficient alpha the integer
polynomial det(Hess(g)) - 2*alpha^2*g is divisible by 8 coefficient-wise.
Dividing by 8 over the integers and then reducing modulo 2 yields a cubic
form h that still detects line components and singular points of cubics
over GF(2^k).  Pairing h with the residual-cubic pencil of a line gives a
resultant R in the pencil parameter whose vanishing separates lines into
two kinds and whose root multiplicities bound valencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import FieldSpec
from .geometry import Line, QuarticSurface, restrict_form
from .pencil import (POS_INF, FiberReport, PencilPosition, RamificationData,
                     ResidualPencil, _ThroughSingularPoint, fiber_line_count,
                     ramification_over, ramification_type, singular_fibers)
from .poly import Poly, SparsePoly, _mul_terms, sylvester_resultant
from .surfaces import family_z_surface

#: the ten degree-3 monomials in three variables, canonical order
MONOMIALS3: Tuple[Tuple[int, int, int], ...] = tuple(sorted(
    (i, j, 3 - i - j) for i in range(4) for j in range(4 - i)))

_ALPHA_INDEX = MONOMIALS3.index((1, 1, 1))


@lru_cache(maxsize=1)
def universal_hessian() -> SparsePoly:
    """The universal modified Hessian table over the integers.

    A 13-variable integer polynomial: variables 0..9 are the generic
    coefficients a_m of the ten cubic monomials m (order of MONOMIALS3),
    variables 10..12 are x1, x2, x3.  Equals
    (det(Hess(g)) - 2*alpha^2*g) / 8 exactly; construction fails loudly if
    any coefficient of the numerator is not divisible by 8.
    """
    nv = 13
    g = SparsePoly.zero(nv, None)
    for idx, m in enumerate(MONOMIALS3):
        e = [0] * nv
        e[idx] = 1
        e[10], e[11], e[12] = m
        g = g + SparsePoly.monomial(nv, None, tuple(e))
    hess = [[g.derivative(10 + i).derivative(10 + j) for j in range(3)]
            for i in range(3)]
    from .poly import det_generic
    det = det_generic(hess, SparsePoly.zero(nv, None))
    alpha = SparsePoly.variable(_ALPHA_INDEX, nv, None)
    diff = det - (alpha * alpha * g).scale(2)
    table = {}
    for e, c in diff.terms.items():
        if c % 8 != 0:
            raise InconsistencyError(
                "universal Hessian numerator has a coefficient not "
                "divisible by 8")  # pragma: no cover - exact identity
        table[e] = c // 8
    return SparsePoly(nv, None, table)


@lru_cache(maxsize=2)
def _odd_terms(on_line: bool) -> tuple:
    """The universal terms with odd coefficient, as ((index, power) for
    each a_m that occurs, (x1, x2, x3)-exponents).  With on_line, only the
    22 of the 60 whose x3-exponent is 0: those that survive on {x3 = 0}."""
    return tuple((tuple((i, k) for i, k in enumerate(e[:10]) if k), e[10:])
                 for e, c in universal_hessian().terms.items()
                 if c % 2 and not (on_line and e[12]))


def char2_hessian(g: SparsePoly,
                  x_vars: Sequence[int] = (0, 1, 2)) -> SparsePoly:
    """Specialize the universal table modulo 2 at the coefficients of g.

    g must be homogeneous of degree 3 in the three designated variables;
    the remaining variables of its ring (pencil parameters, symbolic
    coefficients) ride along inside the a_m coefficients.
    """
    return _specialize(g, x_vars, _odd_terms(False))


def _specialize(g: SparsePoly, x_vars: Sequence[int], terms) -> SparsePoly:
    """The given odd universal terms at the coefficients of g, summed into
    one dict; the powers of the a_m are cached as term dicts."""
    if g.spec is None:
        raise UsageError("field coefficients required")
    if len(x_vars) != 3:
        raise UsageError("exactly three cubic variables required")
    nv, spec = g.nvars, g.spec
    coeffs: Dict[Tuple[int, ...], dict] = {}
    for e, c in g.terms.items():
        m = tuple(e[v] for v in x_vars)
        if sum(m) != 3:
            raise UsageError("form is not homogeneous of degree 3 in the "
                             "cubic variables")
        rest = list(e)
        for v in x_vars:
            rest[v] = 0
        coeffs.setdefault(m, {})[tuple(rest)] = c

    powers: Dict[Tuple[int, int], dict] = {}
    out: Dict[Tuple[int, ...], int] = {}
    for a_exps, x_exps in terms:
        mono = [0] * nv
        for v, k in zip(x_vars, x_exps):
            mono[v] = k
        factor = {tuple(mono): 1}
        for idx, k in a_exps:
            a = coeffs.get(MONOMIALS3[idx])
            if a is None:
                break
            piece = powers.get((idx, k))
            if piece is None:
                piece = powers[idx, k] = (SparsePoly(nv, spec, a) ** k).terms
            factor = _mul_terms(factor, piece, spec)
        else:
            for e, c in factor.items():
                out[e] = out.get(e, 0) ^ c
    return SparsePoly(nv, spec, out)


# -- the resultant R ----------------------------------------------------------


def segre_resultant(pencil: ResidualPencil) -> Poly:
    """R in lambda: the homogeneous Sylvester resultant of the two binary
    cubics g|_{z=0} and h|_{z=0}.  Degree at most 18 is asserted.

    R at infinity needs no second chart.  The mu = 1/lambda chart's cubic
    is mu*g(x1, x2, mu*z, 1/mu); the modified Hessian has degree 3 in the
    coefficients and weight 2 under z -> mu*z, so its h is
    mu^5*h(x1, x2, mu*z, 1/mu).  The resultant has degree 3 in each binary
    cubic, so R_mu(mu) = mu^(3 + 15)*R(1/mu) = mu^18*R(1/mu), and the
    multiplicity at infinity is 18 - deg R (`resultant_multiplicity`).
    """
    # both on {z = 0} at x1 = 1: binary cubics over GF(q)[lambda]
    r = sylvester_resultant(pencil.g.restrict({0: 1, 2: 0}).rows(4),
                            _hessian_on_line(pencil.g),
                            Poly.zero(pencil.spec))
    if r.degree() > 18:
        raise InconsistencyError(
            f"resultant degree {r.degree()} exceeds 18")
    return r


def _hessian_on_line(g: SparsePoly) -> List[Poly]:
    """h = char2_hessian(g) on {z = 0} at x1 = 1, g a cubic in (x1, x2, z)
    over GF(q)[lambda], by its rows: the coefficients of x2^0 .. x2^3,
    each a polynomial in lambda.  Only the 22 universal terms free of z
    (`_odd_terms(True)`) are read, with each a_m, g's coefficient of the
    monomial m, a `Poly` in lambda, and its powers cached."""
    spec = g.spec
    coeffs: Dict[Tuple[int, ...], List[int]] = {}
    for (i, j, k, lam), c in g.terms.items():
        row = coeffs.setdefault((i, j, k), [])
        row += [0] * (lam + 1 - len(row))
        row[lam] = c
    powers: Dict[Tuple[int, int], Poly] = {}
    rows = [Poly.zero(spec)] * 4
    for a_exps, (_, j, _) in _odd_terms(True):
        term = Poly.one(spec)
        for idx, k in a_exps:
            a = coeffs.get(MONOMIALS3[idx])
            if a is None:
                break
            piece = powers.get((idx, k))
            if piece is None:
                piece = powers[idx, k] = Poly(spec, a) ** k
            term = term * piece
        else:
            rows[j] = rows[j] + term
    return rows


def resultant_multiplicity(pencil: ResidualPencil, r: Poly,
                           pos: PencilPosition) -> int:
    """Multiplicity of R at a pencil position: 18 - deg R at infinity
    (see `segre_resultant`)."""
    if r.is_zero():
        raise ValueError("zero polynomial")
    if pos.is_infinite():
        return 18 - r.degree()
    target = pencil.position_field(pos)
    rr = r if target == pencil.spec else \
        r.embed(pencil.spec.embedding_to(target))
    return rr.multiplicity_at(pos.bits)


# -- line dossiers ------------------------------------------------------------


@dataclass
class DivisibilityRecord:
    position: PencilPosition
    kodaira: str
    ramification: str   # "unramified" | "simple" | "double"
    required: int
    actual: int
    ok: bool

    def to_json(self) -> dict:
        return {"position": self.position.to_json(),
                "kodaira": self.kodaira,
                "ramification": self.ramification,
                "required": self.required, "actual": self.actual,
                "ok": self.ok}


@dataclass
class LineDossier:
    line: Line
    kind: str                    # "first" | "second"
    R: Poly
    valency: int
    pencil: ResidualPencil
    fibers: List[FiberReport]
    ramification: Optional[RamificationData]
    audits: List[DivisibilityRecord] = dc_field(default_factory=list)
    flags: List[str] = dc_field(default_factory=list)

    def ram_label(self) -> Optional[str]:
        return self.ramification.type if self.ramification else None

    def valency_bound(self) -> int:
        if self.kind == "first":
            return 18
        return 20 if self.ram_label() == "(2,2)" else 16

    def to_json(self) -> dict:
        return {"line": self.line.to_json(), "kind": self.kind,
                "ram-type": self.ram_label(), "valency": self.valency,
                "valency-bound": self.valency_bound(),
                "R": [hex(c) for c in self.R.coeffs],
                "fibers": [f.to_json() for f in self.fibers],
                "audits": [a.to_json() for a in self.audits],
                "flags": self.flags}


def build_dossier(surface: QuarticSurface, line: Line) -> LineDossier:
    pencil = ResidualPencil(surface, line)
    r = segre_resultant(pencil)
    kind = "second" if r.is_zero() else "first"
    flags: List[str] = []
    ram: Optional[RamificationData] = None
    try:
        ram = ramification_type(pencil)
    except UsageError:
        flags.append("restriction to the line is degenerate; "
                     "no ramification data")
    except CapabilityError as exc:
        flags.append(str(exc))
    try:
        fibers = singular_fibers(pencil, flags)
    except _ThroughSingularPoint as exc:
        fibers, flags = [], [str(exc)]
    valency = fiber_line_count(fibers)
    dossier = LineDossier(line, kind, r, valency, pencil, fibers,
                          ram, [], flags)
    if kind == "first":
        dossier.audits = divisibility_audit(dossier)
    return dossier


def divisibility_audit(dossier: LineDossier) -> List[DivisibilityRecord]:
    """Per-fiber lower bounds on the multiplicity of R.

    For a first-kind line, a fiber of type I3 or IV forces multiplicity 3
    at its position, and a fiber of type I2 or III carrying the double
    ramification point forces multiplicity 2.  A failed bound is
    reported, not raised.
    """
    if dossier.kind != "first":
        return []
    out: List[DivisibilityRecord] = []
    for fib in dossier.fibers:
        ram_here = ramification_over(dossier.ramification, fib.position)
        if fib.kodaira in ("I3", "IV"):
            required = 3
        elif fib.kodaira in ("I2", "III") and ram_here == "double":
            required = 2
        else:
            continue
        actual = resultant_multiplicity(dossier.pencil, dossier.R,
                                        fib.position)
        out.append(DivisibilityRecord(fib.position, fib.kodaira, ram_here,
                                      required, actual, actual >= required))
    return out


# -- pointwise Hessian checks -------------------------------------------------


def hessian_vanishes_on_line(cubic: SparsePoly,
                             line_form: Sequence[int]) -> bool:
    """Does h(cubic) vanish identically on the projective line
    {line_form = 0}?  The form has three coefficients, not all zero."""
    if len(line_form) != 3 or not any(line_form):
        raise UsageError("a line in the plane needs a nonzero linear form "
                         "with three coefficients")
    h = char2_hessian(cubic)
    if h.is_zero():
        return True
    return not any(restrict_form(h, *_form_two_points(line_form,
                                                      cubic.spec)))


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


def hessian_vanishes_at(cubic: SparsePoly, point: Sequence[int]) -> bool:
    h = char2_hessian(cubic)
    return h.evaluate(list(point)) == 0


# -- family Z -----------------------------------------------------------------


def family_z_valency_criterion(q4: Sequence[int]) -> int:
    """18 when x3*x4 does not divide q4 (a pure x3^4 or x4^4 term is
    present), else the strictly smaller generic bound 16."""
    if len(q4) != 5:
        raise UsageError("q4 needs 5 coefficients")
    return 18 if (q4[0] or q4[4]) else 16


@lru_cache(maxsize=1)
def family_z_symbolic_resultant() -> SparsePoly:
    """R for the generic family-Z axis line, symbolically over GF(2).

    Ring: 12 variables x1, x2, x3, lambda, c0..c2 (q2), d0..d4 (q4) with
    GF(2) coefficients; the residual pencil of the axis line is
    g = x1^3 + lambda*x2^3 + x1*x2*x3*q2(1, lambda) + x3^3*q4(1, lambda).
    The returned polynomial is the full symbolic R; its vanishing proves
    every family-Z axis line is of the second kind, for every choice of
    q2, q4 over every field of characteristic 2.
    """
    spec = FieldSpec.default(1)
    nv = 12
    x1, x2, x3, lam = (SparsePoly.variable(i, nv, spec) for i in range(4))
    q2 = SparsePoly.zero(nv, spec)
    for i in range(3):
        q2 = q2 + SparsePoly.variable(4 + i, nv, spec) * lam ** i
    q4 = SparsePoly.zero(nv, spec)
    for i in range(5):
        q4 = q4 + SparsePoly.variable(7 + i, nv, spec) * lam ** i
    g = x1 ** 3 + lam * x2 ** 3 + x1 * x2 * x3 * q2 + x3 ** 3 * q4
    h = char2_hessian(g, (0, 1, 2))

    def binary_cubic(p: SparsePoly) -> List[SparsePoly]:
        out = [SparsePoly.zero(nv, spec) for _ in range(4)]
        for e, c in p.terms.items():
            if e[2] != 0:
                continue
            rest = (0, 0, 0) + e[3:]
            out[e[1]] = out[e[1]] + SparsePoly.monomial(nv, spec,
                                                        rest).scale(c)
        return out

    return sylvester_resultant(binary_cubic(g), binary_cubic(h),
                               SparsePoly.zero(nv, spec))


def family_z_531_instance(spec: FieldSpec, q2_tail: Tuple[int, int],
                          q4_tail: Tuple[int, int, int, int],
                          impose_533: bool = False) -> QuarticSurface:
    """A family-Z member with a totally reducible fiber at lambda = 0.

    Forces q2(1, 0) = 0 and q4(1, 0) = 1, so the residual cubic of the
    axis line at lambda = 0 is x1^3 + x3^3 (three lines over GF(4)).
    With impose_533, the q4 coefficient d3 is overwritten so that
    q2'(1,1)*q2(1,1)^2 + q4'(1,1) = 0 (the derivatives taken along the
    second slot).
    """
    if spec.degree % 2 != 0:
        raise UsageError("the totally reducible fiber needs GF(4) inside "
                         "the base field")
    c1, c2 = q2_tail
    d1, d2, d3, d4 = q4_tail
    if impose_533:
        # q2(1,t) = c1 t + c2 t^2, q2'(1,1) = c1, q2(1,1) = c1+c2;
        # q4'(1,1) = d1 + d3  (characteristic 2)
        d3 = spec.mul_int(c1, spec.pow_int(c1 ^ c2, 2)) ^ d1
    return family_z_surface(spec, (0, c1, c2), (1, d1, d2, d3, d4))


def family_z_fiber_lines(surface: QuarticSurface) -> List[Line]:
    """The three lines of the totally reducible fiber at lambda = 0 of a
    family_z_531_instance: {x4 = 0, x1 = w*x3} for the cube roots w."""
    spec = surface.spec
    roots = [w for w in range(1, spec.size) if spec.pow_int(w, 3) == 1]
    if len(roots) != 3:
        raise UsageError("base field lacks the three cube roots of unity")
    lines = []
    for w in roots:
        line = Line(spec, [(0, 1, 0, 0), (w, 0, 1, 0)])
        if not surface.contains_line(line):
            raise InconsistencyError(
                "expected fiber line does not lie on the surface")
        lines.append(line)
    return lines


def plane_position(pencil: ResidualPencil,
                   plane_form: Sequence[int]) -> PencilPosition:
    """The pencil position corresponding to a plane containing the line.

    The plane is given by its linear-form coefficients in the original
    coordinates of the surface the pencil was built from.
    """
    t = pencil.transform
    spec = pencil.spec
    p = [0, 0, 0, 0]
    for j in range(4):
        for c in range(4):
            if t[j][c] and plane_form[c]:
                p[j] ^= spec.mul_int(t[j][c], plane_form[c])
    if p[0] or p[1]:
        raise UsageError("plane does not contain the pencil's line")
    if p[3] == 0:
        return POS_INF
    return PencilPosition("finite", spec.div_int(p[2], p[3]), 1)


def coplanar_line_multiplicity(surface: QuarticSurface, line: Line,
                               plane_form: Sequence[int] = (0, 0, 0, 1)
                               ) -> Tuple[str, int]:
    """Kind of the line and the multiplicity of its R at the position of
    the given plane (for the totally-reducible-fiber divisibility checks)."""
    pencil = ResidualPencil(surface, line)
    r = segre_resultant(pencil)
    if r.is_zero():
        return "second", -1
    pos = plane_position(pencil, plane_form)
    return "first", resultant_multiplicity(pencil, r, pos)
