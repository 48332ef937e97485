"""Characteristic-2 Weierstrass models over k(t) and local fiber types.

Everything is computed with the characteristic-free integer formulas
reduced modulo 2 (never the c4/c6 shortcut, which is invalid in residue
characteristic 2).  The local classification is the full Tate loop:
translations move the singular point of the reduction to the origin,
valuation tests on the a-coefficients decide the Kodaira type, and
u-scalings strip off non-minimality twelve discriminant orders at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import (MAX_DEGREE, FieldSpec, json_hex, json_key, json_natural,
                    json_of, root_orbits)
from .poly import Poly

_BIG = 10 ** 9


def _val(p: Poly) -> int:
    """t-adic valuation at 0 (a large sentinel for the zero polynomial)."""
    if p.is_zero():
        return _BIG
    return p.multiplicity_at(0)


def _shift_right(p: Poly, k: int) -> Poly:
    """Exact division by t^k."""
    if p.is_zero():
        return p
    if _val(p) < k:
        raise InconsistencyError("inexact division by a power of t")
    return Poly(p.spec, list(p.coeffs[k:]))


@dataclass
class WeierstrassModel:
    """y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over k(t)."""
    spec: FieldSpec
    a: Tuple[Poly, Poly, Poly, Poly, Poly]   # (a1, a2, a3, a4, a6)
    chi: int = 2     # 1 = rational elliptic surface, 2 = K3

    def __post_init__(self):
        if len(self.a) != 5:
            raise UsageError("five a-coefficients required")
        if self.discriminant().is_zero():
            raise UsageError(
                "zero discriminant: the equation is not elliptic "
                "(quasi-elliptic or degenerate)")

    def discriminant(self) -> Poly:
        return _delta_of(self.a)

    def to_json(self) -> dict:
        names = ("a1", "a2", "a3", "a4", "a6")
        return {"field-degree": self.spec.degree, "chi": self.chi,
                **{n: [hex(c) for c in p.coeffs]
                   for n, p in zip(names, self.a)}}

    @classmethod
    def from_json(cls, data: dict) -> "WeierstrassModel":
        data = json_of(data, dict, "model")
        spec = FieldSpec.default(json_natural(
            json_key(data, "field-degree", "model"), "field-degree"))
        a = tuple(Poly(spec, [spec.element(json_hex(c, n)) for c in
                              json_of(json_key(data, n, "model"), list, n)])
                  for n in ("a1", "a2", "a3", "a4", "a6"))
        return cls(spec, a, json_natural(data.get("chi", 2), "chi"))

    @classmethod
    def load(cls, path: str) -> "WeierstrassModel":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def build_integral_model(a1: Poly, dtwist: Poly, delta: Poly,
                         chi: int = 2) -> WeierstrassModel:
    """The integral model y^2 + a1^2*x*y = x^3 + D'*x^2 + Delta.

    Its true discriminant is a1^12 * Delta and its j-invariant is
    a1^12 / Delta; both identities are asserted.
    """
    spec = a1.spec
    zero = Poly.zero(spec)
    model = WeierstrassModel(spec, (a1 * a1, dtwist, zero, zero, delta),
                             chi)
    if model.discriminant() != a1 ** 12 * delta:
        raise InconsistencyError(
            "discriminant identity failed")  # pragma: no cover
    return model


# -- local classification -----------------------------------------------------


Place = Union[str, int, Tuple[int, int]]


@dataclass
class LocalFiberReport:
    place: Place
    kodaira: str
    ord_delta_min: int
    scalings: int

    def to_json(self) -> dict:
        place = self.place
        if isinstance(place, tuple):
            place = {"value": hex(place[0]), "ext-degree": place[1]}
        elif isinstance(place, int):
            place = {"value": hex(place), "ext-degree": 1}
        return {"place": place, "type": self.kodaira,
                "ord-delta-min": self.ord_delta_min,
                "scalings": self.scalings}


def _localize(model: WeierstrassModel, place: Place
              ) -> Tuple[FieldSpec, List[Poly]]:
    """Coefficients in a chart where the requested place sits at t = 0."""
    spec = model.spec
    coeffs = list(model.a)
    if place == "inf":
        degs = [p.degree() for p in coeffs]
        weights = (1, 2, 3, 4, 6)
        m = 0
        for d, w in zip(degs, weights):
            if d > 0:
                m = max(m, -(-d // w))
        return spec, [p.reverse(w * m) for p, w in zip(coeffs, weights)]
    if isinstance(place, tuple):
        bits, ext = place
    else:
        bits, ext = place, 1
    if ext != 1:
        if spec.degree * ext > MAX_DEGREE:
            raise CapabilityError("place field exceeds GF(2^16)")
        target = FieldSpec.default(spec.degree * ext)
        coeffs = [p.embed(spec.embedding_to(target)) for p in coeffs]
        spec = target
    if spec.element(bits):
        shift = Poly(spec, [bits, 1])
        coeffs = [p.compose(shift) for p in coeffs]
    return spec, coeffs


def _translate(a: List[Poly], r: Poly, s: Poly, w: Poly) -> List[Poly]:
    """(x, y) -> (x + r, y + s*x + w), characteristic-2 coefficient law."""
    a1, a2, a3, a4, a6 = a
    return [a1,
            a2 + s * a1 + r + s * s,
            a3 + r * a1,
            a4 + s * a3 + (w + r * s) * a1 + r * r,
            a6 + r * a4 + r * r * a2 + r ** 3 + w * a3 + w * w
            + r * w * a1]


def _b_of(a: Sequence[Poly]) -> Tuple[Poly, Poly, Poly, Poly]:
    a1, a2, a3, a4, a6 = a
    return (a1 * a1, a1 * a3, a3 * a3,
            a1 * a1 * a6 + a1 * a3 * a4 + a2 * a3 * a3 + a4 * a4)


def _delta_of(a: Sequence[Poly]) -> Poly:
    b2, b4, b6, b8 = _b_of(a)
    return b2 * b2 * b8 + b6 * b6 + b2 * b4 * b6


def _res(p: Poly, k: int) -> int:
    """Residue at t = 0 of p / t^k (p must have valuation >= k)."""
    if p.is_zero():
        return 0
    if _val(p) < k:
        raise InconsistencyError("valuation bookkeeping error")
    return p[k]


def _tate_at_zero(spec: FieldSpec, a: List[Poly]) -> Tuple[str, int, int]:
    """Kodaira type, minimal discriminant order, and u-scaling count of a
    Weierstrass equation at the place t = 0."""
    const = lambda c: Poly.constant(spec, c)
    tpoly = Poly(spec, [0, 1])
    scalings = 0
    guard = 0
    while True:
        guard += 1
        if guard > 64:  # pragma: no cover
            raise InconsistencyError("Tate loop failed to terminate")
        delta = _delta_of(a)
        n = _val(delta)
        if n == 0:
            return "I0", 0, scalings
        # move the singular point of the reduction to the origin
        a1, a2, a3, a4, a6 = a
        if a1[0] != 0:
            x0 = spec.div_int(a3[0], a1[0])
            y0 = spec.div_int(spec.mul_int(x0, x0) ^ a4[0], a1[0])
        else:
            if a3[0] != 0:  # pragma: no cover - forced by v(delta) > 0
                raise InconsistencyError("singular reduction without a "
                                         "rational singular point")
            x0 = spec.sqrt_int(a4[0])
            rhs = (spec.pow_int(x0, 3) ^ spec.mul_int(a2[0],
                                                      spec.mul_int(x0, x0))
                   ^ spec.mul_int(a4[0], x0) ^ a6[0])
            y0 = spec.sqrt_int(rhs)
        a = _translate(a, const(x0), Poly.zero(spec), const(y0))
        if _delta_of(a) != delta:  # pragma: no cover
            raise InconsistencyError("translation changed the discriminant")
        a1, a2, a3, a4, a6 = a
        if min(_val(a3), _val(a4), _val(a6)) < 1:  # pragma: no cover
            raise InconsistencyError("singular point not at the origin")
        if _val(a1) == 0:  # v(b2) == 0: multiplicative
            return f"I{n}", n, scalings
        if _val(a6) < 2:
            return "II", n, scalings
        b2, b4, b6, b8 = _b_of(a)
        if _val(b8) < 3:
            return "III", n, scalings
        if _val(b6) < 4:
            return "IV", n, scalings
        # normalize for the cubic test: pi | a2, pi^3 | a6
        s0 = spec.sqrt_int(a2[0])
        a = _translate(a, Poly.zero(spec), const(s0), Poly.zero(spec))
        a1, a2, a3, a4, a6 = a
        e2 = a6[2] if _val(a6) >= 2 else 0
        w0 = Poly(spec, [0, spec.sqrt_int(e2)])
        a = _translate(a, Poly.zero(spec), Poly.zero(spec), w0)
        a1, a2, a3, a4, a6 = a
        if (_val(a1) < 1 or _val(a2) < 1 or _val(a3) < 2 or _val(a4) < 2
                or _val(a6) < 3):  # pragma: no cover
            raise InconsistencyError("step-6 normalization failed")
        # P(T) = T^3 + a2,1 T^2 + a4,2 T + a6,3 over the residue field
        p = Poly(spec, [_res(a6, 3), _res(a4, 2), _res(a2, 1), 1])
        # repeated root of P = root of gcd(P, P'); P' = T^2 + a4,2 here,
        # a perfect square, so any repeated root is alpha below
        alpha = spec.sqrt_int(_res(a4, 2))
        mult = p.multiplicity_at(alpha)
        if mult <= 1:
            return "I0*", n, scalings
        if mult == 2:
            # move the double root to T = 0, then the I_m* sub-loop
            a = _translate(a, tpoly.scale(alpha), Poly.zero(spec),
                           Poly.zero(spec))
            a1, a2, a3, a4, a6 = a
            if _val(a2) != 1:  # pragma: no cover
                raise InconsistencyError("double root normalization failed")
            m = 1
            while True:
                if m > n:  # pragma: no cover
                    raise InconsistencyError("I_m* loop overran v(Delta)")
                k = (m + 1) // 2
                if m % 2 == 1:
                    # Y^2 + a3,(k+1) Y - a6,(2k+2)
                    if _res(a3, k + 1) != 0:
                        return f"I{m}*", n, scalings
                    gamma = spec.sqrt_int(_res(a6, 2 * k + 2))
                    w = (tpoly ** (k + 1)).scale(gamma)
                    a = _translate(a, Poly.zero(spec), Poly.zero(spec), w)
                else:
                    # a2,1 X^2 + a4,(k+2) X + a6,(2k+3)
                    if _res(a4, k + 2) != 0:
                        return f"I{m}*", n, scalings
                    c = spec.div_int(_res(a6, 2 * k + 3), _res(a2, 1))
                    r = (tpoly ** (k + 1)).scale(spec.sqrt_int(c))
                    a = _translate(a, r, Poly.zero(spec), Poly.zero(spec))
                a1, a2, a3, a4, a6 = a
                m += 1
        # triple root: move it to T = 0
        a = _translate(a, tpoly.scale(alpha), Poly.zero(spec),
                       Poly.zero(spec))
        a1, a2, a3, a4, a6 = a
        if _val(a2) < 2 or _val(a4) < 3 or _val(a6) < 4:  # pragma: no cover
            raise InconsistencyError("triple root normalization failed")
        # Y^2 + a3,2 Y - a6,4
        if _res(a3, 2) != 0:
            return "IV*", n, scalings
        w = (tpoly ** 2).scale(spec.sqrt_int(_res(a6, 4)))
        a = _translate(a, Poly.zero(spec), Poly.zero(spec), w)
        a1, a2, a3, a4, a6 = a
        if _val(a4) < 4:
            return "III*", n, scalings
        if _val(a6) < 6:
            return "II*", n, scalings
        # non-minimal: strip u = t
        a = [_shift_right(p, i) for p, i in zip(a, (1, 2, 3, 4, 6))]
        scalings += 1


def tate_classify(model: WeierstrassModel, place: Place
                  ) -> LocalFiberReport:
    spec, coeffs = _localize(model, place)
    kod, ordmin, scalings = _tate_at_zero(spec, coeffs)
    return LocalFiberReport(place, kod, ordmin, scalings)


def finite_places(model: WeierstrassModel) -> List[Place]:
    """Zeroes of the discriminant, one per conjugacy orbit: the orbit's
    smallest bitmask at its own level.  Orbits past GF(2^16), the cap of
    `root_orbits`, are not split; they raise CapabilityError naming their
    total degree."""
    spec = model.spec
    levels, rest = root_orbits(model.discriminant().coeffs, spec,
                               MAX_DEGREE // spec.degree)
    if len(rest) > 1:
        raise CapabilityError(
            f"discriminant orbits of total degree {len(rest) - 1} past the "
            f"field cap GF(2^{MAX_DEGREE})")
    out: List[Place] = []
    for d, (target, roots) in enumerate(levels, 1):
        left = set(roots)
        for r in roots:
            if r in left:
                out.append(r if d == 1 else (r, d))
                for _ in range(d):      # the orbit under x -> x^q
                    left.discard(r)
                    r = target.pow_int(r, spec.size)
    return out


def ord_delta_total(model: WeierstrassModel) -> int:
    """Sum of minimal discriminant orders over all places, counting each
    conjugacy orbit with its field degree."""
    total = 0
    for place in finite_places(model):
        ext = place[1] if isinstance(place, tuple) else 1
        total += ext * tate_classify(model, place).ord_delta_min
    total += tate_classify(model, "inf").ord_delta_min
    return total


# -- the supersingular-place criterion ----------------------------------------


def ss_place_test(a1: Poly, delta: Poly, place: Place = 0) -> str:
    """'consistent' or 'contradiction' for an assumed smooth supersingular
    place: after moving the place to t = 0, good reduction forces the
    t-coefficient d1 of Delta to vanish."""
    if place == "inf":
        raise UsageError("move the infinite place to 0 first")
    spec = a1.spec
    if isinstance(place, tuple):
        bits, ext = place
        if ext != 1:
            target = FieldSpec.default(spec.degree * ext)
            emb = spec.embedding_to(target)
            a1, delta, spec = a1.embed(emb), delta.embed(emb), target
    else:
        bits = place
    if bits:
        shift = Poly(spec, [bits, 1])
        a1, delta = a1.compose(shift), delta.compose(shift)
    if a1.eval_int(0) != 0:
        raise UsageError("not a supersingular place: a1 does not vanish")
    if delta.eval_int(0) == 0:
        raise UsageError("singular place: Delta vanishes")
    return "consistent" if delta[1] == 0 else "contradiction"


def example_6_4_instance(spec: Optional[FieldSpec] = None
                         ) -> Tuple[Poly, Poly, str]:
    """The 5*I2 + 2*I1 rational-surface shape: Delta = Delta5^2 (t^2+at+b)
    with a, b != 0 and Delta5(0) != 0; the t-coefficient a*Delta5(0)^2 is
    nonzero, so the supersingular place at 0 yields a contradiction."""
    spec = spec or FieldSpec.default(1)
    delta5 = Poly(spec, [1, 0, 1, 0, 0, 1])      # t^5 + t^2 + 1
    quad = Poly(spec, [1, 1, 1])                  # t^2 + t + 1
    delta = delta5 * delta5 * quad
    a1 = Poly(spec, [0, 1])                       # a1 = t
    d1_expect = spec.mul_int(quad[1],
                             spec.pow_int(delta5.eval_int(0), 2))
    if delta[1] != d1_expect:  # pragma: no cover - polynomial identity
        raise InconsistencyError("d1 expansion mismatch")
    return a1, delta, ss_place_test(a1, delta, 0)


# -- fiber configuration enumeration ------------------------------------------


#: type -> (euler minimum, line capacity, wild flag).  Wild types (II and
#: III in characteristic 2) may contribute any Euler number >= 4.  The
#: square cases, of a K3 and of a rational surface, share one table.
_SQUARE_TYPES = {"I1": (1, 0, False), "I2": (2, 1, False),
                 "I3": (3, 2, False), "I4": (4, 4, False),
                 "II": (4, 0, True), "III": (4, 1, True),
                 "IV": (4, 2, False)}
_PRESETS = {
    "psi-square-case": {"budget": 24, "types": _SQUARE_TYPES},
    "pi-cubic-case": {
        "budget": 24,
        "types": {"I1": (1, 0, False), "I2": (2, 1, False),
                  "I3": (3, 3, False), "II": (4, 0, True),
                  "III": (4, 1, True), "IV": (4, 3, False)},
    },
    "rational-square-case": {"budget": 12, "types": _SQUARE_TYPES},
}


@dataclass
class ConfigCandidate:
    fibers: Tuple[Tuple[str, int], ...]   # (type, count), sorted
    euler: int
    lines: int

    def label(self) -> str:
        return " + ".join(f"{n}{t}" if n > 1 else t
                          for t, n in self.fibers)

    def to_json(self) -> dict:
        return {"fibers": dict(self.fibers), "euler": self.euler,
                "lines": self.lines}


def enumerate_fiber_configs(preset: str, min_lines: int,
                            restrict_types: Optional[Sequence[str]] = None
                            ) -> List[ConfigCandidate]:
    """All fiber-type multisets meeting the Euler budget with at least
    min_lines lines among fiber components.

    Wild types consume at least 4 Euler each and absorb any slack, so a
    multiset qualifies iff the fixed contributions plus 4 per wild fiber
    stay within the budget, with equality required when no wild fiber is
    present to absorb the difference.
    """
    if preset not in _PRESETS:
        raise UsageError(f"unknown preset {preset!r}; choose from "
                         + ", ".join(sorted(_PRESETS)))
    if min_lines < 0:
        raise UsageError("min_lines must be nonnegative")
    info = _PRESETS[preset]
    budget = info["budget"]
    types = dict(info["types"])
    if restrict_types is not None:
        unknown = set(restrict_types) - set(types)
        if unknown:
            raise UsageError(f"unknown fiber types {sorted(unknown)}")
        types = {t: v for t, v in types.items() if t in restrict_types}
    names = sorted(types)
    out: List[ConfigCandidate] = []

    def rec(idx: int, fixed: int, wild: int, lines: int,
            chosen: List[Tuple[str, int]]) -> None:
        if idx == len(names):
            if wild == 0 and fixed != budget:
                return
            if lines < min_lines:
                return
            out.append(ConfigCandidate(tuple(chosen), budget, lines))
            return
        t = names[idx]
        e, cap, is_wild = types[t]
        max_count = (budget - fixed - 4 * wild) // e
        for count in range(max_count + 1):
            if count:
                chosen.append((t, count))
            rec(idx + 1, fixed + (0 if is_wild else e * count),
                wild + (count if is_wild else 0),
                lines + cap * count, chosen)
            if count:
                chosen.pop()

    rec(0, 0, 0, 0, [])
    out.sort(key=lambda c: (-c.lines, c.fibers))
    return out
