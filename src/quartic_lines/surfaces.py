"""Built-in surface constructors and the surface-id registry.

Ids accepted by `get_surface`:

* ``s5_mu0``       -- the S5-symmetric record surface over GF(4): the P^4
                      pencil member s4 + mu0*s2^2 on the hyperplane s1 = 0,
                      realized in P^3 by substituting x5 = x1+x2+x3+x4;
                      mu0 = 1 + a^2 + a^3 for the fifth root of unity a.
* ``family_x[:<hex lambda>[@<field degree>]]`` -- the singular 68-line
                      family (x1^3+x2^3)x3 + lambda*x2^3*x4 + x1*x2*x4^2
                      + x3^4; default parameter chosen per
                      `default_family_x_lambda`.
* ``schur_char2``   -- x1^4 + x1*x2^3 + x3^4 + x3*x4^3 (singular, loads with
                      the squarefree check only).
* ``fermat_char2``  -- (x1+x2+x3+x4)^4; always rejected (4th power).
* ``family_z:<deg>:<q2 hex coeffs>:<q4 hex coeffs>`` -- x3*x1^3 + x4*x2^3 +
                      x1*x2*q2(x3,x4) + q4(x3,x4) over GF(2^deg); q2 coeffs
                      c0,c1,c2 give c0*x3^2+c1*x3*x4+c2*x4^2, q4 coeffs
                      d0..d4 give d0*x3^4+...+d4*x4^4.
* ``z0``            -- family_z over GF(4) with q2 = 0, q4 = x3^4+x3^3*x4+x4^4.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .errors import UsageError
from .field import FieldSpec
from .geometry import Line, QuarticSurface, singular_point_search
from .poly import SparsePoly


def _symmetric_pencil_form(spec: FieldSpec, mu: int) -> SparsePoly:
    """s4 + mu*s2^2 in x1..x5, with x5 = x1+x2+x3+x4 substituted (char 2)."""
    xs = [SparsePoly.variable(i, 5, spec) for i in range(5)]
    s2 = SparsePoly.zero(5, spec)
    for i in range(5):
        for j in range(i + 1, 5):
            s2 = s2 + xs[i] * xs[j]
    s4 = SparsePoly.zero(5, spec)
    for drop in range(5):
        term = SparsePoly.constant(5, spec, 1)
        for i in range(5):
            if i != drop:
                term = term * xs[i]
        s4 = s4 + term
    f5 = s4 + (s2 * s2).scale(mu)
    x5_image = xs[0] + xs[1] + xs[2] + xs[3]
    return f5.substitute({4: x5_image}).drop_vars([0, 1, 2, 3])


def fifth_root_alpha(spec16: Optional[FieldSpec] = None) -> int:
    """The fifth root of unity in GF(16) with smallest bitmask."""
    spec16 = spec16 or FieldSpec.default(4)
    for a in range(2, spec16.size):
        if spec16.pow_int(a, 5) == 1 and a != 1:
            # a^4+a^3+a^2+a+1 = 0 follows from order 5
            return a
    raise RuntimeError("no fifth root of unity in GF(16)?")  # pragma: no cover


def s5_mu0_surface() -> QuarticSurface:
    """The 60-line record surface, defined over GF(4)."""
    spec16 = FieldSpec.default(4)
    spec4 = FieldSpec.default(2)
    a = fifth_root_alpha(spec16)
    mu0_16 = 1 ^ spec16.pow_int(a, 2) ^ spec16.pow_int(a, 3)
    emb = spec4.embedding_to(spec16)
    mu0 = next((c for c in range(4) if emb.apply_int(c) == mu0_16), None)
    if mu0 is None:  # pragma: no cover - mu0 is a cube root of unity
        raise RuntimeError("mu0 did not land in GF(4)")
    f = _symmetric_pencil_form(spec4, mu0)
    return QuarticSurface(f, "s5_mu0")


def s5_mu0_seed_line() -> Line:
    """The marked line of the record surface, over GF(16):
    x3 = x2 + (a^3+a+1)x1, x4 = (a^3+a^2+a+1)x2 + a*x1."""
    spec16 = FieldSpec.default(4)
    a = fifth_root_alpha(spec16)
    p = spec16.pow_int
    c31 = p(a, 3) ^ a ^ 1
    c42 = p(a, 3) ^ p(a, 2) ^ a ^ 1
    r1 = (1, 0, c31, a)
    r2 = (0, 1, 1, c42)
    return Line(spec16, [r1, r2])


def s5_generators(spec: FieldSpec) -> List[List[List[int]]]:
    """The five-symbol symmetric group on the P^4 coordinates, as 4x4
    matrices on the s1 = 0 model: adjacent transpositions of x1..x4 plus
    the swap x4 <-> x5 = x1+x2+x3+x4."""
    def perm(p):  # permutation of 0..3 as a matrix, x'_c = x_{p(c)}
        m = [[0] * 4 for _ in range(4)]
        for c in range(4):
            m[p[c]][c] = 1
        return m

    gens = [perm((1, 0, 2, 3)), perm((0, 2, 1, 3)), perm((0, 1, 3, 2))]
    swap45 = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]]
    gens.append(swap45)
    return gens


def family_x_form(spec: FieldSpec, lam: int) -> SparsePoly:
    x = [SparsePoly.variable(i, 4, spec) for i in range(4)]
    return ((x[0] ** 3 + x[1] ** 3) * x[2] + (x[1] ** 3 * x[3]).scale(lam)
            + x[0] * x[1] * x[3] ** 2 + x[2] ** 4)


@lru_cache(maxsize=None)
def default_family_x_lambda(spec: Optional[FieldSpec] = None
                            ) -> Tuple[FieldSpec, int]:
    """Smallest lambda in the base field whose member has [0:0:0:1] as its
    only singular point up to extension degree 4 (searched once per
    field)."""
    spec = spec or FieldSpec.default(1)
    for lam in range(spec.size):
        try:
            surf = QuarticSurface(family_x_form(spec, lam), "family_x-probe")
        except UsageError:
            continue
        pts = singular_point_search(surf, max_ext=4)
        if [(p.point, p.ext) for p in pts] == [((0, 0, 0, 1), 1)]:
            return spec, lam
    raise UsageError("no suitable family-x parameter in the base field")


def family_x_surface(lam: Optional[int] = None,
                     spec: Optional[FieldSpec] = None) -> QuarticSurface:
    if lam is None:
        spec, lam = default_family_x_lambda(spec)
    else:
        spec = spec or FieldSpec.default(1)
    return QuarticSurface(family_x_form(spec, lam),
                          f"family_x:{hex(lam)}@{spec.degree}")


def schur_char2_surface() -> QuarticSurface:
    spec = FieldSpec.default(1)
    x = [SparsePoly.variable(i, 4, spec) for i in range(4)]
    f = x[0] ** 4 + x[0] * x[1] ** 3 + x[2] ** 4 + x[2] * x[3] ** 3
    return QuarticSurface(f, "schur_char2")


def fermat_char2_form() -> SparsePoly:
    spec = FieldSpec.default(1)
    x = [SparsePoly.variable(i, 4, spec) for i in range(4)]
    return (x[0] + x[1] + x[2] + x[3]) ** 4


def family_z_form(spec: FieldSpec, q2: Sequence[int],
                  q4: Sequence[int]) -> SparsePoly:
    """x3*x1^3 + x4*x2^3 + x1*x2*q2(x3,x4) + q4(x3,x4)."""
    if len(q2) != 3 or len(q4) != 5:
        raise UsageError("q2 needs 3 coefficients, q4 needs 5")
    x = [SparsePoly.variable(i, 4, spec) for i in range(4)]
    f = x[2] * x[0] ** 3 + x[3] * x[1] ** 3
    for i, c in enumerate(q2):
        if c:
            f = f + (x[0] * x[1] * x[2] ** (2 - i) * x[3] ** i).scale(c)
    for i, c in enumerate(q4):
        if c:
            f = f + (x[2] ** (4 - i) * x[3] ** i).scale(c)
    return f


def family_z_surface(spec: FieldSpec, q2: Sequence[int],
                     q4: Sequence[int]) -> QuarticSurface:
    label = ("family_z:" + str(spec.degree) + ":"
             + ",".join(hex(c) for c in q2) + ":"
             + ",".join(hex(c) for c in q4))
    return QuarticSurface(family_z_form(spec, q2, q4), label)


def z0_surface() -> QuarticSurface:
    """family_z over GF(4) with q2 = 0 and q4 = x3^4 + x3^3 x4 + x4^4."""
    surf = family_z_surface(FieldSpec.default(2), (0, 0, 0), (1, 1, 0, 0, 1))
    surf.label = "z0"
    return surf


def get_surface(surface_id: str) -> QuarticSurface:
    """Resolve a builtin id (see module docstring) or load a JSON file path."""
    if surface_id == "s5_mu0":
        return s5_mu0_surface()
    if surface_id == "schur_char2":
        return schur_char2_surface()
    if surface_id == "fermat_char2":
        # always rejected -- raises with the 4th-power diagnostic
        return QuarticSurface(fermat_char2_form(), "fermat_char2")
    if surface_id == "z0":
        return z0_surface()
    if surface_id.startswith("family_x"):
        rest = surface_id[len("family_x"):]
        if not rest:
            return family_x_surface()
        if not rest.startswith(":"):
            raise UsageError(f"bad family_x id {surface_id!r}")
        lam_part = rest[1:]
        if "@" in lam_part:
            lam_hex, deg = lam_part.split("@", 1)
            spec = FieldSpec.default(int(deg))
        else:
            lam_hex, spec = lam_part, FieldSpec.default(1)
        return family_x_surface(int(lam_hex, 16), spec)
    if surface_id.startswith("family_z:"):
        try:
            _, deg, q2s, q4s = surface_id.split(":")
            spec = FieldSpec.default(int(deg))
            q2 = [int(c, 16) for c in q2s.split(",")]
            q4 = [int(c, 16) for c in q4s.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad family_z id {surface_id!r}: {exc}")
        return family_z_surface(spec, q2, q4)
    # otherwise treat as a file path
    return QuarticSurface.load(surface_id)
