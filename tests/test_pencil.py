import functools
import itertools
import math
import random
from collections import Counter

import pytest
from test_acceptance import (SEED, _random_smooth_surface_with_line,
                             _smooth_family_z_surfaces)

from quartic_lines import field, pencil as pencil_module
from quartic_lines.errors import InconsistencyError, UsageError
from quartic_lines.field import MAX_DEGREE, FieldSpec, poly_mul, root_orbits
from quartic_lines.geometry import (FormLevels, QuarticSurface, axis_line,
                                    canonical_point, centred_frames,
                                    eliminant, enumerate_lines,
                                    first_variable_conditions, gcd_at_tail,
                                    lift_tails, restrict_form,
                                    singular_point_search, vec_mat)
from quartic_lines.pencil import (_ALLOWED, _EULER_MIN, POS_INF,
                                  POS_ZERO, PencilPosition, ResidualPencil,
                                  _audit_one_fiber,
                                  _cubic_singular_points, _eval_form,
                                  _form_derivs, _frame_points,
                                  _lambda_discriminant, _local_quadratic,
                                  classify_fiber,
                                  euler_budget_audit, fiber_line_count,
                                  ramification_type,
                                  residual_cubic, second_kind_fiber_audit,
                                  singular_fibers)
from quartic_lines.poly import (Poly, SparsePoly, _square, binary_roots,
                                squarefree_test, sylvester_resultant)
from quartic_lines.segre import build_dossier
from quartic_lines.surfaces import (family_z_surface, get_surface,
                                    s5_mu0_seed_line, s5_mu0_surface)


GF256 = FieldSpec.default(8)
# the four fixed GF(2) frames the fiber eliminations once tried, centred
# at (1:1:1) first: the frames of the oracles below
_FRAMES = (
    ((1, 1, 1), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (1, 1, 0), (1, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 1, 1)),
    ((0, 0, 1), (1, 0, 0), (1, 1, 1)),
)
# the first frame of the lambda-discriminant, centred at (1:1:0) on the
# line: it moves x2 only, so z keeps its weight in lambda
_LINE_FRAME = ((1, 1, 0), (0, 1, 0), (0, 0, 1))


def xyz(spec):
    return [SparsePoly.variable(i, 3, spec) for i in range(3)]


def test_classify_triangle_is_i3(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(x * y * z)
        assert rep.kodaira == "I3"
        assert rep.component_count() == 3
        assert len(rep.singular_points) == 3
        assert all(s.local_type == "node" for s in rep.singular_points)


def test_classify_nodal_irreducible_is_i1(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        # node at (0:0:1) with split tangents x and y
        f = x * y * z + x ** 3 + y ** 3
        rep = classify_fiber(f)
        assert rep.kodaira == "I1"
        # irreducible: no line components
        assert rep.component_count() == 0
        assert rep.singular_points[0].local_type == "node"


def test_classify_cusp_is_ii(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(z * y * y + x ** 3)
        assert rep.kodaira == "II"
        assert rep.singular_points[0].local_type == "cusp"


def test_classify_conic_plus_secant_line(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        # smooth conic xz + y^2 with the line y = 0 meeting it at (1:0:0) and
        # (0:0:1): two nodes
        rep = classify_fiber((x * z + y * y) * y)
        assert rep.kodaira == "I2"
        # only the line is counted; the conic is not a line component
        assert rep.component_count() == 1
        assert len(rep.singular_points) == 2


def test_classify_conic_plus_tangent_line(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        # line x = 0 is tangent to xz + y^2 at (0:0:1)
        rep = classify_fiber((x * z + y * y) * x)
        assert rep.kodaira == "III"
        assert rep.component_count() == 1
        assert len(rep.singular_points) == 1


def test_classify_concurrent_lines_is_iv(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(x ** 3 + y ** 3)  # three lines through (0:0:1)
        assert rep.kodaira == "IV"
        assert rep.component_count() == 3
        assert rep.singular_points[0].local_type == "triple"


def test_classify_iv_with_hidden_components(gf2):
    x, y, z = xyz(gf2)
    # over GF(2) only x + y is rational; the conjugate pair is hidden
    rep = classify_fiber(x ** 3 + y ** 3)
    assert rep.kodaira == "IV"
    assert len(rep.components) == 1
    assert rep.hidden_components == 2
    assert rep.component_count() == 3


def test_classify_smooth(gf4):
    for spec in (gf4, GF256):
        x, y, z = xyz(spec)
        rep = classify_fiber(x ** 3 + y ** 3 + z ** 3)
        assert rep.kodaira == "smooth"


def test_local_expansion_refused_at_a_smooth_point(gf4):
    # (1:1:0) lies on the Fermat cubic, but d/dx = x^2 does not vanish
    # there.  Past this check the moved cubic is s Q(w) + C(w), so at a
    # triple point (Q = 0) the cubic is its own tangent cone.
    x, y, z = xyz(gf4)
    with pytest.raises(InconsistencyError, match="non-singular"):
        _local_quadratic(x ** 3 + y ** 3 + z ** 3, (1, 1, 0))


def test_truncation_flag_only_when_a_point_can_hide():
    # over GF(256) the search reaches degree 2 only: a singular point found
    # rules out a degree-3 orbit, an empty search does not
    x, y, z = xyz(GF256)
    assert classify_fiber(x * y * z).flags == []
    smooth = classify_fiber(x ** 3 + y ** 3 + z ** 3)
    assert smooth.flags == [
        "singular-point search capped at extension degree 2"]


def test_z0_axis_pencil_full_dossier(gf4):
    surf = get_surface("z0")
    pencil = ResidualPencil(surf, axis_line(gf4))
    ram = ramification_type(pencil)
    assert ram.type == "(2,2)"
    fibers = singular_fibers(pencil)
    assert [f.kodaira for f in fibers] == ["IV"] * 6
    assert fiber_line_count(fibers) == 18
    euler, fits = euler_budget_audit(fibers)
    assert (euler, fits) == (24, True)
    assert any(f.position == POS_ZERO for f in fibers)
    audits = second_kind_fiber_audit(pencil, ram, fibers)
    assert all(entry.ok for entry in audits)


def test_audit_split_field_is_the_lcm_of_the_cut_orbits(s5_dossiers,
                                                        monkeypatch):
    # the former search over extra in (1, 2, 3, 6), kept as oracle: the
    # audit gives up exactly when no field within GF(2^16) holds the
    # fiber data and splits the line's cut
    monkeypatch.setitem(_ALLOWED, "unramified", set(_EULER_MIN))
    gave_up = 0
    for d in s5_dossiers:
        pencil = d.pencil
        for fib in d.fibers:
            pf = pencil.position_field(fib.position)
            if fib.position.is_infinite():
                cut = list(pencil.B)
            else:
                emb = pencil.spec.embedding_to(pf).apply_int
                cut = [emb(a) ^ pf.mul_int(fib.position.bits, emb(b))
                       for a, b in zip(pencil.A, pencil.B)]
            splits = False
            for extra in (1, 2, 3, 6):
                wd = math.lcm(pf.degree * extra, fib.work_degree)
                if wd <= MAX_DEGREE:
                    work = FieldSpec.default(wd)
                    lifted = [pf.embedding_to(work).apply_int(c) for c in cut]
                    splits |= sum(m for _, m in binary_roots(
                        lifted, work)) == 3
            ok, _ = _audit_one_fiber(pencil, fib, "unramified")
            assert (ok is None) == (not splits)
            gave_up += ok is None
    assert gave_up > 0


def test_s5_seed_line_pencil(s5_surface):
    line = s5_mu0_seed_line()
    pencil = ResidualPencil(s5_surface, line)
    ram = ramification_type(pencil)
    assert ram.type == "(1,1)"
    fibers = singular_fibers(pencil)
    kinds = sorted(f.kodaira for f in fibers)
    assert kinds == sorted(["I2"] * 5 + ["I3"] * 4 + ["I1"] * 2)
    assert fiber_line_count(fibers) == 17
    euler, fits = euler_budget_audit(fibers)
    assert fits


def test_geometric_valency_matches_graph(s5_surface, s5_lines, s5_graph):
    for idx in (0, 7, 31):
        pencil = ResidualPencil(s5_surface, s5_lines[idx])
        v = fiber_line_count(singular_fibers(pencil))
        assert v == s5_graph.valency(idx)


def test_degenerate_restriction_raises(gf4):
    # a surface containing the axis line where A and B share a root
    x = [SparsePoly.variable(i, 4, gf4) for i in range(4)]
    f = x[2] * x[0] ** 3 + x[3] * x[0] ** 3 + x[2] ** 4 + x[3] ** 4 \
        + x[0] * x[1] ** 2 * x[3] + x[1] * x[2] ** 3
    surf = QuarticSurface(f, check=True)
    pencil = ResidualPencil(surf, axis_line(gf4))
    with pytest.raises(UsageError):
        ramification_type(pencil)


def test_residual_cubic_is_cubic(gf4):
    surf = get_surface("z0")
    pencil = ResidualPencil(surf, axis_line(gf4))
    for pos in (POS_ZERO, POS_INF):
        cubic = residual_cubic(pencil, pos)
        assert cubic.is_homogeneous(3)


def _level_scan_fibers(pencil, max_ext=6):
    """The former search: root the lambda-discriminant in every GF(2^(k m))
    up to the cap, skip the roots already seen in a subfield, classify."""
    spec = pencil.spec
    disc, _ = _lambda_discriminant(pencil)
    reports, seen = [], []                  # seen: (field, roots) per level
    for m in range(1, max_ext + 1):
        if spec.degree * m > MAX_DEGREE:
            break
        target = spec if m == 1 else FieldSpec.default(spec.degree * m)
        roots = [r for r, _ in
                 disc.embed(spec.embedding_to(target)).roots()]
        known = {field.embedding_to(target).apply_int(r)
                 for d, (field, old) in enumerate(seen, 1) if m % d == 0
                 for r in old}
        for r in roots:
            if r not in known:
                pos = PencilPosition("finite", r, m)
                reports.append(
                    classify_fiber(residual_cubic(pencil, pos), pos))
        seen.append((target, roots))
    reports.append(classify_fiber(residual_cubic(pencil, POS_INF), POS_INF))
    return [r.to_json() for r in reports if r.kodaira != "smooth"]


def _sweep_surfaces(count):
    """The first seeded random GF(8) surfaces of acceptance test 07b."""
    rng = random.Random(SEED)
    return [_random_smooth_surface_with_line(rng, FieldSpec.default(3))
            for _ in range(count)]


def test_singular_fibers_match_the_level_scan(s5_surface):
    gf4, gf8 = FieldSpec.default(2), FieldSpec.default(3)
    pencils = [ResidualPencil(get_surface("z0"), axis_line(gf4)),
               ResidualPencil(s5_surface, s5_mu0_seed_line())]
    pencils += [ResidualPencil(surf, axis_line(gf8))
                for surf in _sweep_surfaces(3)]
    for pencil in pencils:
        assert [r.to_json() for r in singular_fibers(pencil)] == \
            _level_scan_fibers(pencil)


def test_unclassified_fiber_orbits_are_flagged():
    # the first 07b surface: its lambda-discriminant has irreducible
    # factors of degree 6 and 10 over GF(8), past GF(2^15); it has no
    # root whose fiber is smooth, so no capped search leaves a flag
    surf = _sweep_surfaces(1)[0]
    flags = []
    pencil = ResidualPencil(surf, axis_line(FieldSpec.default(3)))
    fibers = singular_fibers(pencil, flags=flags)
    want = ["fiber orbits of total degree 16 past degree 5 not classified"]
    assert flags == want
    dossier = build_dossier(surf, axis_line(FieldSpec.default(3)))
    assert dossier.flags == want
    assert dossier.to_json()["fibers"] == [f.to_json() for f in fibers]


def test_short_euler_sum_flags_the_capped_orbits():
    # the first smooth family-Z surface over GF(4) that random.Random(11)
    # draws (q2, then q4): no singular point up to GF(2^16), an axis
    # pencil whose classified fibers sum to 9, and a dropped orbit of
    # degree 5, searched in GF(2^10) only up to its own field
    gf4 = FieldSpec.default(2)
    surf = family_z_surface(gf4, (3, 3, 3), (1, 1, 3, 1, 0))
    assert singular_point_search(surf, max_ext=8) == []
    dossier = build_dossier(surf, axis_line(gf4))
    assert euler_budget_audit(dossier.fibers)[0] == 9
    assert dossier.flags == ["fiber orbit of degree 5: singular-point "
                             "search capped at extension degree 1"]


def test_short_euler_sum_with_no_flag_is_flagged(s5_surface, monkeypatch):
    # hide the record pencil's two I1 fibers of degree 2 by keeping only
    # the rational roots of its lambda-discriminant, with no rest: what
    # is left is I2 and I3 fibers summing to 22
    pencil = ResidualPencil(s5_surface, s5_mu0_seed_line())
    disc = _lambda_discriminant(pencil)[0].coeffs

    def rational_only(coeffs, spec, cap):
        levels, rest = root_orbits(coeffs, spec, cap)
        if list(coeffs) != list(disc):
            return levels, rest
        return levels[:1] + [(f, []) for f, _ in levels[1:]], [1]

    monkeypatch.setattr(pencil_module, "root_orbits", rational_only)
    flags = []
    fibers = singular_fibers(pencil, flags)
    assert sorted({f.kodaira for f in fibers}) == ["I2", "I3"]
    assert flags == ["Euler sum 22 < 24: surface singular or fiber missed"]


def test_root_orbits_take_no_frobenius_step_past_the_cap(monkeypatch):
    # the first 07b surface's lambda-discriminant leaves orbits of total
    # degree 16 over GF(8) past the field cap 5: one Frobenius power per
    # degree up to the cap, and none to split what is left
    pencil = ResidualPencil(_sweep_surfaces(1)[0],
                            axis_line(FieldSpec.default(3)))
    disc, _ = _lambda_discriminant(pencil)
    calls = []
    frobenius = field._frobenius

    def spy(*args):
        calls.append(args)
        return frobenius(*args)

    monkeypatch.setattr(field, "_frobenius", spy)
    levels, rest = root_orbits(disc.coeffs, pencil.spec,
                               MAX_DEGREE // pencil.spec.degree)
    assert len(levels) == 5 and len(rest) - 1 == 16
    assert len(calls) <= 5


def _coeffs_in_y1(p):
    """The coefficients of p in its first variable, highest power first."""
    coeffs, zero = p.coefficients_in(0), SparsePoly.zero(p.nvars, p.spec)
    return [coeffs.get(k, zero) for k in range(p.degree_in(0), -1, -1)]


def _powers_of(p, var, n):
    """The coefficients of p of the powers 0 to n of `var`, each keeping
    p's variables."""
    by_power, zero = p.coefficients_in(var), SparsePoly.zero(p.nvars, p.spec)
    return [by_power.get(k, zero) for k in range(n + 1)]


def _binary_in_lambda(cond):
    """A condition in (y1, y2, y3, lambda), free of y1 and homogeneous in
    (y2, y3), by its coefficients as a binary form, y2-major, each a
    polynomial in lambda."""
    deg = max(e[1] + e[2] for e in cond.terms)
    assert all(e[1] + e[2] == deg for e in cond.terms)
    return [Poly(cond.spec, [c.evaluate([1, 1, 1, 1])
                             for c in _powers_of(row, 3, row.degree_in(3))])
            for row in _powers_of(cond, 2, deg)]


def _frame_condition(pencil, frame):
    """The former per-frame condition of `_lambda_discriminant`: y1, then
    (y2 : y3) eliminated in one frame, with no centre test; None when the
    frame degenerates."""
    spec = pencil.spec
    moved = pencil.g.linear_change(frame)
    parts = [p for p in (moved.derivative(i) for i in range(3))
             if not p.is_zero()]
    if len(parts) < 2:
        return None
    with1 = [p for p in parts if p.degree_in(0) >= 1]
    conds = [p for p in parts if p.degree_in(0) == 0]
    if len(with1) >= 2:
        c0 = _coeffs_in_y1(with1[0])
        for other in with1[1:]:
            r = sylvester_resultant(c0, _coeffs_in_y1(other),
                                    SparsePoly.zero(4, spec))
            if not r.is_zero():
                conds.append(r)
    pure = [c for c in conds
            if max((e[1] + e[2] for e in c.terms), default=0) == 0]
    if pure:
        return _binary_in_lambda(pure[0])[0]
    for ca, cb in itertools.combinations(conds, 2):
        fa, fb = _binary_in_lambda(ca), _binary_in_lambda(cb)
        if len(fa) >= 2 and len(fb) >= 2:
            r = sylvester_resultant(fa, fb, Poly.zero(spec))
            if not r.is_zero():
                return r
    return None


def _two_frame_product(pencil):
    """The former lambda-discriminant: the product of the conditions of
    the first two usable frames."""
    conds = [c for c in (_frame_condition(pencil, fr) for fr in _FRAMES)
             if c is not None]
    return conds[0] * conds[1]


def _fibers_from(pencil, disc, max_ext=6):
    """`singular_fibers` on a given discriminant: reports and flags."""
    reports = []
    levels, rest = root_orbits(disc.coeffs, pencil.spec, max_ext)
    for m, (_, roots) in enumerate(levels, 1):
        for r in roots:
            pos = PencilPosition("finite", r, m)
            reports.append(classify_fiber(residual_cubic(pencil, pos), pos))
    reports.append(classify_fiber(residual_cubic(pencil, POS_INF), POS_INF))
    flags = [f"fiber orbits of total degree {len(rest) - 1} past degree "
             f"{len(levels)} not classified"] if len(rest) > 1 else []
    kept = [r for r in reports if r.kodaira != "smooth"]
    if sum(_EULER_MIN[r.kodaira] for r in kept) < 24:
        capped = Counter((r.position.ext, r.flags[0]) for r in reports
                         if r.kodaira == "smooth" and r.flags)
        flags += [f"fiber orbit of degree {m}: {text}"
                  for (m, text), n in sorted(capped.items())
                  for _ in range(n // m)]
    return kept, flags


def test_lambda_discriminant_covers_the_two_frame_product(s5_surface):
    gf4, gf8 = FieldSpec.default(2), FieldSpec.default(3)
    pencils = [ResidualPencil(get_surface("z0"), axis_line(gf4)),
               ResidualPencil(s5_surface, s5_mu0_seed_line())]
    pencils += [ResidualPencil(surf, axis_line(gf8))
                for surf in _sweep_surfaces(3)]
    for pencil in pencils:
        spec = pencil.spec
        disc, _ = _lambda_discriminant(pencil)
        want, want_flags = _fibers_from(pencil, _two_frame_product(pencil))
        for rep in want:
            pos = rep.position
            if pos.is_infinite():
                continue
            target = pencil.position_field(pos)
            on = disc if target == spec else \
                disc.embed(spec.embedding_to(target))
            assert on.eval_int(pos.bits) == 0, pos
        flags = []
        got = singular_fibers(pencil, flags=flags)
        assert [r.to_json() for r in got] == [r.to_json() for r in want]
        # the same orbits past the cap; the product's capped-orbit flags
        # sit on its spurious roots, whose fibers are smooth
        assert flags == [f for f in want_flags
                         if not f.startswith("fiber orbit of degree")]


def test_record_dossiers_classify_no_smooth_fiber(monkeypatch, s5_surface,
                                                  s5_lines):
    # with the frame's centre on the line, no record line's
    # lambda-discriminant has a root whose fiber is smooth: 11 classified
    # fibers per dossier, the one at infinity included
    kinds = Counter()
    current = pencil_module.classify_fiber

    def spy(*args, **kwargs):
        rep = current(*args, **kwargs)
        kinds[rep.kodaira] += 1
        return rep

    monkeypatch.setattr(pencil_module, "classify_fiber", spy)
    for line in s5_lines:
        singular_fibers(ResidualPencil(s5_surface, line))
    assert sum(kinds.values()) == 660 and kinds["smooth"] == 0


def test_fiber_singular_only_at_the_frame_centre():
    # a smooth quartic over GF(4) through the axis line (no singular point
    # up to GF(4096)) whose fiber at lambda = 1 is of type III, singular
    # only at the first frame's centre (1:1:0) on the line.  There the
    # partials in x2 and z vanish for every lambda; moved by that frame
    # they are free of y1, so they are conditions as they stand, and
    # those need not vanish where a fiber is singular at the centre: the
    # frame's condition misses lambda = 1, the centre gcd catches it
    gf4 = FieldSpec.default(2)
    f = SparsePoly(4, gf4, {
        (0, 0, 0, 4): 3, (0, 0, 1, 3): 2, (0, 0, 3, 1): 3, (0, 0, 4, 0): 1,
        (0, 1, 0, 3): 1, (0, 1, 1, 2): 3, (0, 1, 3, 0): 2, (0, 2, 0, 2): 1,
        (0, 2, 1, 1): 2, (0, 2, 2, 0): 2, (0, 3, 0, 1): 1, (1, 0, 0, 3): 3,
        (1, 0, 1, 2): 3, (1, 0, 2, 1): 2, (2, 0, 0, 2): 1, (2, 0, 1, 1): 2,
        (2, 0, 2, 0): 2, (2, 1, 0, 1): 1, (3, 0, 0, 1): 1, (3, 0, 1, 0): 1})
    surf = QuarticSurface(f, "centre")
    assert singular_point_search(surf, max_ext=6) == []
    pencil = ResidualPencil(surf, axis_line(gf4))
    lam = PencilPosition("finite", 1, 1)
    assert _cubic_singular_points(residual_cubic(pencil, lam), 3) == \
        [((1, 1, 0), 1)]
    assert _frame_condition(pencil, _LINE_FRAME).eval_int(1) != 0
    assert _lambda_discriminant(pencil)[0].eval_int(1) == 0
    fibers = {r.position: r for r in singular_fibers(pencil)}
    assert fibers[lam].kodaira == "III"
    assert [s.point for s in fibers[lam].singular_points] == [(1, 1, 0)]
    # the discriminant's frame, specialised at lambda = 1, finds the
    # centre by its direct check
    frames = {pos: on_level.at(pos.bits)
              for pos, _, _, on_level in _pencil_fiber_frames(pencil)}
    assert frames[lam][2] == _LINE_FRAME
    assert _frame_points(*frames[lam], 3) == [((1, 1, 0), 1)]


def _pencil_fiber_frames(pencil, max_ext=6):
    """Each finite root of the lambda-discriminant as (position, residual
    cubic, top, the discriminant's frame over the position's field), the
    frame embedded once per level as `singular_fibers` does."""
    spec = pencil.spec
    disc, frame = _lambda_discriminant(pencil)
    levels, _ = root_orbits(disc.coeffs, spec, max_ext)
    for m, (target, roots) in enumerate(levels, 1):
        on_level = frame if m == 1 else frame.embed(
            spec.embedding_to(target))
        for r in roots:
            pos = PencilPosition("finite", r, m)
            yield (pos, residual_cubic(pencil, pos),
                   min(3, MAX_DEGREE // target.degree), on_level)


def test_fiber_frames_match_the_cubics_own_frames(s5_surface, s5_lines):
    gf8 = FieldSpec.default(3)
    z0 = get_surface("z0")
    pencils = [ResidualPencil(s5_surface, s5_lines[i])
               for i in (0, 12, 16, 31, 47)]
    pencils += [ResidualPencil(z0, ln) for ln in enumerate_lines(z0, ext=1)]
    pencils += [ResidualPencil(surf, axis_line(gf8))
                for surf in _sweep_surfaces(3)]
    assert len(pencils) == 15
    seen = set()                    # (absolute degree, level, top)
    singular = 0
    for pencil in pencils:
        for pos, cubic, top, on_level in _pencil_fiber_frames(pencil):
            got = _frame_points(*on_level.at(pos.bits), top)
            assert got is not None, pos
            assert got == _cubic_singular_points(cubic, top), pos
            seen.add((cubic.spec.degree, pos.ext, top))
            singular += bool(got)
    assert {(8, 2, 2), (15, 5, 1), (4, 2, 3)} <= seen
    assert singular > 100


def test_fiber_frame_without_conditions_falls_back_to_the_cubics_frames():
    # zero every condition of the z0 axis pencil's frame: each finite
    # fiber's search (five of type IV) must find no binary condition
    # there and redo the elimination in the cubic's own frames, with the
    # same answer
    pencil = ResidualPencil(get_surface("z0"), axis_line(FieldSpec.default(2)))
    singular = 0
    for pos, cubic, top, on_level in _pencil_fiber_frames(pencil):
        zero = SparsePoly.zero(3, cubic.spec)
        zeroed = on_level._replace(
            conds=[zero] * len(on_level.conds)).at(pos.bits)
        assert on_level.conds and zeroed[1] == [] and zeroed[0]
        assert _frame_points(*zeroed, top) is None
        want = classify_fiber(cubic, pos).to_json()
        assert classify_fiber(cubic, pos, frame=zeroed).to_json() == want
        assert classify_fiber(cubic, pos, frame=on_level.at(
            pos.bits)).to_json() == want
        singular += want["kodaira"] != "smooth"
    assert singular == 5


def _divided(p, var):
    """Exact division by the given variable."""
    assert all(e[var] for e in p.terms)
    return SparsePoly(p.nvars, p.spec, {
        e[:var] + (e[var] - 1,) + e[var + 1:]: c for e, c in p.terms.items()})


def _two_chart_forms(pencil):
    """The former two-chart construction, kept as oracle: the pencil forms
    (g, g_inf) in (x1, x2, z, param) of the lambda chart x4 = lambda*x3
    and of the mu chart x3 = mu*x4, each by substitution and exact
    division by the plane coordinate."""
    fp = pencil.normalized.f
    plane = SparsePoly.monomial(4, pencil.spec, (0, 0, 1, 1))
    g = _divided(fp.substitute({3: plane}), 2)
    gi = _divided(fp.substitute({2: plane}), 3)
    g_inf = SparsePoly(4, pencil.spec, {
        (e[0], e[1], e[3], e[2]): c for e, c in gi.terms.items()})
    return g, g_inf


def _residual_cubic_by_substitution(pencil, pos):
    """The former `residual_cubic`: the chart's pencil form with param
    substituted by the position, then dropped."""
    target = pencil.position_field(pos)
    g = _two_chart_forms(pencil)[pos.is_infinite()]
    if target != pencil.spec:
        g = g.embed(pencil.spec.embedding_to(target))
    lam = SparsePoly.constant(4, target, pos.bits)
    return g.substitute({3: lam}).drop_vars([0, 1, 2])


def test_residual_cubic_matches_the_substitution(s5_surface):
    for pencil in (ResidualPencil(get_surface("z0"),
                                  axis_line(FieldSpec.default(2))),
                   ResidualPencil(s5_surface, s5_mu0_seed_line())):
        spec = pencil.spec
        big = FieldSpec.default(2 * spec.degree)
        _, frame = _lambda_discriminant(pencil)
        positions = [POS_INF] + [PencilPosition("finite", b, 1)
                                 for b in range(spec.size)]
        positions += [PencilPosition("finite", b, 2)
                      for b in range(2, big.size, big.size // 7)]
        for pos in positions:
            assert residual_cubic(pencil, pos) == \
                _residual_cubic_by_substitution(pencil, pos), pos
            if pos.is_infinite():
                continue
            # the frame's moved partials go through the same kernel
            target = pencil.position_field(pos)
            on = frame if target == spec else frame.embed(
                spec.embedding_to(target))
            lam = SparsePoly.constant(4, target, pos.bits)
            want = [p.substitute({3: lam}).drop_vars([0, 1, 2])
                    for p in on.parts]
            assert on.at(pos.bits)[0] == [p for p in want if not p.is_zero()]


def _in_y1_at(p, y2, y3):
    """A form in (y1, y2, y3) at the given y2 and y3, as a polynomial in
    y1, by substitution."""
    sub = p.substitute({1: SparsePoly.constant(3, p.spec, y2),
                        2: SparsePoly.constant(3, p.spec, y3)})
    return Poly(p.spec, [c.evaluate([0, 0, 0])
                         for c in _powers_of(sub, 0, sub.degree_in(0))])


def _singular_points_over(cubic, spec):
    """The former per-field search: the spec-rational singular points of a
    ternary cubic over spec, by elimination in the first usable frame."""
    for frame in _FRAMES:
        moved = cubic.linear_change(frame)
        parts = [p for p in (moved.derivative(i) for i in range(3))
                 if not p.is_zero()]
        with1 = [p for p in parts if p.degree_in(0) >= 1]
        conds = [p for p in parts if p.degree_in(0) == 0]
        if len(with1) >= 2:
            c0 = _coeffs_in_y1(with1[0])
            for other in with1[1:]:
                r = sylvester_resultant(c0, _coeffs_in_y1(other),
                                        SparsePoly.zero(3, spec))
                if not r.is_zero():
                    conds.append(r)
        cands = None
        for cond in conds[:3]:
            coeffs = [c.evaluate([1, 1, 1])
                      for c in _powers_of(cond, 2, cond.total_degree())]
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
            unis = [u for u in (_in_y1_at(p, y2, y3) for p in parts)
                    if not u.is_zero()]
            g = unis[0]
            for u in unis[1:]:
                g = g.gcd(u)
            for r, _ in (g.roots() if g.degree() >= 1 else []):
                if all(p.evaluate([r, y2, y3]) == 0 for p in parts):
                    found.append((r, y2, y3))
        return sorted({canonical_point(vec_mat(y, frame, spec), spec)
                       for y in found})
    raise AssertionError("every frame degenerated")


def _level_scan_singular_points(cubic):
    """The former search of `classify_fiber`: the cubic embedded in
    GF(q), GF(q^2), GF(q^3) (within GF(2^16)), each searched on its own,
    the points already seen in a subfield dropped."""
    base, k = cubic.spec, cubic.spec.degree
    out, seen = [], {}
    for d in (d for d in (1, 2, 3) if k * d <= MAX_DEGREE):
        target = base if d == 1 else FieldSpec.default(k * d)
        cd = cubic if d == 1 else cubic.embed(base.embedding_to(target))
        pts = _singular_points_over(cd, target)
        known = {tuple(src.embedding_to(target).apply_int(c) for c in pt)
                 for dd, (src, old) in seen.items() if d % dd == 0
                 for pt in old}
        out += [(pt, d) for pt in pts if pt not in known]
        seen[d] = (target, pts)
    return out


def _seeded_reduced_cubic(rng, spec, kind):
    """A random reduced cubic: singular at a random rational point (kind
    0), a line times a conic (1) or three lines (2)."""
    x = xyz(spec)

    def linear():
        return sum((v.scale(rng.randrange(spec.size)) for v in x),
                   SparsePoly.zero(3, spec))

    while True:
        if kind == 0:
            # no monomial of degree >= 2 in z: singular at (0:0:1), then a
            # change of coordinates moves the point
            f = SparsePoly(3, spec, {
                (a, b, 3 - a - b): rng.randrange(spec.size)
                for a in range(4) for b in range(4 - a) if a + b >= 2})
            f = f.substitute({0: linear(), 1: linear(), 2: linear()})
        elif kind == 1:
            f = linear() * (linear() * linear() + linear() * linear())
        else:
            f = linear() * linear() * linear()
        if f.is_homogeneous(3) and not f.is_zero() and squarefree_test(f)[0]:
            return f


def _conjugate_triangle():
    # L = x + a y + a^2 z over GF(8) and its two conjugates: a GF(2) cubic
    # whose three vertices form one orbit of degree 3
    gf8 = FieldSpec.default(3)
    x, y, z = xyz(gf8)
    f = SparsePoly.constant(3, gf8, 1)
    a = 2
    for _ in range(3):
        f = f * (x + y.scale(a) + z.scale(gf8.mul_int(a, a)))
        a = gf8.mul_int(a, a)
    assert set(f.terms.values()) == {1}
    return SparsePoly(3, FieldSpec.default(1), f.terms)


def _line_and_conic(spec):
    # z = 0 meets the smooth conic x^2 + xy + y^2 + xz in a conjugate
    # pair over GF(2)
    x, y, z = xyz(spec)
    return z * (x * x + x * y + y * y + x * z)


def _pair_through_the_centre(spec):
    # (x1 + x3)(x2^2 + x1 x2 + x1 x3): nodes at (1 : w : 1), w^2 + w + 1 = 0,
    # on the line x1 = x3 through (1:1:1), the projection centre of the
    # first frame; in its coordinates the pair shares the direction (1 : 0)
    x, y, z = xyz(spec)
    return (x + z) * (y * y + x * y + x * z)


_CUBIC_CASES = {
    **{f"seeded-gf{2 ** k}-{i}":
       (lambda k=k, i=i: _seeded_reduced_cubic(
           random.Random(f"fiber-cubic:{k}:{i}"), FieldSpec.default(k),
           i % 3))
       for k, count in ((1, 6), (2, 6), (4, 4)) for i in range(count)},
    "conjugate-triangle": _conjugate_triangle,
    "line-and-conic": lambda: _line_and_conic(FieldSpec.default(1)),
    "pair-through-the-centre":
        lambda: _pair_through_the_centre(FieldSpec.default(1)),
}


@pytest.mark.parametrize("name", list(_CUBIC_CASES))
def test_cubic_singular_points_match_the_level_scan(name):
    cubic = _CUBIC_CASES[name]()
    got = _cubic_singular_points(cubic, min(3, MAX_DEGREE // cubic.spec.degree))
    assert got == _level_scan_singular_points(cubic)
    want_degrees = {"conjugate-triangle": [3, 3, 3],
                    "line-and-conic": [2, 2],
                    "pair-through-the-centre": [2, 2]}.get(name)
    if want_degrees is not None:
        assert [d for _, d in got] == want_degrees


def _root_multiplicity_by_expansion(form, root, spec):
    """The former multiplicity of a projective root in a binary form
    (u-major): the order in t of form(s*root + t*w) for a second point
    w."""
    d = len(form) - 1
    w = (0, 1) if root[0] else (1, 0)
    binary = SparsePoly(2, spec, {(d - i, i): c for i, c in enumerate(form)})
    out = restrict_form(binary, root, w)
    return next((j for j, c in enumerate(out) if c), d + 1)


def _minimal_position(lam, ext, base):
    """A finite position over the smallest subfield holding it, found by
    mapping every element of each subfield into GF(q^ext)."""
    target = base if ext == 1 else FieldSpec.default(base.degree * ext)
    for dd in (dd for dd in range(1, ext) if ext % dd == 0):
        src = base if dd == 1 else FieldSpec.default(base.degree * dd)
        emb = src.embedding_to(target)
        hit = next((x for x in range(src.size) if emb.apply_int(x) == lam),
                   None)
        if hit is not None:
            return PencilPosition("finite", hit, dd)
    return PencilPosition("finite", lam, ext)


def _level_scan_ramification(pencil):
    """The former ramification search: the roots of the Wronskian in every
    GF(2^(k d)), d <= 4, the roots already seen in a subfield skipped."""
    spec, a, b = pencil.spec, pencil.A, pencil.B
    au, av = _form_derivs(a, spec)
    bu, bv = _form_derivs(b, spec)
    w = [x ^ y for x, y in zip(poly_mul(au, bv, spec),
                               poly_mul(av, bu, spec))]
    points, seen = [], {}
    for d in (d for d in (1, 2, 3, 4) if spec.degree * d <= MAX_DEGREE):
        target = spec if d == 1 else FieldSpec.default(spec.degree * d)
        emb = spec.embedding_to(target)
        wd, ad, bd = ([emb.apply_int(c) for c in f] for f in (w, a, b))
        roots = [r for r, _ in binary_roots(wd, target)]
        known = {tuple(src.embedding_to(target).apply_int(c) for c in r)
                 for dd, (src, old) in seen.items() if d % dd == 0
                 for r in old}
        for u0, v0 in roots:
            if (u0, v0) in known:
                continue
            a0 = _eval_form(ad, u0, v0, target)
            b0 = _eval_form(bd, u0, v0, target)
            form = [target.mul_int(b0, x) ^ target.mul_int(a0, y)
                    for x, y in zip(ad, bd)]
            image = _minimal_position(target.div_int(a0, b0), d, spec) \
                if b0 else POS_INF
            points.append({"pos": [hex(u0), hex(v0)], "ext": d,
                           "image": image.to_json(),
                           "e": _root_multiplicity_by_expansion(
                               form, (u0, v0), target)})
        seen[d] = (target, roots)
    return points


def test_ramification_matches_the_level_scan(s5_surface):
    gf4, gf8 = FieldSpec.default(2), FieldSpec.default(3)
    pencils = [ResidualPencil(get_surface("z0"), axis_line(gf4)),
               ResidualPencil(s5_surface, s5_mu0_seed_line())]
    # 07b surfaces 1 and 4: two points of degree 2; a rational point and
    # the point (0 : 1)
    pencils += [ResidualPencil(surf, axis_line(gf8))
                for surf in _sweep_surfaces(5)[1::3]]
    for pencil in pencils:
        assert ramification_type(pencil).to_json()["points"] == \
            _level_scan_ramification(pencil)


# -- one elimination per fiber: the oracles of the frame at infinity, the
# conjugate fibers and the lift by a form linear in y1 -----------------------


@functools.lru_cache(maxsize=None)
def _oracle_pencils():
    """Every record and z0 line, and the axis lines of the first 10 07b
    surfaces and of 10 smooth family-Z surfaces per field GF(2), GF(4),
    GF(8)."""
    s5, z0 = s5_mu0_surface(), get_surface("z0")
    pencils = [ResidualPencil(s5, ln) for ln in enumerate_lines(s5, ext=2)]
    pencils += [ResidualPencil(z0, ln) for ln in enumerate_lines(z0, ext=1)]
    pencils += [ResidualPencil(surf, axis_line(FieldSpec.default(3)))
                for surf in _sweep_surfaces(10)]
    for k in (1, 2, 3):
        spec = FieldSpec.default(k)
        pencils += [ResidualPencil(surf, axis_line(spec))
                    for surf in _smooth_family_z_surfaces(spec, 10)]
    return pencils


def _own_frame(cubic, frame):
    """The nonzero partials of the cubic moved by the frame, and its
    conditions there, as `_cubic_singular_points` forms them."""
    moved = cubic.linear_change(frame)
    parts = [moved.derivative(i) for i in range(3)]
    conds = [c for c, _ in pencil_module._nucleus(parts).conds]
    return [p for p in parts if not p.is_zero()], conds, frame


def test_fiber_at_infinity_read_off_the_frame_matches_its_own_frames():
    read = 0
    for pencil in _oracle_pencils():
        _, frame = _lambda_discriminant(pencil)
        cubic = residual_cubic(pencil, POS_INF)
        top = min(3, MAX_DEGREE // cubic.spec.degree)
        inf = frame.at_infinity()
        assert inf is not None
        # the pencil's moved partials at their bounds are the cubic's own
        own = _own_frame(cubic, frame.frame)
        assert inf.parts == own[0]
        if inf.binary:
            read += 1
            assert _frame_points(*inf, top) == \
                _cubic_singular_points(cubic, top)
        assert classify_fiber(cubic, POS_INF, frame=inf).to_json() == \
            classify_fiber(cubic, POS_INF).to_json()
    assert read == len(_oracle_pencils()) == 107


def test_fiber_at_infinity_falls_back_in_a_frame_that_moves_z(monkeypatch):
    # with the lambda-discriminant's frames centred at (1:1:1) first, the
    # answering frame moves z: the fiber at infinity is searched in its
    # own frames, with the same reports
    pencils = [ResidualPencil(s5_mu0_surface(), s5_mu0_seed_line()),
               ResidualPencil(get_surface("z0"),
                              axis_line(FieldSpec.default(2)))]
    pencils += [ResidualPencil(surf, axis_line(FieldSpec.default(3)))
                for surf in _sweep_surfaces(3)]
    want = [[r.to_json() for r in singular_fibers(p)] for p in pencils]
    frames = []
    current = pencil_module.classify_fiber

    def spy(cubic, position=None, *, frame=None):
        if position == POS_INF:
            frames.append(frame)
        return current(cubic, position, frame=frame)

    monkeypatch.setattr(pencil_module, "_CENTRE", (1, 1, 1))
    monkeypatch.setattr(pencil_module, "classify_fiber", spy)
    for pencil, reports in zip(pencils, want):
        assert _lambda_discriminant(pencil)[1].frame[0] == (1, 1, 1)
        assert [r.to_json() for r in singular_fibers(pencil)] == reports
    assert frames == [None] * len(pencils)
    # of the GF(2) frames, those that leave z alone are read at infinity
    _, frame = _lambda_discriminant(pencils[0])
    for fr in centred_frames((1, 1, 0)):
        leaves_z = [row[2] for row in fr] == [0, 0, 1]
        assert (frame._replace(frame=fr).at_infinity() is None) != leaves_z


def test_conjugate_fibers_match_their_own_search():
    # the record seed line's I1 pair and the orbits of degree 2 to 5 of
    # the first 20 07b surfaces: each conjugate's report, from the
    # conjugates of the first fiber's points, is the one its own search
    # in the frame gives
    pencils = [ResidualPencil(s5_mu0_surface(), s5_mu0_seed_line())]
    pencils += [ResidualPencil(surf, axis_line(FieldSpec.default(3)))
                for surf in _sweep_surfaces(20)]
    degrees = Counter()
    for pencil in pencils:
        got = {r.position: r.to_json() for r in singular_fibers(pencil)}
        for pos, cubic, top, on_level in _pencil_fiber_frames(pencil):
            if pos.ext == 1:
                continue
            want = classify_fiber(cubic, pos, frame=on_level.at(pos.bits))
            assert got.get(pos) == (want.to_json() if want.kodaira
                                    != "smooth" else None), pos
            degrees[pos.ext, want.kodaira] += 1
    assert degrees[2, "I1"] >= 2
    assert {m for m, _ in degrees} == {2, 3, 4, 5}


def _frame_points_by_gcd(parts, binary, frame, top):
    """The former `_frame_points`: every direction lifted to P^2 by the
    gcd in y1 of the partials there (`lift_tails`)."""
    if not binary:
        return None
    dirs = lift_tails(FormLevels(binary), [((1,), 1)], top)
    forms = FormLevels(parts)
    found = lift_tails(forms, dirs, top)
    assert found is not None
    return sorted({(canonical_point(vec_mat(y, frame, forms.spec.level(e)),
                                    forms.spec.level(e)), e)
                   for y, e in found}, key=lambda pe: (pe[1], pe[0]))


def test_linear_lift_finds_the_points_of_the_gcd_lift():
    # every fiber of the oracle pencils, in the lambda-discriminant's
    # frame (the one at infinity included) and in the cubic's first own
    # frame
    lifted = 0
    for pencil in _oracle_pencils():
        _, frame = _lambda_discriminant(pencil)
        fibers = [(residual_cubic(pencil, POS_INF), frame.at_infinity())]
        fibers += [(cubic, on_level.at(pos.bits)) for pos, cubic, _, on_level
                   in _pencil_fiber_frames(pencil)]
        for cubic, at in fibers:
            top = min(3, MAX_DEGREE // cubic.spec.degree)
            for fr in (at, _own_frame(cubic, next(centred_frames((1, 1, 0))))):
                want = _frame_points_by_gcd(*fr, top)
                assert _frame_points(*fr, top) == want
                lifted += bool(want)
    assert lifted > 1000


# -- the centre of a frame is the nucleus of its partial's conic: y1 is
# eliminated in closed form ---------------------------------------------------


def _random_form(rng, nvars, spec, degree):
    return SparsePoly(nvars, spec, {
        e: rng.randrange(spec.size)
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) == degree})


@pytest.mark.parametrize("nvars", [3, 4])
def test_the_centres_partial_has_no_odd_power_of_y1(nvars):
    # d/dy1 of y1^k is k y1^(k-1), zero in characteristic 2 for even k:
    # the moved form's partial along the centre is even in y1, in every
    # GF(2) frame, for forms of every degree and field
    rng = random.Random(f"nucleus:{nvars}")
    first = (1,) + (0,) * (nvars - 1)
    seen = 0
    for k in range(1, 9):
        spec = FieldSpec.default(k)
        for degree in (2, 3, 4):
            form = _random_form(rng, nvars, spec, degree)
            for frame in centred_frames(first):
                p1 = form.linear_change(frame).derivative(0)
                assert all(e[0] % 2 == 0 for e in p1.terms), (k, frame)
                seen += any(e[0] for e in p1.terms)
    assert seen > 100


def _y1_resultant(p, q):
    """The resultant in y1 of two forms of y1-degree at most 2, at formal
    degree 2, in the other variables."""
    def coeffs(f):
        by_power = f.coefficients_in(0)
        zero = SparsePoly.zero(f.nvars, f.spec)
        return [by_power.get(k, zero).drop_vars(range(1, f.nvars))
                for k in (2, 1, 0)]
    return sylvester_resultant(coeffs(p), coeffs(q),
                               SparsePoly.zero(p.nvars - 1, p.spec))


def _nucleus_cases():
    """(moved partials P1, P2, P3) of random cubics over GF(2) to GF(256)
    in every GF(2) frame, and of the oracle pencils in their
    lambda-discriminant's frame."""
    rng = random.Random("nucleus-cases")
    for k in range(1, 9):
        spec = FieldSpec.default(k)
        for _ in range(3):
            cubic = _random_form(rng, 3, spec, 3)
            for frame in centred_frames((1, 1, 0)):
                moved = cubic.linear_change(frame)
                yield [moved.derivative(i) for i in range(3)]
    for pencil in _oracle_pencils():
        moved = pencil.g.linear_change(_LINE_FRAME)
        yield [moved.derivative(i) for i in range(3)]


def test_nucleus_conditions_are_the_y1_resultants():
    # N_j = U_j^2 + A a_j^2 C' is Res_y1(P1, P_j), and when a_j = 0 the
    # condition U_j is its square root; with both a_j nonzero the binary
    # cubic V heads the conditions; with A = 0 the forms free of y1 are
    with_v = roots = 0
    for parts in _nucleus_cases():
        nucleus = pencil_module._nucleus(parts)
        conds = [c for c, _ in nucleus.conds]
        free = [p.drop_vars(range(1, p.nvars)) for p in parts
                if not p.is_zero() and p.degree_in(0) == 0]
        if parts[0].degree_in(0) < 2:
            assert conds == free
            continue
        res = [_y1_resultant(parts[0], p) for p in parts[1:]]
        if nucleus.alpha is not None:
            with_v += 1
            assert all(e[0] + e[1] == 3 for e in conds[0].terms)
            assert conds[1:] == [r for r in res if not r.is_zero()]
            continue
        for c in conds:
            if c not in free:
                roots += 1
                assert _square(c) in res
    assert with_v > 100 and roots > 0


def _former_eliminant(pencil, frame):
    """The former positions polynomial of a frame: the resultant in
    (y2 : y3) of the y1-resultants of the moved partials
    (`first_variable_conditions`, `eliminant`)."""
    moved = pencil.g.linear_change(frame)
    parts = [p for p in (moved.derivative(i) for i in range(3))
             if not p.is_zero()]
    conds = first_variable_conditions(parts)
    return eliminant([c.restrict({0: 1}).rows(
        max(e[0] + e[1] for e in c.terms) + 1) for c in conds])


def test_positions_polynomial_is_the_square_root_of_the_former():
    # G = Res(N_2, V) / U_2(b, a)^2 squares to the former Res(N_2, N_3)
    # wherever V is formed; where both a_j vanish (every z0 line, two
    # family-Z axis lines) the conditions U_j, or a partial free of y1,
    # give the same roots; either way root_orbits of the
    # lambda-discriminant are the former ones, levels and rest
    squares = 0
    for pencil in _oracle_pencils():
        disc, frame = _lambda_discriminant(pencil)
        moved = pencil.g.linear_change(frame.frame)
        nucleus = pencil_module._nucleus(
            [moved.derivative(i) for i in range(3)])
        g = pencil_module._positions(nucleus)
        former = _former_eliminant(pencil, frame.frame)
        at_centre = gcd_at_tail([pencil.g.derivative(i) for i in range(3)],
                                3, frame.frame[0])
        assert disc == g * at_centre
        if nucleus.alpha is not None:
            squares += 1
            assert g * g == former
        cap = MAX_DEGREE // pencil.spec.degree
        assert root_orbits(disc.coeffs, pencil.spec, cap) == \
            root_orbits((former * at_centre).coeffs, pencil.spec, cap)
    assert squares == 98
