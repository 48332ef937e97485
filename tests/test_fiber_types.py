"""Fiber types and line components from the local expansion at each
singular point, against the former classifier kept here as oracle."""

import random
from collections import Counter

import pytest
from test_acceptance import (_random_smooth_surface_with_line,
                             _smooth_family_z_surfaces)
from test_geometry import _kernel_vector
from test_pencil import _sweep_surfaces, xyz

from quartic_lines import pencil as pencil_module
from quartic_lines.errors import InconsistencyError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import (Line, axis_line, canonical_point,
                                    enumerate_lines, mat_rank,
                                    restrict_form, rref)
from quartic_lines.pencil import (CubicSingularity, FiberReport,
                                  ResidualPencil, _direction_point,
                                  _eval_form, _form_at, _line_form_through,
                                  _local_quadratic, _pull_back_form,
                                  classify_fiber, singular_fibers)
from quartic_lines.poly import (Poly, SparsePoly, binary_roots,
                                divide_by_linear)
from quartic_lines.segre import _form_two_points
from quartic_lines.surfaces import get_surface, s5_mu0_seed_line


# -- the former classifier ----------------------------------------------------


def _chart_form(coeffs, pivot, s_power, spec):
    """The binary form sum_j coeffs[j] u^(d-j) v^j in the two non-pivot
    variables u, v (in increasing order), times y_pivot^s_power."""
    u, v = (i for i in range(3) if i != pivot)
    d = len(coeffs) - 1
    terms = {}
    for j, c in enumerate(coeffs):
        e = [0, 0, 0]
        e[u], e[v], e[pivot] = d - j, j, s_power
        terms[tuple(e)] = c
    return SparsePoly(3, spec, terms)


def _divide_by_conic(p, q):
    """Solve p = q * L for a linear form L by a linear system in L's three
    coefficients, one equation per cubic monomial; None when there is no
    solution."""
    spec = p.spec
    cols = [q * SparsePoly.variable(i, 3, spec) for i in range(3)]
    monos = set(p.terms).union(*(c.terms for c in cols))
    rows = [[c.terms.get(e, 0) for c in cols] + [p.terms.get(e, 0)]
            for e in sorted(monos)]
    red, pivots = rref(rows, spec)
    if 3 in pivots:  # a pivot in the right-hand column: inconsistent
        return None
    sol = [0, 0, 0]
    for row, c in zip(red, pivots):
        sol[c] = row[3]
    return tuple(sol) if any(sol) else None


def _conic_nucleus(conic):
    """The common zero of the conic's linear partials; None for a perfect
    square."""
    rows = []
    for i in range(3):
        row = [0, 0, 0]
        for e, c in conic.derivative(i).terms.items():
            row[next(k for k in range(3) if e[k])] ^= c
        rows.append(row)
    if not any(any(r) for r in rows):
        return None
    return canonical_point(_kernel_vector(rows, conic.spec), conic.spec)


def _split_conic(conic, nucleus):
    """The two lines of a reducible conic, both through the nucleus; an
    empty list when they are conjugate over the coefficient field."""
    work = conic.spec
    aux = next(probe for probe in ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                   (1, 1, 0), (1, 0, 1))
               if _form_at(probe, nucleus, work))
    p1, p2 = _form_two_points(aux, work)
    roots = binary_roots(restrict_form(conic, p1, p2), work)
    if sum(m for _, m in roots) < 2:
        return []
    mul = work.mul_int
    out = [_line_form_through(nucleus, canonical_point(tuple(
        mul(s, a) ^ mul(t, b) for a, b in zip(p1, p2)), work), work)
        for (s, t), _ in roots]
    assert len(out) == 2 and out[0] != out[1]
    return out


def _former_classify_in_field(cubic, sing, work, position, flags):
    """The former `_classify_in_field`: a tangent line is a component when
    the cubic restricted to it vanishes; conjugate tangent lines when the
    moved cubic is the conic Q times a linear form, solved for as a linear
    system; a backstop splits a reducible residual conic at its nucleus;
    III against I2 by restricting the residual conic to the line, IV
    against I3 by the vertices of the three lines."""
    base = cubic.spec
    k = base.degree
    cw = cubic if work == base else cubic.embed(base.embedding_to(work))
    singularities, comp_forms, hidden, forced_kod = [], {}, 0, None

    def add_component(form):
        if form in comp_forms:
            return
        quotient = divide_by_linear(cw, form)
        assert quotient is not None
        if divide_by_linear(quotient, form) is not None:
            raise InconsistencyError("repeated linear factor")
        comp_forms[form] = None

    for pt, d in sing:
        src = base if d == 1 else FieldSpec.default(k * d)
        ptw = canonical_point(
            tuple(src.embedding_to(work).apply_int(c) for c in pt)
            if src != work else tuple(pt), work)
        quad, cone3, pivot, tmat = _local_quadratic(cw, ptw)
        if any(quad):
            if quad[1] != 0:
                local = "node"
                roots = binary_roots(quad, work)
                dirs = [r for r, _ in roots] \
                    if sum(m for _, m in roots) == 2 else []
                if not dirs:
                    lin = _divide_by_conic(
                        _chart_form(quad, pivot, 1, work)
                        + _chart_form(cone3, pivot, 0, work),
                        _chart_form(quad, pivot, 0, work))
                    if lin is not None:
                        hidden += 2
                        add_component(_pull_back_form(lin, tmat, work))
                        forced_kod = "I3"
            else:
                local = "cusp"
                dirs = [(work.sqrt_int(quad[2]), work.sqrt_int(quad[0]))]
        else:
            local = "triple"
            forced_kod = "IV"
            roots = binary_roots(cone3, work)
            if any(m > 1 for _, m in roots):
                raise InconsistencyError("repeated line through a triple "
                                         "point")
            dirs = [r for r, _ in roots]
            hidden += 3 - len(dirs)
        singularities.append(CubicSingularity(ptw, d, local))
        for uv in dirs:
            dpt = _direction_point(ptw, uv, pivot)
            if not any(restrict_form(cw, ptw, dpt)):
                add_component(_line_form_through(ptw, dpt, work))

    components = list(comp_forms)
    if len(components) + hidden == 1:
        conic = divide_by_linear(cw, components[0])
        nucleus = _conic_nucleus(conic)
        if nucleus is None:
            raise InconsistencyError("residual conic is a double line")
        if conic.evaluate(list(nucleus)) == 0:
            extra = _split_conic(conic, nucleus)
            for fm in extra:
                comp_forms.setdefault(fm)
            components = list(comp_forms)
            hidden += 0 if extra else 2
            forced_kod = "IV" if _form_at(components[0], nucleus,
                                          work) == 0 else "I3"
    if len(components) == 2 and hidden == 0:
        rest = divide_by_linear(divide_by_linear(cw, components[0]),
                                components[1])
        assert rest is not None and rest.total_degree() == 1
        lin = [0, 0, 0]
        for e, c in rest.terms.items():
            lin[next(i for i in range(3) if e[i])] ^= c
        add_component(canonical_point(tuple(lin), work))
        components = list(comp_forms)

    ncomp = len(components) + hidden
    assert forced_kod is None or ncomp == 3
    if ncomp == 0:
        assert len(singularities) == 1
        kod = {"node": "I1", "cusp": "II"}[singularities[0].local_type]
    elif ncomp == 1:
        conic = divide_by_linear(cw, components[0])
        quad = restrict_form(conic, *_form_two_points(components[0], work))
        kod = "I2" if quad[1] != 0 else "III"
    elif ncomp == 3:
        kod = forced_kod
        if kod is None:
            rest = cw
            for f in components:
                rest = divide_by_linear(rest, f)
            assert rest is not None and rest.total_degree() == 0
            vertices = {canonical_point(_kernel_vector([list(fa), list(fb)],
                                                      work), work)
                        for i, fa in enumerate(components)
                        for fb in components[i + 1:]}
            kod = "IV" if len(vertices) == 1 else "I3"
    else:
        raise InconsistencyError(f"{ncomp} components")
    return FiberReport(position, kod, work.degree, sorted(components),
                       singularities, hidden, flags)


def _by_local_expansion(cubic, sing, work, position, flags):
    """The local-expansion route of `_classify_in_field` as it stood for
    every fiber, kept as oracle for the fibers with two or three singular
    points: tangent directions at each point, the third line of a
    triangle as the cofactor of two, I3 checked by a division chain."""
    base = cubic.spec
    cw = cubic if work == base else cubic.embed(base.embedding_to(work))
    singularities, comp_forms, hidden, forced_kod = [], {}, 0, None

    def add_component(form):
        if form in comp_forms:
            return
        quotient = divide_by_linear(cw, form)
        assert quotient is not None
        if divide_by_linear(quotient, form) is not None:
            raise InconsistencyError("repeated linear factor")
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
                dirs = [(work.sqrt_int(quad[2]), work.sqrt_int(quad[0]))]
        else:
            local, forced_kod = "triple", "IV"
            roots = binary_roots(cone3, work)
            dirs = [r for r, _ in roots]
            hidden += 3 - len(dirs)
        singularities.append(CubicSingularity(ptw, d, local))
        for uv in dirs:
            if _eval_form(cone3, *uv, work) == 0:
                add_component(_line_form_through(
                    ptw, _direction_point(ptw, uv, pivot), work))

    components = list(comp_forms)
    if len(components) == 2 and hidden == 0:
        rest = divide_by_linear(divide_by_linear(cw, components[0]),
                                components[1])
        lin = [0, 0, 0]
        for e, c in rest.terms.items():
            lin[next(i for i in range(3) if e[i])] ^= c
        add_component(canonical_point(tuple(lin), work))
        components = list(comp_forms)

    ncomp = len(components) + hidden
    if ncomp == 0:
        kod = {"node": "I1", "cusp": "II"}[singularities[0].local_type]
    elif ncomp == 1:
        kod = "III" if any(s.local_type == "cusp"
                           for s in singularities) else "I2"
    elif forced_kod is not None:
        kod = forced_kod
    else:
        rest = cw
        for f in components:
            rest = divide_by_linear(rest, f)
        assert rest is not None and rest.total_degree() == 0
        kod = "I3"
    return FiberReport(position, kod, work.degree, sorted(components),
                       singularities, hidden, flags)


@pytest.fixture
def compared(monkeypatch):
    """Every `_classify_in_field` call also runs the former classifier on
    the same singular points; the reports must agree.  Yields the list of
    the Kodaira types compared."""
    kinds = []
    current = pencil_module._classify_in_field

    def both(cubic, sing, work, position, flags):
        got = current(cubic, sing, work, position, list(flags))
        want = _former_classify_in_field(cubic, sing, work, position,
                                         list(flags))
        assert got.to_json() == want.to_json(), cubic
        kinds.append(got.kodaira)
        return got

    monkeypatch.setattr(pencil_module, "_classify_in_field", both)
    yield kinds


# -- inputs -------------------------------------------------------------------


def _base_changed(line, degree):
    target = FieldSpec.default(degree)
    emb = line.spec.embedding_to(target).apply_int
    return Line(target, [[emb(c) for c in row] for row in line.rows])


def _hand_built_cubics(spec):
    """Reduced cubics of every type over spec, each also moved by a seeded
    change of coordinates over spec."""
    x, y, z = xyz(spec)
    # 2 is a non-cube when k is even
    g = SparsePoly.constant(3, spec, 2 if spec.degree > 1 else 1)
    shapes = [
        x * y * z,                                  # I3
        x * y * z + x ** 3 + y ** 3,                # I1, split tangents
        z * (x * x + x * y + y * y) + x ** 3,       # I1, conjugate tangents
        z * y * y + x ** 3,                         # II
        (x * z + y * y) * y,                        # I2
        z * (x * x + x * y + y * y + x * z),        # I2, conjugate nodes
        (x * z + y * y) * x,                        # III
        x ** 3 + y ** 3,                            # IV
        x ** 3 + g * y ** 3,                        # IV, hidden lines
        (x * x + x * y + y * y) * z,                # I3, conjugate pair
        (x + z) * (y * y + x * y + x * z),          # I2 through (1:1:1)
    ]
    rng = random.Random(f"hand-built:{spec.degree}")
    while True:
        m = [[rng.randrange(spec.size) for _ in range(3)] for _ in range(3)]
        if mat_rank(m, spec) == 3:
            break
    return shapes + [f.linear_change(m) for f in shapes]


# -- tests --------------------------------------------------------------------


def test_local_classifier_matches_the_former_on_dossier_fibers(
        compared, s5_dossiers, z0_dossiers):
    for d in s5_dossiers + z0_dossiers:
        fibers = singular_fibers(d.pencil)
        assert [f.to_json() for f in fibers] == \
            [f.to_json() for f in d.fibers]
    assert {"I1", "I2", "I3", "IV"} <= set(compared)


def test_local_classifier_matches_the_former_on_pencils(compared,
                                                       s5_surface, s5_lines):
    pencils = [ResidualPencil(surf, axis_line(FieldSpec.default(3)))
               for surf in _sweep_surfaces(3)]
    for k in (1, 2, 4):
        spec = FieldSpec.default(k)
        rng = random.Random(f"axis-pencil:{k}")
        pencils += [ResidualPencil(
            _random_smooth_surface_with_line(rng, spec), axis_line(spec))
            for _ in range(4)]
    # record lines over GF(2^8) and GF(2^16): fibers searched to
    # extension degree 2 and 1
    pencils += [ResidualPencil(s5_surface, _base_changed(s5_lines[i], k))
                for k in (8, 16) for i in (0, 12, 31, 47)]
    for pencil in pencils:
        singular_fibers(pencil)
    assert {"I1", "I2", "I3", "II"} <= set(compared)


def test_local_classifier_matches_the_former_on_hand_built_cubics(compared):
    for k in range(1, 17):
        for cubic in _hand_built_cubics(FieldSpec.default(k)):
            classify_fiber(cubic)
    assert set(compared) == {"I1", "I2", "I3", "II", "III", "IV"}


def test_node_route_matches_the_local_expansion(monkeypatch, s5_surface):
    # every I2 and I3 fiber of the record seed line, the z0 lines, the
    # first 10 07b surfaces and 10 family-Z surfaces per field: the lines
    # through pairs of nodes give the report the local expansion gave
    kinds = Counter()
    current = pencil_module._classify_in_field

    def both(cubic, sing, work, position, flags):
        got = current(cubic, sing, work, position, list(flags))
        if got.kodaira in ("I2", "I3"):
            want = _by_local_expansion(cubic, sing, work, position,
                                       list(flags))
            assert got.to_json() == want.to_json(), cubic
            kinds[got.kodaira, len(sing)] += 1
        return got

    monkeypatch.setattr(pencil_module, "_classify_in_field", both)
    z0 = get_surface("z0")
    pencils = [ResidualPencil(s5_surface, s5_mu0_seed_line())]
    pencils += [ResidualPencil(z0, ln) for ln in enumerate_lines(z0, ext=1)]
    pencils += [ResidualPencil(surf, axis_line(FieldSpec.default(3)))
                for surf in _sweep_surfaces(10)]
    for k in (1, 2, 3):
        spec = FieldSpec.default(k)
        pencils += [ResidualPencil(surf, axis_line(spec))
                    for surf in _smooth_family_z_surfaces(spec, 10)]
    for pencil in pencils:
        singular_fibers(pencil)
    assert kinds[("I2", 2)] >= 20 and kinds[("I3", 3)] >= 80
    assert kinds[("I3", 1)] >= 1        # capped: one node past the cap


@pytest.mark.parametrize("k", [9, 11])
def test_conjugate_tangent_pair_with_a_linear_cofactor_is_i3(k):
    # the lines x^2 + xy + y^2 = 0 are conjugate over GF(2^k), k odd, and
    # meet z = 0 in points of degree 2, past the search's cap: only the
    # vertex (0:0:1) is found, where Q = x^2 + xy + y^2 divides C = 0
    x, y, z = xyz(FieldSpec.default(k))
    rep = classify_fiber((x * x + x * y + y * y) * z)
    assert rep.kodaira == "I3"
    assert rep.components == [(0, 0, 1)]
    assert rep.hidden_components == 2
    assert rep.flags == ["singular-point search capped at extension "
                         "degree 1"]
