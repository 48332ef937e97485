"""The benchmark's workloads: `record`, `sweep` and `scan`.

Each workload draws its inputs from the seed, hands the library only the
generated polynomials, and yields a closed loop of operations: the runner
starts the next operation only after the previous one has finished and
been checked.  `setup()` builds the inputs; `ops()` is the endless
operation sequence; `summary()` turns the latency samples into metrics.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

# Library calls go through the module objects so that the traced run's
# rebinding of those names reaches them.
from quartic_lines import geometry, lattice, segre
from quartic_lines.errors import UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import QuarticSurface, axis_line
from quartic_lines.pencil import euler_budget_audit
from quartic_lines.poly import SparsePoly
from quartic_lines.segre import LineDossier
from quartic_lines.surfaces import (family_x_surface, s5_mu0_surface,
                                    z0_surface)

EULER_BUDGET = 24

# bound at import, before any tracing: checks stay out of the trace
_search_for_check = geometry.singular_point_search

Samples = Dict[str, List[float]]


class CheckFailed(Exception):
    """An output check failed; the runner counts the operation as failed."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def expect_at_most(what: str, got, limit) -> None:
    if got > limit:
        raise CheckFailed(f"{what}: got {got!r}, limit {limit!r}")


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]          # timed
    check: Callable[[object], None]    # untimed; raises CheckFailed


def monomial_change(rng: random.Random, scale: bool,
                    new_x1_from: Optional[tuple] = None) -> List[List[int]]:
    """Matrix M of x -> y.M with x_c = s_c * y_p(c): a seeded permutation of
    x1..x4, with scalings s_c from GF(4)* when `scale` is set.  With
    `new_x1_from`, the original coordinate sent to y1 is drawn from it."""
    while True:
        perm = list(range(4))
        rng.shuffle(perm)
        if new_x1_from is None or perm.index(0) in new_x1_from:
            break
    m = [[0] * 4 for _ in range(4)]
    for c in range(4):
        m[perm[c]][c] = rng.randrange(1, 4) if scale else 1
    return m


def image_of_point(m: List[List[int]], pt: tuple) -> tuple:
    """The point y with y.M = pt, for a permutation matrix M (GF(2))."""
    y = [0] * 4
    for c in range(4):
        for j in range(4):
            if m[j][c]:
                y[j] = pt[c]
    return tuple(y)


def median(xs: List[float]) -> Optional[float]:
    """Median, or None when every operation of the kind failed."""
    return statistics.median(xs) if xs else None


def mean(xs: List[float]) -> Optional[float]:
    return statistics.fmean(xs) if xs else None


def total(*parts: Optional[float]) -> Optional[float]:
    return None if None in parts else sum(parts)


def tail(xs: List[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return {"value": None, "samples": n,
                "note": "fewer than 11 samples, no tail"}
    return {"value": sorted(xs)[n - 11], "percentile": 100 * (n - 10) // n,
            "samples": n}


class Workload:
    name = ""
    required: tuple = ()   # op kinds every run performs at least once
    EXPECTED: dict = {}

    def __init__(self, seed: int, expected: Optional[dict] = None):
        self.expected = dict(self.EXPECTED)
        self.expected.update(expected or {})
        self.rng = random.Random(f"{self.name}:{seed}")
        self._digest = hashlib.sha256()
        self.counts: Dict[str, float] = {}

    def note_input(self, f: SparsePoly) -> None:
        self._digest.update(repr(f.canonical_terms()).encode())

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def summary(self, samples: Samples) -> dict:
        """{"op_p50_s": ..., "job_s": ..., "report": {name: (value, unit)}}"""
        raise NotImplementedError


def _check_dossier(d: LineDossier, expected_valency: Optional[int],
                   counts: Dict[str, float]) -> None:
    if expected_valency is not None:
        expect("dossier valency vs graph valency", d.valency,
               expected_valency)
    expect_at_most("dossier valency", d.valency, d.valency_bound())
    if d.kind == "first":
        bad = [a for a in d.audits if not a.ok]
        expect("failed first-kind audits", bad, [])
    expect_at_most("Euler lower bound", euler_budget_audit(d.fibers)[0],
                   EULER_BUDGET)
    counts["pencil.flagged_fibers"] = (counts.get("pencil.flagged_fibers", 0)
                                       + sum(1 for f in d.fibers if f.flags))


class Record(Workload):
    """The record surface s5_mu0 after a seeded monomial coordinate change:
    census over GF(16) and intersection graph, lattice invariants, then one
    dossier per line in seeded order."""

    name = "record"
    required = ("census", "lattice", "dossier")
    EXPECTED = {"lines": 60, "valency": 17, "rank": 20, "discriminant": -55}

    def __init__(self, seed: int, expected: Optional[dict] = None,
                 lattice_trials: int = 5):
        super().__init__(seed, expected)
        self.lattice_trials = lattice_trials

    def setup(self) -> None:
        m = monomial_change(self.rng, scale=True)
        f = s5_mu0_surface().transform(m).f
        self.note_input(f)
        self.surface = QuarticSurface(f, "s5_mu0")
        self.order = list(range(self.expected["lines"]))
        self.rng.shuffle(self.order)
        self._digest.update(repr(self.order).encode())
        FieldSpec.default(4).exp_table  # GF(16) tables, used by the census

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op("census", self._census, self._check_census)
            yield Op("lattice", self._lattice, self._check_lattice)
            for i in self.order:
                yield Op("dossier", lambda i=i: self._dossier(i),
                         lambda d, i=i: self._check_dossier(i, d))

    def _census(self):
        self.lines = geometry.enumerate_lines(self.surface, ext=2)
        self.graph = geometry.IntersectionGraph(self.lines)
        return self.lines, self.graph

    def _check_census(self, result) -> None:
        lines, graph = result
        expect("record census lines", len(lines), self.expected["lines"])
        expect("record valencies", graph.valencies(),
               [self.expected["valency"]] * len(lines))

    def _lattice(self):
        lat = lattice.gram_from_graph(self.graph)
        invariants = lat.to_json()   # rank, discriminant, index, basis
        return (invariants, lat.hyperbolicity_sign_check(),
                lat.random_subset_check(trials=self.lattice_trials))

    def _check_lattice(self, result) -> None:
        invariants, sign_ok, subsets_ok = result
        expect("lattice rank", invariants["rank"], self.expected["rank"])
        expect("lattice discriminant", invariants["discriminant"],
               self.expected["discriminant"])
        expect("hyperbolicity sign check", sign_ok, True)
        expect("random subset check", subsets_ok, True)

    def _dossier(self, i: int) -> LineDossier:
        return segre.build_dossier(self.surface, self.lines[i])

    def _check_dossier(self, i: int, d: LineDossier) -> None:
        _check_dossier(d, self.graph.valency(i), self.counts)

    def summary(self, samples: Samples) -> dict:
        dossier = samples["dossier"]
        census = median(samples["census"])
        lattice = median(samples["lattice"])
        per_line = mean(dossier)
        job = total(census, lattice, per_line and
                    self.expected["lines"] * per_line)
        return {"op_p50_s": median(dossier), "job_s": job, "report": {
            "dossier_p50_s": (median(dossier), "s"),
            "dossier_tail_s": (tail(dossier), "s"),
            "lattice_s": (lattice, "s"),
            "census_s": (census, "s")}}


# monomials of degree 4 that vanish on the axis line {x3 = x4 = 0}
AXIS_IDEAL = [(i, j, k, 4 - i - j - k)
              for i in range(5) for j in range(5 - i)
              for k in range(5 - i - j) if 4 - i - j >= 1]


class Sweep(Workload):
    """Fresh random GF(8) quartics through the axis line: draw until one
    passes construction and the singular filter over GF(64), then build the
    axis line's dossier (the acceptance-test 07b generator)."""

    name = "sweep"
    required = ("surface",)
    SURFACES_PER_JOB = 50

    def setup(self) -> None:
        self.spec = FieldSpec.default(3)
        self.line = axis_line(self.spec)
        FieldSpec.default(6).exp_table  # GF(64) tables, used by the filter
        self.dossier_s: List[float] = []
        self.counts.update({"geometry.sweep.draws": 0, "accepted": 0})

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op("surface", self._surface, self._check)

    def _draw(self) -> SparsePoly:
        self.counts["geometry.sweep.draws"] += 1
        coeffs = [self.rng.randrange(self.spec.size) for _ in AXIS_IDEAL]
        f = SparsePoly(4, self.spec, {e: c for e, c in zip(AXIS_IDEAL, coeffs)
                                      if c})
        self.note_input(f)
        return f

    def _surface(self):
        while True:
            f = self._draw()
            if f.is_zero():
                continue
            try:
                surface = QuarticSurface(f, "random")
            except UsageError:       # not squarefree: a rejection
                continue
            if geometry.singular_point_search(surface, max_ext=2):
                continue             # singular: a rejection
            break
        self.counts["accepted"] += 1
        start = time.perf_counter()
        d = segre.build_dossier(surface, self.line)
        self.dossier_s.append(time.perf_counter() - start)
        return surface, d

    def _check(self, result) -> None:
        surface, d = result
        expect("axis line on the surface", surface.contains_line(self.line),
               True)
        _check_dossier(d, None, self.counts)

    def summary(self, samples: Samples) -> dict:
        surface = samples["surface"]
        draws = self.counts["geometry.sweep.draws"]
        self.counts["geometry.sweep.accept_ratio"] = \
            self.counts["accepted"] / draws
        per_surface = mean(surface)
        return {"op_p50_s": median(surface),
                "job_s": per_surface and self.SURFACES_PER_JOB * per_surface,
                "report": {
                    "surface_p50_s": (median(surface), "s"),
                    "dossier_p50_s": (median(self.dossier_s), "s"),
                    "dossier_tail_s": (tail(self.dossier_s), "s")}}


class Scan(Workload):
    """Big-extension scans under seeded coordinate changes: the family X
    census over GF(64) and the z0 smoothness certificate to level 6.

    The certificate's elimination path projects out the new x1, and its cost
    depends on which original coordinate that is: x1 or x2 take two to three
    times as long as x3 or x4.  A uniform draw would make the figure
    bimodal across seeds, so each round certifies one change of each kind
    and `certificate_s` is the mean of the two."""

    name = "scan"
    required = ("census", "certificate_x12", "certificate_x34")
    EXPECTED = {"lines": 68}

    def __init__(self, seed: int, expected: Optional[dict] = None,
                 census_ext: int = 6, certificate_level: int = 6):
        super().__init__(seed, expected)
        self.census_ext = census_ext
        self.certificate_level = certificate_level

    def setup(self) -> None:
        self.family_x = family_x_surface()
        self.z0 = z0_surface()
        FieldSpec.default(6).exp_table      # GF(64), the census field
        FieldSpec.default(12).exp_table     # GF(4096), the top certificate

    def ops(self) -> Iterator[Op]:
        while True:
            m = monomial_change(self.rng, scale=False)
            family_x = self._construct(self.family_x.transform(m).f)
            singular = image_of_point(m, (0, 0, 0, 1))
            yield Op("census", lambda s=family_x: self._census(s),
                     lambda lines, s=family_x, p=singular:
                     self._check_census(s, p, lines))
            for kind, group in (("certificate_x12", (0, 1)),
                                ("certificate_x34", (2, 3))):
                z = self._construct(self.z0.transform(
                    monomial_change(self.rng, True, group)).f)
                yield Op(kind, lambda z=z: geometry.singular_point_search(
                    z, max_ext=self.certificate_level), self._check_cert)

    def _construct(self, f: SparsePoly) -> QuarticSurface:
        self.note_input(f)
        return QuarticSurface(f, "scan")

    def _census(self, surface: QuarticSurface):
        return geometry.enumerate_lines(surface, ext=self.census_ext)

    def _check_census(self, surface: QuarticSurface, singular: tuple,
                      lines) -> None:
        expect("family X census lines", len(lines), self.expected["lines"])
        locus = [(p.point, p.ext) for p in
                 _search_for_check(surface, max_ext=4)]
        expect("family X singular locus", locus, [(singular, 1)])

    def _check_cert(self, points) -> None:
        expect("z0 singular points", points, [])

    def summary(self, samples: Samples) -> dict:
        census = median(samples["census"])
        pair = total(median(samples["certificate_x12"]),
                     median(samples["certificate_x34"]))
        cert = pair and pair / 2
        rounds = [sum(r) for r in zip(samples["census"],
                                      samples["certificate_x12"],
                                      samples["certificate_x34"])]
        return {"op_p50_s": median(rounds), "job_s": total(census, cert),
                "report": {"census_s": (census, "s"),
                           "certificate_s": (cert, "s")}}


WORKLOADS = {w.name: w for w in (Record, Sweep, Scan)}
