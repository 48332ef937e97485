"""Command-line orchestrator: censuses, classifications, audits, and
built-in verifications with machine-readable reports.

Exit codes: 0 = pass, 1 = verification failure, 2 = input error,
3 = a limit of the toolkit (CapabilityError, reported as
"error: limit: ...").  Reports are deterministic for fixed inputs
(canonical ordering, no timestamps).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import CapabilityError, InconsistencyError, UsageError
from .field import FieldSpec
from .geometry import (IntersectionGraph, Line, detect_configurations,
                       enumerate_lines, singular_point_search)
from .lattice import GramLattice, gram_from_graph
from .pencil import (POS_ZERO, ResidualPencil, euler_budget_audit,
                     fiber_line_count, singular_fibers)
from .segre import (build_dossier, char2_hessian, family_z_valency_criterion,
                    universal_hessian)
from .surfaces import get_surface
from .tate import (WeierstrassModel, enumerate_fiber_configs,
                   example_6_4_instance, tate_classify)


def _emit(payload, args, csv_rows=None, csv_header=None) -> None:
    fmt = getattr(args, "format", "json") or "json"
    if fmt == "csv":
        if csv_rows is None:
            raise UsageError("no CSV projection for this subcommand")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- census plumbing ----------------------------------------------------------


@dataclass
class CensusReport:
    surface_id: str
    field_degree: int
    ext: int
    lines: List[Line]
    graph: IntersectionGraph
    case: Optional[str] = None
    lattice: Optional[GramLattice] = None

    def check_consistency(self) -> None:
        vals = self.graph.valencies()
        if len(vals) != len(self.lines):
            raise InconsistencyError("graph size differs from line count")

    def to_json(self) -> dict:
        self.check_consistency()
        out = {"surface": self.surface_id,
               "field-degree": self.field_degree,
               "ext": self.ext,
               "line-count": len(self.lines),
               "lines": [ln.to_json() for ln in self.lines],
               "valencies": self.graph.valencies()}
        if self.case is not None:
            out["configuration-case"] = self.case
        if self.lattice is not None:
            out["lattice"] = self.lattice.to_json()
        return out


def _build_census(surface_id: str, ext: int,
                  with_lattice: bool = False) -> CensusReport:
    surface = get_surface(surface_id)
    lines = enumerate_lines(surface, ext=ext)
    graph = IntersectionGraph(lines)
    rep = CensusReport(surface.label, surface.spec.degree, ext, lines, graph)
    rep.case = detect_configurations(graph).case if lines else None
    if with_lattice and lines:
        rep.lattice = gram_from_graph(graph)
    return rep


# -- subcommands --------------------------------------------------------------


def cmd_lines(args) -> int:
    rep = _build_census(args.surface, args.ext)
    rows = [[i, *[hex(c) for c in ln.rows[0]], *[hex(c) for c in ln.rows[1]],
             rep.graph.valency(i)]
            for i, ln in enumerate(rep.lines)]
    header = ["index", "r1x1", "r1x2", "r1x3", "r1x4",
              "r2x1", "r2x2", "r2x3", "r2x4", "valency"]
    _emit(rep.to_json(), args, rows, header)
    return 0


def cmd_classify(args) -> int:
    surface = get_surface(args.surface)
    lines = enumerate_lines(surface, ext=args.ext)
    if args.line is not None:
        if not 0 <= args.line < len(lines):
            raise UsageError(f"line index {args.line} out of range "
                             f"(census has {len(lines)} lines)")
        lines = [lines[args.line]]
    payload = []
    rows = []
    for ln in lines:
        d = build_dossier(surface, ln)
        payload.append(d.to_json())
        rows.append([d.kind, d.ram_label(), d.valency, d.valency_bound()])
    _emit(payload, args, rows, ["kind", "ram-type", "valency", "bound"])
    return 0


def cmd_fibers(args) -> int:
    surface = get_surface(args.surface)
    lines = enumerate_lines(surface, ext=args.ext)
    if not 0 <= args.line < len(lines):
        raise UsageError(f"line index {args.line} out of range")
    pencil = ResidualPencil(surface, lines[args.line])
    flags: List[str] = []
    fibers = singular_fibers(pencil, flags=flags)
    euler, fits = euler_budget_audit(fibers)
    payload = {"line": lines[args.line].to_json(),
               "fibers": [f.to_json() for f in fibers],
               "flags": flags,
               "fiber-line-count": fiber_line_count(fibers),
               "euler-lower-bound": euler, "euler-fits-24": fits}
    rows = [[f.kodaira, f.position.chart if f.position else "",
             f.component_count()] for f in fibers]
    _emit(payload, args, rows, ["kodaira", "chart", "components"])
    return 0


def cmd_graph(args) -> int:
    rep = _build_census(args.surface, args.ext)
    cfg = detect_configurations(rep.graph)
    payload = rep.to_json()
    payload["configurations"] = cfg.to_json()
    rows = [[i, v] for i, v in enumerate(rep.graph.valencies())]
    _emit(payload, args, rows, ["line", "valency"])
    return 0


def cmd_lattice(args) -> int:
    rep = _build_census(args.surface, args.ext, with_lattice=True)
    if rep.lattice is None:
        raise UsageError("no lines found; empty lattice")
    payload = rep.lattice.to_json()
    payload["surface"] = rep.surface_id
    _emit(payload, args,
          [[payload["rank"], payload["discriminant"], payload["index"]]],
          ["rank", "discriminant", "index"])
    return 0


def _parse_place(text: str):
    if text == "inf":
        return "inf"
    if "@" in text:
        val, ext = text.split("@", 1)
        return (int(val, 16), int(ext))
    return int(text, 16)


def cmd_tate(args) -> int:
    model = WeierstrassModel.load(args.model)
    rep = tate_classify(model, _parse_place(args.place))
    _emit(rep.to_json(), args,
          [[rep.kodaira, rep.ord_delta_min, rep.scalings]],
          ["type", "ord-delta-min", "scalings"])
    return 0


def cmd_configs(args) -> int:
    cands = enumerate_fiber_configs(args.preset, args.min_lines,
                                    args.types or None)
    payload = [c.to_json() for c in cands]
    rows = [[c.label(), c.euler, c.lines] for c in cands]
    _emit(payload, args, rows, ["configuration", "euler", "lines"])
    return 0


# -- verify targets -----------------------------------------------------------


def _verify_s5_60(log) -> bool:
    rep = _build_census("s5_mu0", 2, with_lattice=True)
    ok = True
    ok &= _expect(log, "line count", len(rep.lines), 60)
    ok &= _expect(log, "valencies", set(rep.graph.valencies()), {17})
    ok &= _expect(log, "rank", rep.lattice.rank(), 20)
    ok &= _expect(log, "discriminant", rep.lattice.span_discriminant(), -55)
    return ok


def _verify_family_x(log) -> bool:
    surface = get_surface("family_x")
    pts = singular_point_search(surface, max_ext=4)
    ok = _expect(log, "singular points",
                 [(p.point, p.ext) for p in pts], [((0, 0, 0, 1), 1)])
    counts = {}
    best = None
    for ext in range(1, 7):
        n = len(enumerate_lines(surface, ext=ext))
        counts[ext] = n
        if n == 68:
            best = ext
            break
    log(f"  line counts by extension: {counts}")
    ok &= _expect(log, "68 lines at minimal sufficient extension 6",
                  best, 6)
    return ok


def _verify_schur(log) -> bool:
    surface = get_surface("schur_char2")
    pts = singular_point_search(surface, max_ext=2)
    found = [(p.point, p.ext) for p in pts]
    return _expect(log, "singular at [1:0:1:0]",
                   ((1, 0, 1, 0), 1) in found, True)


def _verify_fermat(log) -> bool:
    try:
        get_surface("fermat_char2")
    except UsageError as exc:
        log(f"  rejected: {exc}")
        return _expect(log, "4th-power diagnostic",
                       "4th power" in str(exc) or "fourth power" in str(exc),
                       True)
    log("  FAIL: degenerate surface was accepted")
    return False


def _verify_z0(log) -> bool:
    surface = get_surface("z0")
    ok = _expect(log, "smooth to level 6",
                 singular_point_search(surface, max_ext=6), [])
    from .geometry import axis_line
    line = axis_line(surface.spec)
    dossier = build_dossier(surface, line)
    ok &= _expect(log, "kind", dossier.kind, "second")
    ok &= _expect(log, "ramification type", dossier.ram_label(), "(2,2)")
    ok &= _expect(log, "valency", dossier.valency, 18)
    ok &= _expect(log, "valency criterion",
                  family_z_valency_criterion((1, 1, 0, 0, 1)), 18)
    at_zero = [f.kodaira for f in dossier.fibers
               if f.position == POS_ZERO]
    ok &= _expect(log, "fiber at lambda=0", at_zero, ["IV"])
    return ok


def _verify_hessian_universal(log) -> bool:
    h = universal_hessian()  # construction asserts divisibility by 8
    log(f"  universal table has {len(h.terms)} terms")
    spec = FieldSpec.default(1)
    from .poly import SparsePoly
    x = [SparsePoly.variable(i, 3, spec) for i in range(3)]
    mono = x[0] * x[1] * x[2]
    ok = _expect(log, "h(x1 x2 x3)", char2_hessian(mono).is_zero(), True)
    fermat_plus = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 + mono
    ok &= _expect(log, "h(sum of cubes + x1 x2 x3) fixed point",
                  char2_hessian(fermat_plus) + fermat_plus == \
                  SparsePoly.zero(3, spec), True)
    return ok


def _verify_example_6_4(log) -> bool:
    _a1, _delta, verdict = example_6_4_instance()
    return _expect(log, "supersingular place verdict", verdict,
                   "contradiction")


def _verify_config_table(log) -> bool:
    cands = enumerate_fiber_configs("psi-square-case", 21)
    ok = _expect(log, "row count", len(cands), 7)
    ok &= _expect(log, "line totals",
                  sorted((c.lines for c in cands), reverse=True),
                  [24, 22, 22, 22, 21, 21, 21])
    ok &= _expect(log, "empty at 25",
                  enumerate_fiber_configs("psi-square-case", 25), [])
    return ok


_VERIFY = {
    "s5-60": _verify_s5_60,
    "family-x": _verify_family_x,
    "schur-degenerate": _verify_schur,
    "fermat-degenerate": _verify_fermat,
    "z0": _verify_z0,
    "hessian-universal": _verify_hessian_universal,
    "example-6-4": _verify_example_6_4,
    "config-table": _verify_config_table,
}


def _expect(log, what, got, want) -> bool:
    if got == want:
        log(f"  ok: {what} = {got!r}")
        return True
    log(f"  FAIL: {what} = {got!r}, expected {want!r}")
    return False


def cmd_verify(args) -> int:
    if args.target not in _VERIFY:
        raise UsageError(f"unknown verify target {args.target!r}; choose "
                         "from " + ", ".join(sorted(_VERIFY)))
    lines_out: List[str] = []
    log = lines_out.append
    log(f"verify {args.target}")
    passed = _VERIFY[args.target](log)
    log("PASS" if passed else "FAIL")
    sys.stdout.write("\n".join(lines_out) + "\n")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quartic-lines",
        description="Lines on quartic surfaces over characteristic-2 "
                    "finite fields")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, line_opt=False, line_req=False):
        sp.add_argument("--surface", required=True,
                        help="builtin id or JSON file path")
        sp.add_argument("--ext", type=int, default=1,
                        help="field extension degree for the census")
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if line_opt:
            sp.add_argument("--line", type=int, default=None)
        if line_req:
            sp.add_argument("--line", type=int, required=True)

    common(sub.add_parser("lines", help="line census"))
    common(sub.add_parser("classify", help="per-line dossiers"),
           line_opt=True)
    common(sub.add_parser("fibers", help="singular fibers of one line"),
           line_req=True)
    common(sub.add_parser("graph", help="intersection graph census"))
    common(sub.add_parser("lattice", help="Gram lattice invariants"))

    sp = sub.add_parser("tate", help="local fiber type of a model")
    sp.add_argument("--model", required=True, help="model JSON file")
    sp.add_argument("--place", required=True,
                    help="'inf', hex value, or hex@ext")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("configs", help="fiber configuration table")
    sp.add_argument("--preset", required=True)
    sp.add_argument("--min-lines", type=int, required=True,
                    dest="min_lines")
    sp.add_argument("--types", nargs="*", default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("verify", help="built-in verification targets")
    sp.add_argument("target")

    return p


_DISPATCH = {
    "lines": cmd_lines, "classify": cmd_classify, "fibers": cmd_fibers,
    "graph": cmd_graph, "lattice": cmd_lattice, "tate": cmd_tate,
    "configs": cmd_configs, "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except CapabilityError as exc:
        sys.stderr.write(f"error: limit: {exc}\n")
        return 3
    except (UsageError, FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InconsistencyError as exc:
        sys.stderr.write(f"inconsistency: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
