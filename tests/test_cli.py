import hashlib
import json
from pathlib import Path

import pytest

from quartic_lines import geometry
from quartic_lines.cli import _VERIFY, main
from quartic_lines.errors import UsageError
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import Line, QuarticSurface, axis_line
from quartic_lines.surfaces import get_surface


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lines_json(capsys):
    code, out, _ = run(capsys, "lines", "--surface", "z0", "--ext", "1")
    assert code == 0
    data = json.loads(out)
    assert data["surface"] == "z0"
    assert data["line-count"] == len(data["lines"])
    assert len(data["valencies"]) == data["line-count"]


def test_lines_csv(capsys):
    code, out, _ = run(capsys, "lines", "--surface", "z0", "--ext", "1",
                       "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header.startswith("index,")
    assert len(rows) >= 1


def test_lines_out_file(tmp_path, capsys):
    path = tmp_path / "census.json"
    code, out, _ = run(capsys, "lines", "--surface", "z0", "--ext", "1",
                       "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["surface"] == "z0"


def test_lines_deterministic_across_runs(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        assert run(capsys, "lines", "--surface", "z0", "--ext", "1",
                   "--out", str(path))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_classify_single_line(capsys):
    code, out, _ = run(capsys, "classify", "--surface", "z0", "--ext", "1",
                       "--line", "0")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert data[0]["kind"] in ("first", "second")
    assert [f["kodaira"] for f in data[0]["fibers"]] == ["IV"] * 6


def test_classify_bad_index(capsys):
    code, _, err = run(capsys, "classify", "--surface", "z0", "--ext", "1",
                       "--line", "999")
    assert code == 2 and "out of range" in err


def test_fibers(capsys):
    code, out, _ = run(capsys, "fibers", "--surface", "z0", "--ext", "1",
                       "--line", "0")
    assert code == 0
    data = json.loads(out)
    assert data["euler-fits-24"] is True
    assert data["flags"] == []
    assert data["fiber-line-count"] == sum(
        len(f["components"]) + f["hidden-components"]
        for f in data["fibers"])


FAMILY_X_NODE = "singular point (0:0:0:1) of the surface"


def test_classify_keeps_the_dossiers_of_a_singular_surface(capsys):
    # family X is singular at (0:0:0:1): its four lines through the point
    # get an entry with no fibers and one flag naming it, and the other
    # 64 lines their dossiers
    code, out, _ = run(capsys, "classify", "--surface", "family_x",
                       "--ext", "6")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 68
    spec = FieldSpec.default(6)
    through = [(0, 0, 0, 1) in Line.from_json(d["line"], spec).points()
               for d in data]
    assert through.count(True) == 4
    for d, node in zip(data, through):
        named = [FAMILY_X_NODE in flag for flag in d["flags"]]
        if node:
            assert named == [True]
            assert d["fibers"] == [] and d["valency"] == 0
        else:
            assert not any(named) and d["fibers"]


def test_fibers_of_a_line_through_a_singular_point_is_input_error(capsys):
    code, out, err = run(capsys, "fibers", "--surface", "family_x",
                         "--ext", "6", "--line", "64")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and FAMILY_X_NODE in err


def test_graph_and_lattice(capsys):
    code, out, _ = run(capsys, "graph", "--surface", "z0", "--ext", "1")
    assert code == 0
    data = json.loads(out)
    assert data["configurations"]["case"] in (
        "triangle-case", "square-case", "squarefree-case")
    code, out, _ = run(capsys, "lattice", "--surface", "z0", "--ext", "1")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] >= 1 and isinstance(data["discriminant"], int)


def test_tate_subcommand(tmp_path, capsys):
    from quartic_lines.field import FieldSpec
    from quartic_lines.poly import Poly
    from quartic_lines.tate import WeierstrassModel
    spec = FieldSpec.default(1)
    m = WeierstrassModel(spec, (Poly.one(spec), Poly.zero(spec),
                                Poly.zero(spec), Poly.zero(spec),
                                Poly(spec, [0, 0, 0, 0, 1])))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json()))
    code, out, _ = run(capsys, "tate", "--model", str(path), "--place", "0")
    assert code == 0
    assert json.loads(out)["type"] == "I4"
    code, out, _ = run(capsys, "tate", "--model", str(path),
                       "--place", "inf")
    assert code == 0


def test_configs_subcommand(capsys):
    code, out, _ = run(capsys, "configs", "--preset", "psi-square-case",
                       "--min-lines", "21")
    assert code == 0
    assert len(json.loads(out)) == 7


def test_surface_file_over_gf256_is_checked_and_censused(tmp_path, capsys):
    # the squarefree check is exact at every field size: the record
    # surface written over GF(2^8) loads, and its 60 lines are all there
    record = get_surface("s5_mu0")
    big = FieldSpec.default(8)
    f = record.f.embed(record.spec.embedding_to(big))
    path = tmp_path / "s5_mu0_gf256.json"
    path.write_text(json.dumps(QuarticSurface(f, "s5_mu0").to_json()))
    code, out, err = run(capsys, "lines", "--surface", str(path))
    assert code == 0, err
    assert json.loads(out)["line-count"] == 60


def test_unknown_surface_is_input_error(capsys):
    code, _, err = run(capsys, "lines", "--surface", "/no/such/file.json",
                       "--ext", "1")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "fermat-degenerate")
    assert code == 0 and "PASS" in out
    code, _, err = run(capsys, "verify", "no-such-target")
    assert code == 2


def test_limit_is_not_an_input_error(capsys):
    # z0 lives over GF(4): a census over GF(2^18) is past the GF(2^16) limit
    code, out, err = run(capsys, "lines", "--surface", "z0", "--ext", "9")
    assert code == 3 and out == ""
    assert err.startswith("error: limit:") and "2^16" in err


def test_census_chart_out_of_memory_is_a_limit(capsys, monkeypatch):
    # a chart that cannot be allocated (2^32 points at GF(2^16)) is a
    # limit, not a traceback; simulated, since the real chart is 16 GiB
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(geometry, "_eval_on_grid", out_of_memory)
    code, out, err = run(capsys, "lines", "--surface", "z0", "--ext", "2")
    assert code == 3 and out == ""
    assert err.startswith("error: limit:") and "GF(2^4)" in err


def _gf2_model_file(tmp_path, a6=("0x0", "0x0", "0x0", "0x0", "0x1")):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"field-degree": 1, "a1": ["0x1"], "a2": [],
                                "a3": [], "a4": [], "a6": list(a6)}))
    return str(path)


def _json_file(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_tate_place_outside_the_field_is_input_error(tmp_path, capsys):
    code, out, err = run(capsys, "tate", "--model",
                         _gf2_model_file(tmp_path), "--place", "0x5")
    assert code == 2 and out == ""
    assert "not an element of GF(2^1)" in err


def test_model_coefficient_outside_the_field_is_input_error(tmp_path,
                                                            capsys):
    path = _gf2_model_file(tmp_path, a6=("0x7",))
    code, out, err = run(capsys, "tate", "--model", path, "--place", "0")
    assert code == 2 and out == ""
    assert "0x7 is not an element" in err


def test_model_with_a_malformed_number_is_input_error(tmp_path, capsys):
    good = json.loads(Path(_gf2_model_file(tmp_path)).read_text())
    for key, value in [("field-degree", 1.5), ("field-degree", True),
                       ("chi", -1), ("chi", 2.0)]:
        code, out, err = run(capsys, "tate", "--model",
                             _json_file(tmp_path, {**good, key: value}),
                             "--place", "0")
        assert code == 2 and out == "", (key, value)
        assert "must be a non-negative integer" in err


def test_surface_exponent_that_is_not_a_count_is_input_error(tmp_path,
                                                             capsys):
    # a fraction was once truncated, censusing another surface, and a
    # negative exponent was reported as a zero linear form
    data = get_surface("z0").to_json()
    for exps in ([1.9, 1, 1, 1], [5, -1, 0, 0], [True, 1, 1, 1]):
        data["terms"][0]["exps"] = exps
        code, out, err = run(capsys, "lines", "--surface",
                             _json_file(tmp_path, data))
        assert code == 2 and out == "", exps
        assert "exponent must be a non-negative integer" in err


def test_field_degree_that_is_not_a_count_is_input_error(tmp_path, capsys):
    # a degree of 2.7 was once read as GF(4)
    data = get_surface("z0").to_json()
    for degree in (2.7, -2, "2"):
        data["field"]["degree"] = degree
        code, out, err = run(capsys, "lines", "--surface",
                             _json_file(tmp_path, data))
        assert code == 2 and out == "", degree
        assert "field degree must be a non-negative integer" in err


def test_surface_coefficient_outside_the_field_is_input_error(tmp_path,
                                                              capsys):
    data = get_surface("z0").to_json()
    data["terms"][0]["coeff"] = "0x1f"
    code, out, err = run(capsys, "lines", "--surface",
                         _json_file(tmp_path, data))
    assert code == 2 and out == ""
    assert "0x1f is not an element of GF(2^2)" in err


def test_malformed_json_file_is_input_error(tmp_path, capsys):
    # each once ended in a traceback and exit 1, the verification-failure
    # code: a number where a hex string belongs, a list for the surface
    surface = get_surface("z0").to_json()
    coeff_number = json.loads(json.dumps(surface))
    coeff_number["terms"][0]["coeff"] = 1
    modulus_number = json.loads(json.dumps(surface))
    modulus_number["field"]["modulus"] = 7
    model = json.loads(Path(_gf2_model_file(tmp_path)).read_text())
    cases = [("lines", "--surface", coeff_number, "term coefficient"),
             ("lines", "--surface", modulus_number, "field modulus"),
             ("lines", "--surface", [surface], "surface must be a JSON"),
             ("tate", "--model", {**model, "a6": 5}, "a6 must be a JSON")]
    for command, option, data, what in cases:
        extra = ["--place", "0"] if command == "tate" else []
        code, out, err = run(capsys, command, option,
                             _json_file(tmp_path, data), *extra)
        assert code == 2 and out == "", what
        assert err.startswith("error:") and what in err, err


def test_json_without_a_key_names_the_object_and_the_key(tmp_path,
                                                        capsys):
    # a missing key once exited with only the quoted key, "error: 'terms'"
    surface = get_surface("z0").to_json()
    no_terms = {k: v for k, v in surface.items() if k != "terms"}
    no_degree = {**surface, "field": {"modulus": "0x7"}}
    no_coeff = json.loads(json.dumps(surface))
    del no_coeff["terms"][0]["coeff"]
    model = json.loads(Path(_gf2_model_file(tmp_path)).read_text())
    no_a6 = {k: v for k, v in model.items() if k != "a6"}
    cases = [("lines", "--surface", no_terms, "surface lacks the key 'terms'"),
             ("lines", "--surface", no_degree,
              "field lacks the key 'degree'"),
             ("lines", "--surface", no_coeff,
              "surface term lacks the key 'coeff'"),
             ("tate", "--model", no_a6, "model lacks the key 'a6'")]
    for command, option, data, what in cases:
        extra = ["--place", "0"] if command == "tate" else []
        code, out, err = run(capsys, command, option,
                             _json_file(tmp_path, data), *extra)
        assert code == 2 and out == "", what
        assert err == f"error: {what}\n"
    gf4 = FieldSpec.default(2)
    assert Line.from_json(axis_line(gf4).to_json(), gf4) == axis_line(gf4)
    with pytest.raises(UsageError, match="line lacks the key 'rows'"):
        Line.from_json({"cell": 0}, gf4)


# SHA-256 of each `verify` report, taken before the fiber cubics' search
# moved onto the quartic's elimination path: the reports must not change
VERIFY_REPORTS = {
    "s5-60":
        "d7236c180017de116e81ef23dd01247590a95647ef4b978b444b49262795fa44",
    "family-x":
        "8c12fb1544415c6b7b0860138f62eefe1cdb777128e72450fa287334c39eea15",
    "schur-degenerate":
        "5fc3e3e68a8945b3bd070025cb02c4ec14f26c22ba7758789c0333a638db6b9a",
    "fermat-degenerate":
        "ac2f6da4a6ef98159a8103be3b8457924de0df299086839453bcf59e550b0602",
    "z0":
        "889178cdd30a709b9ad963f2ec65377f09b56926b472f0c660f5777849ca6cfb",
    "hessian-universal":
        "6f9eb1e057547abc2930318b6a0966377dad52d3d314da70a79b62d025d2a391",
    "example-6-4":
        "1a439ae8e79982c6103aa7e55c8196e9970bee8f709a15a52d35eb51e598ea47",
    "config-table":
        "aa3a9c3fd35866df8802dfaf096048f79204deda567fac52e46f18fc39c6dd65",
}


def test_verify_reports_match_their_pinned_digests(capsys):
    assert sorted(VERIFY_REPORTS) == sorted(_VERIFY)
    for target, digest in VERIFY_REPORTS.items():
        code, out, _ = run(capsys, "verify", target)
        assert code == 0, target
        assert hashlib.sha256(out.encode()).hexdigest() == digest, target
