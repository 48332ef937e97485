import json
from pathlib import Path

from quartic_lines.cli import main
from quartic_lines.field import FieldSpec
from quartic_lines.geometry import QuarticSurface
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
