import json

import pytest

from sepsurf.cli import main

# values starting with '-' use the --flag=value form so argparse keeps them
CATENOID = ["--f=x^2", "--g=y^2", "--h=-cosh(z)^2",
            "--box=-1.4,1.4,-1.4,1.4,-1,1"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "classify" in capsys.readouterr().out


def test_subcommand_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--spec", "--preset", "--mesh", "--report", "--res", "--box"):
        assert flag in out


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus"])
    assert exc.value.code == 64


def test_unknown_subcommand_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_bad_box_exits_64():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--preset", "paper-fig1-left", "--box", "1,2,3"])
    assert exc.value.code == 64


def test_unknown_preset_is_runtime_error(capsys):
    assert main(["classify", "--preset", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_family_writes_mesh_and_report(tmp_path):
    obj = tmp_path / "m.obj"
    rep = tmp_path / "m.json"
    rc = main(["family", "--preset", "paper-fig1-left", "--mesh", str(obj),
               "--report", str(rep), "--res", "20"])
    assert rc == 0
    lines = obj.read_text().splitlines()
    verts = [tuple(map(float, l.split()[1:])) for l in lines if l.startswith("v ")]
    assert len(verts) > 100
    assert any(l.startswith("f ") for l in lines)
    # every mesh vertex satisfies the defining equation x^2 = y z
    assert max(abs(x * x - y * z) for x, y, z in verts) <= 1e-6
    doc = json.loads(rep.read_text())
    assert list(doc.keys()) == ["K", "skipped_cells", "grid"]
    ks = [k for k in doc["K"] if k is not None]
    assert max(abs(k) for k in ks) <= 1e-8


def test_family_accepts_inline_spec(tmp_path):
    spec = json.dumps({"family": "exp-cylinder",
                       "params": {"m": [1, 1, 1], "n": [-1, 1, 1]}})
    rep = tmp_path / "r.json"
    rc = main(["family", "--spec", spec, "--report", str(rep), "--res", "16"])
    assert rc == 0
    assert json.loads(rep.read_text())["grid"]["nx"] == 16


def test_family_accepts_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"family": "generalized-cone", "params": {"p": 2.0, "m": [1, 1, 1]}}))
    rc = main(["family", "--spec", str(spec_path), "--report",
               str(tmp_path / "r.json"), "--res", "16"])
    assert rc == 0


def test_classify_preset_conical(tmp_path, capsys):
    rep = tmp_path / "c.json"
    rc = main(["classify", "--preset", "paper-fig1-right", "--report", str(rep)])
    assert rc == 0
    doc = json.loads(rep.read_text())
    assert list(doc.keys()) == ["surface", "constancy", "evidence", "label",
                                "params", "tolerances"]
    assert doc["label"] == "conical-power"
    assert doc["params"]["k"] == pytest.approx(2.0, abs=1e-6)


def test_classify_expressions_catenoid(capsys):
    rc = main(["classify", *CATENOID, "--report", "-"])
    assert rc == 0  # a definite label, including not-constant-curvature
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "not-constant-curvature"


def test_classify_sphere_expressions(capsys):
    rc = main(["classify", "--f", "x^2", "--g", "y^2", "--h", "z^2-1",
               "--box=-0.6,0.6,-0.6,0.6,-1,1", "--report", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "rotational-cgc"
    assert doc["params"]["K"] == pytest.approx(1.0, rel=1e-8)


def test_curvature_report_fields(capsys):
    rc = main(["curvature", "--preset", "paper-fig1-middle", "--n", "300",
               "--report", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("surface", "box", "seed", "n_samples", "K_mean", "K_min",
                "K_max", "K_max_abs", "K_max_dev"):
        assert key in doc
    assert doc["n_samples"] >= 300
    assert abs(doc["K_max_abs"]) <= 1e-8


def test_domain_error_exits_one(capsys):
    rc = main(["curvature", "--f", "log(x", "--g", "y", "--h", "z"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_family_outputs_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        obj = tmp_path / f"{tag}.obj"
        rep = tmp_path / f"{tag}.json"
        assert main(["family", "--preset", "paper-fig1-middle", "--mesh", str(obj),
                     "--report", str(rep), "--res", "18", "--seed", "3"]) == 0
        outs.append((obj.read_bytes(), rep.read_bytes()))
    assert outs[0] == outs[1]


def test_classify_spec_rotational_cgc(tmp_path):
    spec = json.dumps({"family": "rotational-cgc",
                       "params": {"K": -1.0, "r0": 0.5, "dr0": 0.0}})
    rep = tmp_path / "r.json"
    assert main(["classify", "--spec", spec, "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["label"] == "rotational-cgc"
    assert doc["params"]["K"] == pytest.approx(-1.0, abs=1e-4)
    # tabulated components are judged at the looser, tabulation-limited tolerance
    assert doc["constancy"]["tol"] == 1e-4


def test_verify_deterministic_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--suite", "classifier", "--seed", "11",
                 "--report", str(a)]) == 0
    assert main(["verify", "--suite", "classifier", "--seed", "11",
                 "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["passed"] is True
    assert doc["suite"] == "classifier"


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_plane_classify_report_is_strict_json(capsys):
    # no f'' anywhere, so no branch constant: its spread is null, not Infinity
    rc = main(["classify", "--f", "x", "--g", "y", "--h", "z", "--report", "-"])
    assert rc == 0
    doc = _strict_loads(capsys.readouterr().out)
    assert doc["evidence"]["kappa_estimate"] is None
    assert doc["evidence"]["kappa_agreement"] is None


def test_deeply_nested_expression_exits_one(capsys):
    rc = main(["curvature", "--f", "(" * 200 + "x" + ")" * 200, "--g", "y", "--h", "z"])
    assert rc == 1
    assert "nesting" in capsys.readouterr().err
