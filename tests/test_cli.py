import json
import os
import subprocess
import sys
import time
import warnings

import pytest

import sepsurf
from sepsurf import families
from sepsurf.cli import main

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sepsurf.__file__)))
_DEMOS = os.path.join(os.path.dirname(_SRC), "demos")

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


@pytest.mark.parametrize("doc", [
    {"family": "translation", "params": {}},
    {"family": "translation", "params": {"a": 1.0, "g": {"domain": [0, 1]}}},
    {"family": "generalized-cone", "params": {"p": 2.0, "m": [1, None, 1]}},
    {"family": "generalized-cone", "params": {"p": 2.0, "m": 5}},
    {"family": "exp-cylinder", "params": {"m": [1, 1], "n": [-1, 1, 1]}},
    {"family": "exp-cylinder", "params": {"m": [1, 1, 1, 1], "n": [-1, 1, 1]}},
    {"family": "conical-power", "params": {"k": 2, "m": [1, 1, 1], "signs": [1, -1]}},
    {"family": "conical-power", "params": {"k": 2, "m": [1, 1, 1], "signs": [1.7, -1, 1]}},
    {"family": "conical-power", "params": {"k": 2, "m": "111"}},
    {"family": "exp-cylinder", "params": {"m": [1, 1, 1], "n": {"x": -1, "y": 1, "z": 1}}},
], ids=["translation-empty", "no-expr", "m-null", "m-scalar", "exp-m2", "exp-m4",
        "signs2", "signs-fraction", "m-string", "n-object"])
def test_malformed_spec_exits_one(capsys, doc):
    assert main(["classify", "--spec", json.dumps(doc), "--n", "50"]) == 1
    err = capsys.readouterr().err
    assert "sepsurf: error:" in err and "Traceback" not in err


def test_deeply_nested_expression_exits_one(capsys):
    rc = main(["curvature", "--f", "(" * 200 + "x" + ")" * 200, "--g", "y", "--h", "z"])
    assert rc == 1
    assert "nesting" in capsys.readouterr().err


def test_long_flat_operator_chain_exits_one(capsys):
    rc = main(["curvature", "--f=" + "+".join(["x"] * 3000), "--g", "y", "--h", "z"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "tokens" in err and "Traceback" not in err


@pytest.mark.parametrize("op", ["*", "/"])
def test_long_product_chain_exits_one_quickly(capsys, monkeypatch, op):
    # a 128-factor chain fits the default node budget; over a smaller one
    # it is refused as soon as the budget runs out
    monkeypatch.setattr(sepsurf.expr, "MAX_DERIV_NODES", 200)
    start = time.perf_counter()
    rc = main(["curvature", "--f=" + op.join(["x"] * 128), "--g", "y", "--h", "z"])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 2.0
    assert rc == 1
    assert "larger than 200 nodes" in err and "Traceback" not in err


@pytest.mark.parametrize("op", ["*", "/"])
def test_long_product_chain_leaks_no_warning(op):
    # at the default budget the chains are accepted; x/x/.../x is 1/x^126,
    # whose scan values overflow in the root engine's bracket sign test
    argv = ["curvature", "--f=" + op.join(["x"] * 128), "--g", "y", "--h", "z"]
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-m", "sepsurf.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode in (0, 1)
    assert "Warning" not in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["--f=1e400*x", "--g=y^2", "--h=z^2-1"],
    ["--f=x^2", "--g=y^2", "--h=z^2-1e400"],
], ids=["f", "h"])
def test_overflowing_literal_exits_one(capsys, argv):
    assert main(["curvature", *argv]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("sepsurf: error: number out of range")


@pytest.mark.parametrize("n", ["-5", "0", "1.5"])
def test_sample_count_not_a_positive_integer_exits_64(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", "--preset", "paper-fig1-left", f"--n={n}"])
    assert exc.value.code == 64
    assert "--n: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["-1e400,1,-1,1,-1,1", "0,1,nan,1,-1,1", "0,1,0,1,-1,inf"])
def test_non_finite_box_exits_64(capsys, box):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an infinite box once leaked a RuntimeWarning
        with pytest.raises(SystemExit) as exc:
            main(["curvature", *CATENOID[:3], f"--box={box}"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "--box: values must be finite" in err and "Warning" not in err


@pytest.mark.parametrize("n", ["100001", "1000000000000"])
def test_sample_count_above_the_cap_exits_64(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["curvature", "--preset", "paper-fig1-left", f"--n={n}"])
    assert exc.value.code == 64
    assert "--n: expected at most 100000" in capsys.readouterr().err


@pytest.mark.parametrize("res", ["1", "-3", "0", "257", "100000000", "1e3", "x"])
def test_resolution_out_of_range_exits_64(capsys, res):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--preset", "paper-fig1-left", f"--res={res}"])
    assert exc.value.code == 64
    assert "--res: expected an integer in [2, 256]" in capsys.readouterr().err


def test_spec_job_integrates_the_profile_once(monkeypatch, capsys):
    calls = []
    real = families.rotational_profile
    monkeypatch.setattr(families, "rotational_profile",
                        lambda *a: calls.append(a) or real(*a))
    spec = json.dumps({"family": "rotational-cgc", "params": {"K": 1.0, "r0": 0.55}})
    assert main(["family", "--spec", spec, "--res", "8"]) == 0
    assert len(calls) == 1


def test_cli_import_loads_only_the_standard_library_and_numpy():
    # what the benchmark's setup probe times: a fresh process that imports
    # the CLI and builds its parser
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from sepsurf import cli\n"
        "cli.build_parser()\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'sepsurf'})))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == []


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(_DEMOS) if n.endswith(".py")))
def test_demo_runs(name, tmp_path):
    # a copy runs, so demos that write files write them under tmp_path
    with open(os.path.join(_DEMOS, name)) as fh:
        (tmp_path / name).write_text(fh.read())
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, name], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
