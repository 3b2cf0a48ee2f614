import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from symcap import bodies as bd
from symcap import cli, ehz


def run(argv):
    return cli.main(argv)


def test_ehz_ball_reports_capacity(capsys):
    code = run(["ehz", "--body", "ball4", "--r", "1",
                "--n-samples", "64", "--restarts", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "capacity" in out and "1.00" in out


def test_ehz_ellipsoid_min_radius(capsys):
    code = run(["ehz", "--body", "ellipsoid", "--radii", "1,0.25",
                "--n-samples", "64", "--restarts", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.25" in out


def test_ehz_missing_t_is_usage_error(capsys):
    code = run(["ehz", "--body", "intersection"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_ehz_negative_seed_is_rejected_naming_it(capsys):
    assert run(["ehz", "--body", "ball4", "--seed", "-1"]) == 1
    assert "error: seed must be at least 0" in capsys.readouterr().err


def test_readme_ehz_row_names_every_json_key():
    # a key added to the ehz JSON report must be documented with it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row = next(line for line in readme.splitlines() if line.startswith("| `ehz`"))
    doc = ehz.ehz_capacity(bd.CapacityBall(1.0, 2), N=128, restarts=2).to_json()
    keys = set(doc) | set(doc["restart_log"][0]) | set(doc["polish"][0])
    assert {key for key in keys if "`%s`" % key not in row} == set()


def test_ehz_writes_json_and_loop(tmp_path, capsys):
    code = run(["ehz", "--body", "ball4", "--n-samples", "64",
                "--restarts", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((tmp_path / "ehz.json").read_text())
    assert doc["N"] == 64 and doc["converged"]
    assert doc["config"] == {"command": "ehz", "ts": [], "N": 64, "restarts": 2, "seed": 0}
    # the body records only the flags ball4 reads, at their effective values
    assert doc["body"] == {"kind": "ball4", "r": 1.0}
    assert (tmp_path / "loop.csv").read_text().startswith("t,x1,y1,x2,y2")


@pytest.mark.parametrize("flags, body", [
    ([], {"kind": "al-scaled", "r": 1.0, "L": 1.0}),
    (["--L", "2", "--r", "0.5"], {"kind": "al-scaled", "r": 0.5, "L": 2.0}),
    (["--t", "0.5"], {"kind": "al-scaled", "t": 0.5, "L": 1.0}),
])
def test_ehz_al_scaled_body_records_the_flags_it_reads(flags, body, capsys):
    argv = ["ehz", "--body", "al-scaled", "--n-samples", "64", "--restarts", "2",
            "--format", "json"] + flags
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["body"] == body


def test_ehz_json_to_stdout_parses(capsys):
    code = run(["ehz", "--body", "ball4", "--n-samples", "64",
                "--restarts", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["N"] == 64 and len(doc["restart_log"]) == 2
    assert "capacity" in captured.err


def test_ehz_csv_to_stdout_parses_and_differs_from_json(capsys):
    argv = ["ehz", "--body", "ball4", "--n-samples", "64", "--restarts", "2"]
    assert run(argv + ["--format", "csv"]) == 0
    csv_out = capsys.readouterr()
    assert run(argv + ["--format", "json"]) == 0
    json_out = capsys.readouterr()
    header, *rows = csv_out.out.splitlines()
    assert header == "t,x1,y1,x2,y2"
    assert len(rows) == 64
    assert all(len([float(x) for x in row.split(",")]) == 5 for row in rows)
    assert "capacity" in csv_out.err
    assert csv_out.out != json_out.out


def test_orbits_summary_minus_branch(tmp_path, capsys):
    code = run(["orbits", "--t", "0.25", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.250000" in out
    assert "0.687500" in out  # t(3 - 4 t^2) at t = 0.25
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["glide_minus_action"] == pytest.approx(0.6875)
    # PLUS and MINUS glides and the ten alternating orbits of the census
    assert summary["closed_orbits_found"] == 12
    assert (tmp_path / "orbit.csv").read_text().startswith("arc,region,angle")


def test_orbits_high_t_omits_minus(tmp_path, capsys):
    code = run(["orbits", "--t", "0.75", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "MINUS" not in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "glide_minus_action" not in summary
    # provenance records only the flags orbits acts on
    assert summary["config"] == {"command": "orbits", "ts": [0.75]}


def test_orbits_t_out_of_range(capsys):
    assert run(["orbits", "--t", "1.5"]) == 1
    capsys.readouterr()


def test_bounds_row_values(tmp_path, capsys):
    code = run(["bounds", "--grid", "0.5:0.5:0.1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert lines[0] == "t,bound_t2,bound_inradius,bound_f,upper_t"
    vals = [float(x) for x in lines[1].split(",")]
    assert vals == pytest.approx([0.5, 0.25, 0.26794919243, 0.44289098287, 0.5], abs=1e-9)


def test_bounds_svg_has_four_polylines(tmp_path, capsys):
    code = run(["bounds", "--grid", "0.1:0.9:0.1", "--format", "svg",
                "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    svg = (tmp_path / "bounds.svg").read_text()
    assert svg.count("<polyline") == 4


def test_bounds_fine_grid_near_zero(tmp_path, capsys):
    code = run(["bounds", "--grid", "0.0001:0.0001:0.1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0


def test_bounds_bad_grid_usage_error(capsys):
    assert run(["bounds", "--grid", "0.5:0.1:0.1"]) == 1
    assert run(["bounds", "--grid", "nonsense"]) == 1
    capsys.readouterr()


def test_determinism_identical_outputs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(["ehz", "--body", "intersection", "--t", "0.5",
                    "--n-samples", "48", "--restarts", "2", "--seed", "11",
                    "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert (a / "ehz.json").read_bytes() == (b / "ehz.json").read_bytes()
    assert (a / "loop.csv").read_bytes() == (b / "loop.csv").read_bytes()


def test_ehz_json_on_the_ladder_repeats_byte_for_byte(capsys):
    argv = ["ehz", "--body", "intersection", "--t", "0.5", "--n-samples", "128",
            "--restarts", "2", "--format", "json"]
    outs = []
    for _ in range(2):
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert [rec["N"] for rec in doc["polish"]] == [128]
    assert all("grad_norm" in rec for rec in doc["restart_log"])


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_verify_wiring_and_exit_codes(tmp_path, monkeypatch, capsys):
    from symcap import verify

    def passing(seed=0):
        return {"name": "stub pass", "passed": True, "measured": 1.0,
                "tolerance": "none", "detail": ""}

    def failing(seed=0):
        return {"name": "stub fail", "passed": False, "measured": 0.0,
                "tolerance": "none", "detail": "expected"}

    monkeypatch.setattr(verify, "QUICK", [passing])
    code = run(["verify", "--level", "quick", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] stub pass" in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["criteria"][0]["passed"]

    monkeypatch.setattr(verify, "QUICK", [passing, failing])
    code = run(["verify", "--level", "quick"])
    out = capsys.readouterr().out
    assert code == 2
    assert "1/2 criteria passed" in out


@pytest.mark.parametrize("argv", [
    ["ehz", "--body", "ball4", "--format", "svg"],
    ["orbits", "--t", "0.3", "--n-samples", "64"],
    ["orbits", "--t", "0.3", "--restarts", "2"],
    ["orbits", "--t", "0.3", "--format", "json"],
    ["bounds", "--seed", "1"],
    ["bounds", "--n-samples", "64"],
    ["bounds", "--restarts", "2"],
    ["bounds", "--format", "json"],
    ["verify", "--n-samples", "64"],
    ["verify", "--restarts", "2"],
    ["verify", "--format", "json"],
    ["ehz", "--body", "ball4", "--format", "csv", "--out", "unused"],
    ["orbits", "--t", "0.3", "--samples", "4"],
    ["orbits", "--t", "0.3", "--seed", "1"],
    # a body flag that the --body kind never reads
    ["ehz", "--body", "ball4", "--t", "0.5"],
    ["ehz", "--body", "ball4", "--radii", "1,2"],
    ["ehz", "--body", "intersection", "--t", "0.5", "--radii", "1,2"],
    ["ehz", "--body", "intersection", "--t", "0.5", "--L", "2"],
    ["ehz", "--body", "mt-image", "--t", "0.5", "--r", "2"],
    ["ehz", "--body", "ellipsoid", "--radii", "1,2", "--L", "2"],
    ["ehz", "--body", "ellipsoid", "--radii", "1,2", "--r", "3"],
    ["ehz", "--body", "al-scaled", "--L", "2", "--radii", "1,2"],
    ["ehz", "--body", "al-scaled", "--t", "0.5", "--r", "2"],
])
def test_flags_a_subcommand_ignores_are_rejected(argv, capsys):
    assert run(argv) == 1
    # the message names the last flag given, the one that is not used
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["ehz", "--body", "ball4", "--r", "nan"], "--r"),
    (["ehz", "--body", "al-scaled", "--L", "inf"], "--L"),
    (["ehz", "--body", "intersection", "--t=-inf"], "--t"),
    (["ehz", "--body", "ellipsoid", "--radii", "1,nan"], "--radii"),
    (["orbits", "--t", "nan"], "--t"),
    (["bounds", "--grid", "0.1:nan:0.1"], "--grid"),
    (["bounds", "--grid", "inf:0.5:0.1"], "--grid"),
])
def test_non_finite_numbers_rejected_naming_the_flag(argv, flag, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "argument %s: expected a finite number" % flag in err


@pytest.mark.parametrize("prefix", ["scipy", "numpy.polynomial"])
def test_package_import_leaves_module_out(prefix):
    # scipy is a test dependency only, and numpy.polynomial serves only the
    # quadrature oracle of the tests: importing the package loads neither
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = ("import symcap.cli, symcap.verify, sys; "
            "sys.exit(int(any((m + '.').startswith(%r + '.') for m in sys.modules)))" % prefix)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_no_module_imports_scipy():
    # also catches an import inside a function, which a subprocess may not reach
    found = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found |= {(path.name, m) for m in names if m.split(".")[0] == "scipy"}
    assert found == set()


def test_readme_commands_exit_zero(tmp_path):
    # every `symcap` line of the README's "Command line" block runs and exits
    # 0, with out/ moved under tmp_path; `verify --level full` is left to
    # tests/test_acceptance.py, which runs its criteria one by one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("symcap ")]
    assert len(commands) == 7
    for argv in commands:
        if argv[:3] == ["verify", "--level", "full"]:
            continue
        argv = [str(tmp_path / "out") if a == "out/" else a for a in argv]
        assert run(argv) == 0, argv
