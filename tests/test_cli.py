import json
import sys

import pytest

from origamikz import geometry
from origamikz.cli import main
from origamikz.origami import MAX_DEGREE

L24 = "d=5\nh=(1 2)\nv=(1 3 4 5)\n"


@pytest.fixture
def l24_file(tmp_path):
    path = tmp_path / "l24.txt"
    path.write_text(L24)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decompose_json(capsys, l24_file):
    code, rep = run_json(capsys, ["decompose", l24_file, "--dir", "2,3"])
    assert code == 0
    assert rep["schema_version"] == 1
    assert rep["command"] == "decompose"
    assert sorted(c["f"] for c in rep["cylinders"]) == [2, 3]
    assert all(c["c"] == 1 for c in rep["cylinders"])
    assert len(rep["saddle_connections"]) == 3
    for s in rep["saddle_connections"]:
        assert s["upper_of"] is not None


def test_decompose_text(capsys, l24_file):
    code = main(["decompose", l24_file, "--dir", "0,1", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "f=4" in out and "f=1" in out


def test_homology_json(capsys, l24_file):
    code, rep = run_json(capsys, ["homology", l24_file])
    assert code == 0
    assert rep["gram"] == [
        [0, 0, 0, 1],
        [0, 0, 1, 1],
        [0, -1, 0, 0],
        [-1, -1, 0, 0],
    ]
    assert rep["nontaut"] == {"X": [-2, 1, 0, 0], "Y": [0, 0, -4, 1]}


def test_monodromy_json(capsys, l24_file):
    code, rep = run_json(capsys, ["monodromy", l24_file, "--dirs", "2,3;0,1"])
    assert code == 0
    assert rep["matrices"] == [[[2, 1], [-1, 0]], [[1, 0], [-1, 1]]]
    assert rep["index"] == 1
    assert rep["contains_minus_identity"] is True


def test_index_command(capsys):
    code, rep = run_json(capsys, ["index", "--gens", "3,2,-2,-1;1,0,-1,1"])
    assert code == 0
    assert rep["index"] == 3


def test_index_text_prints_integer(capsys):
    code = main(["index", "--gens", "0,-1,1,0;1,1,0,1", "--format", "text"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "1"


def test_orbit_cap_reports_reached_count(capsys, l24_file):
    code = main(["orbit", l24_file, "--cap", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "cap of 5" in lines[0]
    assert "5 forms reached" in lines[0]


def test_index_cap_exit_code(capsys):
    code = main(["index", "--gens", "1,1,0,1", "--cap", "300"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cap" in err


def test_orbit_command(capsys, l24_file):
    code, rep = run_json(capsys, ["orbit", l24_file])
    assert code == 0
    assert rep["size"] == 18
    assert "L(2,4)" in rep["l_shapes"]


def test_census_command(capsys):
    code, rep = run_json(capsys, ["census", "--degree", "5"])
    assert code == 0
    assert rep["count"] == 27
    assert rep["n_orbits"] == 2
    families = {orb["family"] for orb in rep["orbits"]}
    assert families == {"A", "B"}


def test_census_usage_error(capsys):
    assert main(["census", "--degree", "2"]) == 2
    assert main(["census", "--degree", "13"]) == 2


def test_verify_paper_command(capsys):
    code, rep = run_json(capsys, ["verify-paper", "--n-max", "1"])
    assert code == 0
    assert rep["ok"] is True
    indices = [
        c["got"] for case in rep["cases"] for c in case["checks"]
        if c["check"] == "index"
    ]
    assert indices == [1, 3]


def test_verify_paper_usage(capsys):
    assert main(["verify-paper", "--n-max", "0"]) == 2


def test_conjecture_command(capsys):
    code, rep = run_json(capsys, ["conjecture", "--reps", "3,3"])
    assert code == 0
    case = rep["cases"][0]
    assert case["case"] == "L(3,3)"
    assert isinstance(case["index"], int)
    assert "matches_conjecture" in case


def test_conjecture_rejects_even_parameters(capsys):
    code, rep = run_json(capsys, ["conjecture", "--reps", "2,4"])
    assert code == 1
    assert rep["cases"][0]["ok"] is False


def test_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("h=(1 2)\n")
    assert main(["decompose", str(bad), "--dir", "1,0"]) == 1


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "origamikz.cli", "index", "--gens",
         "0,-1,1,0;1,1,0,1", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_conjecture_empty_reps(capsys):
    code, rep = run_json(capsys, ["conjecture", "--reps", ""])
    assert code == 0
    assert rep["cases"] == []


@pytest.mark.parametrize("text", [
    "h=(1 1)\nv=(1 2)\n",
    "h=(1 2 1)\nv=(1 3)\n",
    "d=%d\nh=(1 2)\nv=(1 3)\n" % (MAX_DEGREE + 1),
    "h=(1 %d)\nv=(1 3)\n" % (MAX_DEGREE + 1),
])
def test_malformed_input_fails_on_one_line(capsys, tmp_path, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["orbit", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_monodromy_rejects_non_h2(capsys, tmp_path):
    # two simple cone points: stratum H(1,1), cone orders (1, 1)
    path = tmp_path / "h11.txt"
    path.write_text("h=(1 2)(3 4)\nv=(1 3)\n")
    assert main(["monodromy", str(path), "--dirs", "1,0;0,1"]) == 1
    err = capsys.readouterr().err
    assert "H(2)" in err and "(1, 1)" in err and "Fraction" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cap_must_be_positive(capsys, l24_file, value):
    assert main(["orbit", l24_file, "--cap", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--cap must be a positive integer, got %s\n" % value


@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_dir_sum_must_be_positive(capsys, value):
    assert main(["conjecture", "--max-dir-sum", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "--max-dir-sum must be a positive integer, got %s\n" % value
    )


@pytest.mark.parametrize("argv", [
    ["verify-paper", "--n-max", "3"],
    ["conjecture", "--max-dir-sum", "6"],
], ids=["verify-paper", "conjecture"])
def test_each_direction_decomposed_once(monkeypatch, capsys, argv):
    # decompositions are handed down to the basis and the twists, never
    # recomputed for the same surface and direction
    real = geometry.decompose
    calls = []

    def counting(o, d):
        calls.append((o, d))
        return real(o, d)

    for name, module in list(sys.modules.items()):
        if name.startswith("origamikz") and getattr(module, "decompose", None) is real:
            monkeypatch.setattr(module, "decompose", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("argv, lines", [
    (["homology", "L24"], [
        "basis directions: [[1, 0], [0, 1]] f-values: [1, 2, 1, 4]",
        "intersection matrix (rows/cols X1, X2, Y1, Y2):",
        "     0   0   0   1",
        "     0   0   1   1",
        "     0  -1   0   0",
        "    -1  -1   0   0",
        "non-tautological basis: X = [-2, 1, 0, 0]  Y = [0, 0, -4, 1]",
    ]),
    (["monodromy", "L24", "--dirs", "2,3;0,1"], [
        "direction (2,3): [[2, 1], [-1, 0]]",
        "direction (0,1): [[1, 0], [-1, 1]]",
        "index of generated subgroup: 1",
    ]),
    (["orbit", "L24"], ["orbit size 18, L-shapes: ['L(2,4)', 'L(4,2)']"]),
    (["census", "--degree", "5"], [
        "degree 5: 27 primitive H(2) origamis in 2 orbit(s)",
        "  orbit of size 9 [B]: L(3,3)",
        "  orbit of size 18 [A]: L(2,4), L(4,2)",
    ]),
    (["conjecture", "--reps", "3,3", "--max-dir-sum", "4"], [
        "L(3,3): index 12 (conjectured 3)  <-- differs!",
    ]),
], ids=["homology", "monodromy", "orbit", "census", "conjecture"])
def test_text_format(capsys, l24_file, argv, lines):
    argv = [l24_file if a == "L24" else a for a in argv]
    assert main(argv + ["--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_verify_paper_text(capsys):
    assert main(["verify-paper", "--n-max", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if not line.startswith("  ")] == [
        "L(2,2)  [ok]", "L(2,3)  [ok]", "verify-paper: all checks passed",
    ]
    checks = [line for line in out if line.startswith("  ")]
    assert len(checks) == 34 and all(line.startswith("    ") for line in checks)
    assert any("twist matrix (3,5)" in line and "got [[3, 2], [-2, -1]]" in line
               for line in checks)
