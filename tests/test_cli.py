import json

import pytest

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
