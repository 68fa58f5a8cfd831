import json
import random
import sys

import pytest

from origamikz import (Direction, IntegralityError, OrigamiError, cli, decompose,
                       default_basis, dehn_twist_action, format_origami, geometry,
                       make_l_origami, origami, paper, primitive_directions, sl2)
from origamikz.cli import main
from origamikz.origami import MAX_DEGREE, MAX_ORBIT_SQUARES, MAX_TRACE_LENGTH
from util import random_h2_origami

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


H1234 = "h=(1 2 3 4)\nv=(1 2)\n"


def _cylinder(f, rows, upper):
    return {"f": f, "c": 1, "circumference": f, "height_rows": 1,
            "rows": rows, "upper_boundary": upper}


def _saddle(holonomy, upper_of):
    return {"holonomy": holonomy, "upper_of": upper_of}


@pytest.mark.parametrize("surface, direction, cylinders, saddles", [
    (L24, "2,3",
     [_cylinder(2, [[1, 4]], [2]), _cylinder(3, [[2, 5, 3]], [0, 1])],
     [_saddle([4, 6], 1), _saddle([2, 3], 1), _saddle([4, 6], 0)]),
    (L24, "0,1",
     [_cylinder(1, [[2]], [2]), _cylinder(4, [[1, 3, 4, 5]], [0, 1])],
     [_saddle([0, 1], 1), _saddle([0, 3], 1), _saddle([0, 1], 0)]),
    (L24, "-1,2",
     [_cylinder(2, [[3, 5]], [1]), _cylinder(3, [[1, 4, 2]], [0, 2])],
     [_saddle([-1, 2], 1), _saddle([-2, 4], 0), _saddle([-2, 4], 1)]),
    (H1234, "1,0",
     [_cylinder(4, [[1, 2, 3, 4]], [0, 1, 2])],
     [_saddle([1, 0], 0), _saddle([1, 0], 0), _saddle([2, 0], 0)]),
    (H1234, "3,5",
     [_cylinder(1, [[4]], [2]), _cylinder(3, [[1, 2, 3]], [0, 1])],
     [_saddle([3, 5], 1), _saddle([6, 10], 1), _saddle([3, 5], 0)]),
    (L24, "2000,1",
     [_cylinder(1, [[2]], [2]), _cylinder(4, [[1, 3, 4, 5]], [0, 1])],
     [_saddle([2000, 1], 1), _saddle([6000, 3], 1), _saddle([2000, 1], 0)]),
    (L24, "-7,30",
     [_cylinder(2, [[2, 5]], [0]), _cylinder(3, [[1, 3, 4]], [1, 2])],
     [_saddle([-14, 60], 0), _saddle([-14, 60], 1), _saddle([-7, 30], 1)]),
    (H1234, "13,21",
     [_cylinder(1, [[1]], [2]), _cylinder(3, [[2, 3, 4]], [0, 1])],
     [_saddle([13, 21], 1), _saddle([26, 42], 1), _saddle([13, 21], 0)]),
], ids=["l24-2,3", "l24-0,1", "l24--1,2", "h1234-1,0", "h1234-3,5",
        "l24-2000,1", "l24--7,30", "h1234-13,21"])
def test_decompose_report_pinned(capsys, tmp_path, surface, direction,
                                 cylinders, saddles):
    path = tmp_path / "surface.txt"
    path.write_text(surface)
    code, rep = run_json(capsys, ["decompose", str(path), "--dir=" + direction])
    assert code == 0
    assert rep == {
        "schema_version": 1,
        "command": "decompose",
        "degree": 5 if surface == L24 else 4,
        "direction": [int(x) for x in direction.split(",")],
        "cylinders": cylinders,
        "saddle_connections": saddles,
    }


def test_homology_search_report_pinned(capsys, tmp_path):
    # the horizontal axis has one cylinder, so the basis is searched for
    path = tmp_path / "h1234.txt"
    path.write_text(H1234)
    code, rep = run_json(capsys, ["homology", str(path)])
    assert code == 0
    assert rep == {
        "schema_version": 1,
        "command": "homology",
        "degree": 4,
        "basis_directions": [[0, 1], [-1, 1]],
        "f_values": [1, 2, 1, 3],
        "gram": [[0, 0, 0, 1], [0, 0, 1, 1], [0, -1, 0, 0], [-1, -1, 0, 0]],
        "nontaut": {"X": [-2, 1, 0, 0], "Y": [0, 0, -3, 1]},
    }


# both axes have 2 cylinders, but their four cores pair degenerately, so
# the basis search moves on to (-2, 1)
DEGENERATE_AXES = ("d=12\nh=(1 2 3 5 8 11)(4 6 9)(7 10 12)\n"
                   "v=(1 3 6 10 5 9 12 8)(2 4 7 11)\n")


def test_degenerate_axes_report_pinned(capsys, tmp_path):
    path = tmp_path / "degenerate.txt"
    path.write_text(DEGENERATE_AXES)
    code, rep = run_json(capsys, ["homology", str(path)])
    assert code == 0
    assert rep["basis_directions"] == [[1, 0], [-2, 1]]
    assert rep["f_values"] == [3, 6, 1, 9]
    code, rep = run_json(capsys, ["monodromy", str(path), "--dirs", "1,0;-2,1",
                                  "--cap", "50"])
    assert code == 3
    assert rep["matrices"] == [[[1, 6], [0, 1]], [[1, 0], [-3, 1]]]
    assert rep["status"] == "index-exceeds-cap"


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


def test_index_closes_short_words_before_a_long_one(capsys):
    # S and T generate SL2(Z); T^100000 scanned first would define the
    # whole coset cap before S and T close coset 0
    code, rep = run_json(capsys, ["index", "--gens", "1,100000,0,1;0,-1,1,0;1,1,0,1"])
    assert code == 0
    assert rep["index"] == 1 and rep["contains_minus_identity"] is True


def test_orbit_cap_reports_reached_count(capsys, l24_file):
    code = main(["orbit", l24_file, "--cap", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "cap of 5" in lines[0]
    assert "5 forms reached" in lines[0]


def test_orbit_cap_reports_depth_and_frontier(capsys, l24_file):
    assert main(["orbit", l24_file, "--cap", "5"]) == 3
    err = capsys.readouterr().err.strip()
    assert err == ("orbit exceeds cap of 5; 5 forms reached at BFS depth 2, "
                   "frontier 2")


@pytest.mark.parametrize("command, what", [("orbit", "orbit"), ("census", "an orbit")])
def test_default_orbit_cap_shrinks_with_the_degree(monkeypatch, capsys, l24_file,
                                                   command, what):
    # 50 squares make a default cap of 10 forms at degree 5, which the
    # 18-form orbit of L(2,4) passes; an explicit --cap is kept
    monkeypatch.setattr(origami, "MAX_ORBIT_SQUARES", 50)
    argv = ["orbit", l24_file] if command == "orbit" else ["census", "--degree", "5"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("%s exceeds cap of 10; 10 forms reached at BFS depth 3, "
                            "frontier 3\n" % what)
    assert main(argv + ["--cap", "18"]) == 0


def test_index_cap_exit_code(capsys):
    code = main(["index", "--gens", "1,1,0,1", "--cap", "300"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cap" in err
    assert err == ("index exceeds cap of 300 live cosets; 364 cosets defined, "
                   "64 coincidences\n")


@pytest.mark.parametrize("argv", [
    ["monodromy", "L24", "--dirs", "2,3;0,1"],
    ["index", "--gens", "3,2,-2,-1;1,0,-1,1"],
], ids=["monodromy", "index"])
def test_one_coset_enumeration_per_command(monkeypatch, capsys, l24_file, argv):
    # the index and the -I membership are read off one coset table
    real = sl2._enumerate
    calls = []

    def counting(words, cap):
        calls.append(words)
        return real(words, cap)

    monkeypatch.setattr(sl2, "_enumerate", counting)
    argv = [l24_file if a == "L24" else a for a in argv]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["contains_minus_identity"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["decompose", "L24", "--dir", "100000,1"],
    ["monodromy", "L24", "--dirs", "2,3;100000,1"],
], ids=["decompose", "monodromy"])
def test_direction_too_long_to_trace_fails_on_one_line(capsys, l24_file, argv):
    argv = [l24_file if a == "L24" else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: direction (100000,1) is too long to trace on a degree-5 "
        "origami: d*(|p|+|q|) = 500005 exceeds MAX_TRACE_LENGTH = 120000\n"
    )


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


def test_census_exits_3_when_an_orbit_passes_the_cap(capsys):
    assert main(["census", "--degree", "5", "--cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("an orbit exceeds cap of 2; 2 forms reached at BFS "
                            "depth 0, frontier 2\n")


@pytest.mark.parametrize("degree, note", [(9, False), (10, True), (12, True)])
def test_census_notes_its_cost_from_degree_10(monkeypatch, capsys, degree, note):
    # the enumeration is stubbed out: only the note on stderr is read
    monkeypatch.setattr(cli, "h2_origamis", lambda d: [])
    monkeypatch.setattr(cli, "orbit_partition", lambda origamis, cap: [])
    assert main(["census", "--degree", str(degree)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == 0
    assert captured.err == (note and "census at degree %d enumerates large centralizer "
                            "cosets; expect a second at degree 10, several at 11 and "
                            "longer beyond\n" % degree or "")


def test_census_usage_error(capsys):
    assert main(["census", "--degree", "2"]) == 2
    assert main(["census", "--degree", "13"]) == 2


@pytest.mark.parametrize("command", [None, "decompose", "homology", "monodromy", "index",
                                     "orbit", "census", "verify-paper", "conjecture"])
def test_help_renders(capsys, command):
    # argparse %-expands a help string only when it prints it, so each page
    # is rendered here; the orbit cap's default is read from origami
    assert main(([command] if command else []) + ["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert out.startswith("usage: origamikz")
    if command in ("orbit", "census"):
        assert "(default %d // degree)" % MAX_ORBIT_SQUARES in out


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


def test_n_max_is_bounded_by_the_trace_length(monkeypatch, capsys):
    # the largest direction of case N is (2N+1, 2N+3) on the degree-(2N+2)
    # L(2, 2N+1): d*(|p|+|q|) = 8(N+1)^2, 72 at N = 2 and 128 at N = 3
    assert paper.family_trace_length(121) <= MAX_TRACE_LENGTH
    assert main(["verify-paper", "--n-max", "122"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("--n-max 122 needs d*(|p|+|q|) = 121032, "
                            "above MAX_TRACE_LENGTH = 120000\n")
    # the bound is exact: the largest accepted N passes every decomposition
    monkeypatch.setattr(cli, "MAX_TRACE_LENGTH", 72)
    monkeypatch.setattr(geometry, "MAX_TRACE_LENGTH", 72)
    assert main(["verify-paper", "--n-max", "2"]) == 0
    assert main(["verify-paper", "--n-max", "3"]) == 2


def test_conjecture_command(capsys):
    code, rep = run_json(capsys, ["conjecture", "--reps", "3,3"])
    assert code == 0
    case = rep["cases"][0]
    assert case["case"] == "L(3,3)"
    assert isinstance(case["index"], int)
    assert "matches_conjecture" in case


def test_conjecture_exits_3_when_an_index_passes_the_cap(capsys):
    code, rep = run_json(capsys, ["conjecture", "--reps", "5,5", "--max-dir-sum", "6"])
    assert code == 3
    case = rep["cases"][0]
    assert (case["case"], case["index"], case["status"]) == (
        "L(5,5)", None, "index-exceeds-cap")


def test_verify_paper_reports_an_index_past_the_cap(capsys):
    code, rep = run_json(capsys, ["verify-paper", "--n-max", "1", "--cap", "2"])
    assert code == 3
    assert rep["ok"] is False
    failed = [c for case in rep["cases"] for c in case["checks"] if not c["ok"]]
    assert [(c["check"], c["got"], c["status"]) for c in failed] == [
        ("index", None, "index-exceeds-cap")] * 2


def test_verify_paper_exits_1_when_a_check_past_the_cap_is_not_alone(monkeypatch, capsys):
    real = paper.family_case

    def wrong_matrix(n, odd):
        case = real(n, odd)
        case["matrices"] = (sl2.Mat2(1, 1, 0, 1),) + case["matrices"][1:]
        return case

    monkeypatch.setattr(paper, "family_case", wrong_matrix)
    code, rep = run_json(capsys, ["verify-paper", "--n-max", "1", "--cap", "2"])
    assert code == 1
    failed = [c["check"] for case in rep["cases"] for c in case["checks"] if not c["ok"]]
    assert failed == ["twist matrix (1,2)", "index", "twist matrix (3,5)", "index"]


@pytest.mark.parametrize("argv", [
    ["monodromy", "L24", "--dirs", ""], ["index", "--gens", ";"],
    ["conjecture", "--reps", ""], ["conjecture", "--reps", ";"],
    ["conjecture", "--format", "text", "--reps", ""],
], ids=["dirs", "gens", "reps", "reps-semicolon", "reps-text"])
def test_empty_list_is_a_usage_error(capsys, l24_file, argv):
    assert main([l24_file if a == "L24" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "%s must list at least one chunk\n" % argv[-2]


@pytest.mark.parametrize("argv, chunk", [
    (["conjecture", "--reps", "3"], "'3': expected 2 comma-separated integers"),
    (["decompose", "L24", "--dir", "0,0"], "'0,0': the zero vector is not a direction"),
    (["decompose", "L24", "--dir", "1,2;3,4"],
     "'3,4': expected one chunk of 2 comma-separated integers"),
    (["monodromy", "L24", "--dirs", "1,2;x,1"], "'x,1': invalid literal for int()"),
    (["index", "--gens", "1,2,3"], "'1,2,3': expected 4 comma-separated integers"),
], ids=["reps", "dir-zero", "dir-two", "dirs-word", "gens"])
def test_bad_list_chunk_is_named(capsys, l24_file, argv, chunk):
    assert main([l24_file if a == "L24" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --%s: bad chunk %s" % (argv[-2][2:], chunk) in captured.err


def test_index_rejects_a_generator_of_determinant_other_than_1(capsys):
    assert main(["index", "--gens", "1,0,0,1;1,1,0,2"]) == 1
    assert capsys.readouterr().err == "error: Mat2(1, 1, 0, 2) has determinant 2, not 1\n"


def test_index_refuses_a_generator_word_past_the_cap(monkeypatch, capsys):
    # T^2000001 is a word of 2,000,001 letters, over MAX_WORD_LENGTH: one
    # line names it, and no amalgam word is built
    def boom(word):
        raise AssertionError("amalgam word built")

    monkeypatch.setattr(sl2, "_amalgam_letters", boom)
    assert main(["index", "--gens", "1,2000001,0,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: generator Mat2(1, 2000001, 0, 1) is a word of 2000001 "
                            "S/T letters, above MAX_WORD_LENGTH = 1000000\n")


def test_conjecture_rejects_even_parameters(capsys):
    assert main(["conjecture", "--reps", "2,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "L(2,4) must have n, m odd and >= 3\n"


def test_verify_paper_reports_a_pipeline_error_per_case(monkeypatch, capsys):
    real = cli.check_family_case

    def failing(n, odd, cap):
        if (n, odd) == (1, False):
            raise OrigamiError("planted failure")
        return real(n, odd, cap)

    monkeypatch.setattr(cli, "check_family_case", failing)
    code, rep = run_json(capsys, ["verify-paper", "--n-max", "1"])
    assert code == 1
    assert rep["ok"] is False
    assert rep["cases"][0]["ok"] is True
    assert rep["cases"][1] == {"case": "n=1 even", "error": "planted failure",
                               "ok": False, "checks": []}
    assert main(["verify-paper", "--n-max", "1", "--format", "text"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == ["n=1 even  [FAILED]", "  ! error: planted failure",
                        "verify-paper: MISMATCHES FOUND"]


def test_conjecture_reports_a_pipeline_error_per_case(monkeypatch, capsys):
    real = cli.kz_generators

    def failing(o, dirs, basis):
        if o.degree == 7:
            raise IntegralityError("planted failure")
        return real(o, dirs, basis)

    monkeypatch.setattr(cli, "kz_generators", failing)
    code, rep = run_json(capsys, ["conjecture", "--reps", "3,3;3,5",
                                  "--max-dir-sum", "4"])
    assert code == 1
    assert rep["cases"][0]["ok"] is True
    assert rep["cases"][1] == {"case": "L(3,5)", "error": "planted failure",
                               "ok": False}
    assert main(["conjecture", "--reps", "3,3;3,5", "--max-dir-sum", "4",
                 "--format", "text"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "L(3,5): error planted failure"


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


@pytest.mark.parametrize("text, message", [
    ("d=3\nh=(1 5)\nv=(1 2)\n", "cycle mentions 5 but degree is 3"),
    ("x=(1 2)\nh=(1 2)\nv=(1 3)\n", "unrecognised line 'x=(1 2)'"),
], ids=["symbol-above-degree", "unknown-key"])
def test_bad_line_fails_with_its_message(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["orbit", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("line, symbol", [
    ("d=abc", "abc"),
    ("d=", ""),
    ("h=(1 x)", "x"),
    ("h=(1 2.0)", "2.0"),
    ("h=(1 2) (3 4)", "2)"),
], ids=["degree-word", "degree-empty", "letter", "decimal", "spaced-cycles"])
def test_non_integer_fails_on_its_own_line(capsys, tmp_path, line, symbol):
    bad = tmp_path / "bad.txt"
    bad.write_text(line + ("\nh=(1 2)" if line.startswith("d") else "") + "\nv=(1 3)\n")
    assert main(["orbit", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line %r: %r is not an integer\n" % (line, symbol)


def test_repeated_key_fails_on_one_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("h=(1 2)\nv=(1 3)\nv=(2 3)\n")
    assert main(["orbit", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 'v=(2 3)': a second v= line\n"


def test_degree_header_below_one_fails_on_its_own_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("d=-3\nh=\nv=\n")
    assert main(["orbit", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: d=-3: the degree must be at least 1\n"


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


def test_max_dir_sum_is_bounded(monkeypatch, capsys):
    assert main(["conjecture", "--max-dir-sum", "51"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--max-dir-sum must be at most 50, got 51\n"
    monkeypatch.setattr(cli, "MAX_DIR_SUM", 4)
    assert main(["conjecture", "--reps", "3,3", "--max-dir-sum", "4"]) == 0
    assert main(["conjecture", "--reps", "3,3", "--max-dir-sum", "5"]) == 2


@pytest.mark.parametrize("reps, dir_sum, err", [
    ("3,3;3,3001", "50", "L(3,3001) needs d*(|p|+|q|) = 150150 at --max-dir-sum 50, "
                         "above MAX_TRACE_LENGTH = 120000\n"),
    ("3,3;3,10001", "5", "L(3,10001) has degree 10003, above MAX_DEGREE = 10000\n"),
    ("3,3;4,5", "4", "L(4,5) must have n, m odd and >= 3\n"),
    ("3,3;1,3", "4", "L(1,3) must have n, m odd and >= 3\n"),
], ids=["trace-length", "degree", "even", "below-3"])
def test_conjecture_checks_every_representative_first(monkeypatch, capsys, reps,
                                                      dir_sum, err):
    # a representative past a bound is a usage error before any work, even
    # on the valid L(3,3) listed before it
    def boom(*args):
        raise RuntimeError("a representative was computed")

    monkeypatch.setattr(cli, "standard_basis", boom)
    assert main(["conjecture", "--reps", reps, "--max-dir-sum", dir_sum]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_conjecture_trace_length_bound_is_exact(monkeypatch, capsys):
    # L(3,3) has degree 5: at --max-dir-sum 4 its longest direction has
    # d*(|p|+|q|) = 20, and every decomposition passes a bound of 20
    monkeypatch.setattr(cli, "MAX_TRACE_LENGTH", 20)
    monkeypatch.setattr(geometry, "MAX_TRACE_LENGTH", 20)
    assert main(["conjecture", "--reps", "3,3", "--max-dir-sum", "4"]) == 0
    assert main(["conjecture", "--reps", "3,3", "--max-dir-sum", "5"]) == 2
    assert capsys.readouterr().err.endswith(
        "L(3,3) needs d*(|p|+|q|) = 25 at --max-dir-sum 5, above MAX_TRACE_LENGTH = 20\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "L24", "--dir", "1,0"],
    ["homology", "L24"],
], ids=["decompose", "homology"])
def test_cap_is_rejected_where_nothing_is_enumerated(capsys, l24_file, argv):
    argv = [l24_file if a == "L24" else a for a in argv]
    assert main(argv + ["--cap", "5"]) == 2
    assert capsys.readouterr().out == ""


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
    ["conjecture", "--reps", "3,3;3,5", "--max-dir-sum", "6"],
    # (0, 1) is a basis axis and a twist direction
    ["monodromy", "L24", "--dirs", "2,3;0,1"],
    # the horizontal axis has one cylinder, so the basis comes from the
    # direction search, which starts with both axes
    ["homology", "H1234"],
    # both axes have 2 cylinders and pair degenerately
    ["homology", "DEGENERATE"],
], ids=["verify-paper", "conjecture", "monodromy", "homology-search",
        "homology-degenerate-axes"])
def test_each_direction_decomposed_once(monkeypatch, capsys, tmp_path,
                                        l24_file, argv):
    # decompositions are handed down to the basis and the twists, never
    # recomputed for the same surface and direction
    h1234 = tmp_path / "h1234.txt"
    h1234.write_text(H1234)
    degenerate = tmp_path / "degenerate.txt"
    degenerate.write_text(DEGENERATE_AXES)
    argv = [{"L24": l24_file, "H1234": str(h1234), "DEGENERATE": str(degenerate)}.get(a, a)
            for a in argv]
    real = geometry.decompose
    calls = []

    def counting(o, d, *prev):
        calls.append((o, d))
        return real(o, d, *prev)

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


@pytest.mark.parametrize("argv, traced", [
    # the twists and the basis Gram matrices pair cores cellularly
    (["conjecture", "--max-dir-sum", "14"], 0),
    (["homology", "L24"], 0),
    (["monodromy", "L24", "--dirs", "2,3;0,1"], 0),
    # the paper's tables, not the Gram, read the basis cores and the twist
    # directions' cores: 8 per even-degree case, 6 per odd one (its
    # vertical twist direction is the basis axis)
    (["verify-paper", "--n-max", "10"], 140),
    # the report reads saddle connections, never a core
    (["decompose", "L24", "--dir", "2,3"], 0),
], ids=["conjecture", "homology", "monodromy", "verify-paper", "decompose"])
def test_cores_traced_per_command(monkeypatch, capsys, l24_file, argv, traced):
    real = geometry._trace_closed
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_trace_closed", counting)
    assert main([l24_file if a == "L24" else a for a in argv]) == 0
    capsys.readouterr()
    assert len(calls) == traced


def test_verify_paper_tracer_work(monkeypatch, capsys):
    # the 140 cores of test_cores_traced_per_command cross 9,910 squares;
    # the stepper works in integers, and a core's segments take two new
    # Fractions per crossing (its exit point) plus one for its first entry
    # point: 19,680 in all.  Counted over the whole run, Fraction
    # constructions fell from 80,116 with the Fraction stepper to 21,296,
    # to 19,960 once the cores' start points were pulled back through the
    # shear in integers, with two Fractions per point, and to the 19,680
    # of the segments alone once those points stayed integers into the
    # tracer.
    # From Python 3.12 on, Fraction arithmetic builds its results without
    # calling __new__, so that total is pinned on earlier versions only.
    from fractions import Fraction

    counts = {"crossings": 0, "segment_fractions": 0, "fractions": 0}
    real_step, real_new = geometry._step, Fraction.__new__

    def step(*args):
        counts["crossings"] += 1
        return real_step(*args)

    def segment_fraction(*args):
        counts["segment_fractions"] += 1
        return Fraction(*args)

    def new(cls, *args, **kwargs):
        counts["fractions"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(geometry, "_step", step)
    monkeypatch.setattr(geometry, "Fraction", segment_fraction)
    monkeypatch.setattr(Fraction, "__new__", new)
    assert main(["verify-paper", "--n-max", "10"]) == 0
    capsys.readouterr()
    assert counts["crossings"] == 9910
    assert counts["segment_fractions"] == 19680
    if sys.version_info < (3, 12):
        assert counts["fractions"] == 19680


def test_conjecture_shear_and_push_work(monkeypatch, capsys):
    # each direction is sheared once, along its whole word (the two axes
    # for the basis, which then twists them as it holds them); each core
    # of the basis and of every twisted direction is pulled back through
    # its own word and pushed through the two basis shears, of 0 and 1
    # letters on the standard basis
    def word_length(d):
        return sum(abs(e) for _, e in sl2.matrix_to_word(geometry.shear_matrix(d)))

    dirs = primitive_directions(14)
    letters = transports = 0
    for n, m in ((3, 3), (3, 5), (5, 5)):
        o = make_l_origami(n, m)
        letters += sum(map(word_length, dirs))
        for d in [Direction(1, 0), Direction(0, 1)] + dirs:
            transports += len(decompose(o, d).cylinders) * (word_length(d) + 1)
    assert (letters, transports) == (4209, 6211)
    counts = {"act_letter": 0, "transport_chain": 0}
    for name in counts:
        real = getattr(origami, name)

        def counting(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(origami, name, counting)
    assert main(["conjecture", "--max-dir-sum", "14"]) == 0
    capsys.readouterr()
    assert counts == {"act_letter": letters, "transport_chain": transports}


@pytest.mark.parametrize("dirs", [
    "3,2;2,3;1,2;2,1;1,1;-1,1", "-1,1;1,1;2,1;1,2;2,3;3,2",
], ids=["forward", "reversed"])
def test_monodromy_reports_the_first_failing_direction(capsys, tmp_path, dirs):
    # the error reported is the one of the first failing direction in
    # input order
    rng = random.Random(1)
    failing = 0
    for k in range(10):
        o = random_h2_origami(rng)
        path = tmp_path / ("r%d.txt" % k)
        path.write_text(format_origami(o))
        basis = default_basis(o)
        first = None
        for d in (Direction(*map(int, c.split(","))) for c in dirs.split(";")):
            try:
                dehn_twist_action(decompose(o, d), basis)
            except OrigamiError as exc:
                first = exc
                break
        code = main(["monodromy", str(path), "--dirs=" + dirs])
        err = capsys.readouterr().err
        if first is None:
            assert code in (0, 3) and err == ""
        else:
            failing += 1
            assert code == 1 and err == "error: %s\n" % first
    assert failing == 4


def test_decompose_shears_once(monkeypatch, capsys, l24_file):
    # the saddle labels reuse the stages decompose kept
    real = geometry.act_word
    calls = []

    def counting(o, word, *reuse):
        calls.append(word)
        return real(o, word, *reuse)

    monkeypatch.setattr(geometry, "act_word", counting)
    assert main(["decompose", l24_file, "--dir=-7,30"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
