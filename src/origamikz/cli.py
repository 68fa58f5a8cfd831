"""Command-line interface.

Subcommands: decompose, homology, monodromy, index, orbit, census,
verify-paper, conjecture.  Every subcommand takes --format json|text
after its name (``origamikz orbit FILE --format text``); every one but
decompose and homology also takes --cap N.

Exit codes: 0 success, 1 failed checks or pipeline errors, 2 usage,
3 a cap was exceeded (orbit or coset enumeration) and no check failed.
"""

import argparse
import json
import sys

from .census import h2_origamis, orbit_partition
from .errors import IndexCapExceeded, OrbitCapExceeded, OrigamiError
from .geometry import Direction, decompose, primitive_directions
from .homology import default_basis, nontaut_basis, standard_basis
from .monodromy import kz_generators
from .origami import (MAX_DEGREE, MAX_TRACE_LENGTH, ORBIT_CAP, canonical_form,
                      make_l_origami, orbit, parse_origami)
from .paper import check_family_case, family_trace_length, matrix_json
from .sl2 import COSET_CAP, Mat2, _index_and_minus_identity, index_in_sl2

SCHEMA_VERSION = 1

# conjecture builds about 0.6 * S^2 directions up front and kz_generators
# shears each along its whole word (S = 50 takes about 1.0-1.4 s on the
# default representatives, start-up included, on 2 vCPUs with Python 3.11)
MAX_DIR_SUM = 50

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _report(command, **fields):
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _emit(rep, args, text_renderer):
    if args.format == "json":
        print(json.dumps(rep, indent=2, sort_keys=False))
    else:
        text_renderer(rep)


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def _int_chunks(size, build=None, one=False):
    """An argparse type: ``;``-separated chunks of ``size`` comma-separated
    integers, each a tuple or passed to ``build``.

    Empty chunks are skipped; with ``one`` the text is exactly one chunk,
    returned on its own.  A bad chunk is named in the usage error.
    """

    def parse(text):
        out = []
        for chunk in text.split(";"):
            if not chunk and not one:
                continue
            try:
                vals = tuple(int(x) for x in chunk.split(","))
                if len(vals) != size or (one and out):
                    raise ValueError("expected %s%d comma-separated integers"
                                     % ("one chunk of " if one else "", size))
                out.append(build(*vals) if build else vals)
            except ValueError as exc:
                raise argparse.ArgumentTypeError("bad chunk %r: %s" % (chunk, exc))
        return out[0] if one else out

    return parse


def _load_origami(path):
    with open(path, encoding="utf-8") as fh:
        return parse_origami(fh.read())


def _one_based(rows):
    return [[sq + 1 for sq in row] for row in rows]


# ---------------------------------------------------------------------------
# plain pipeline commands
# ---------------------------------------------------------------------------

def cmd_decompose(args):
    o = _load_origami(args.file)
    dec = decompose(o, args.dir)
    upper_of = {s: i for i, upper in enumerate(dec.upper_boundaries) for s in upper}
    rep = _report(
        "decompose",
        degree=o.degree,
        direction=list(args.dir.vector),
        cylinders=[
            {
                "f": c.f,
                "c": c.c,
                "circumference": c.f,
                "height_rows": c.height_rows,
                "rows": _one_based(c.rows),
                "upper_boundary": list(upper),
            }
            for c, upper in zip(dec.cylinders, dec.upper_boundaries)
        ],
        saddle_connections=[
            {"holonomy": list(s.holonomy()), "upper_of": upper_of[i]}
            for i, s in enumerate(dec.saddle_connections)
        ],
    )

    def render(rep):
        print("degree %d, direction (%d,%d)" % (o.degree, *args.dir.vector))
        for i, c in enumerate(rep["cylinders"]):
            print(
                "cylinder %d: f=%d c=%d circumference=%d height=%d rows=%s"
                % (i, c["f"], c["c"], c["circumference"], c["height_rows"],
                   c["rows"])
            )
        for i, s in enumerate(rep["saddle_connections"]):
            print(
                "saddle %d: holonomy (%d,%d), upper boundary of cylinder %s"
                % (i, s["holonomy"][0], s["holonomy"][1], s["upper_of"])
            )

    _emit(rep, args, render)
    return EXIT_OK


def cmd_homology(args):
    o = _load_origami(args.file)
    basis = default_basis(o)
    nt = nontaut_basis(basis)
    rep = _report(
        "homology",
        degree=o.degree,
        basis_directions=[list(d.vector) for d in basis.directions],
        f_values=list(basis.f_values),
        gram=[list(r) for r in basis.gram],
        nontaut={"X": list(nt.x), "Y": list(nt.y)},
    )

    def render(rep):
        print("basis directions:", rep["basis_directions"],
              "f-values:", rep["f_values"])
        print("intersection matrix (rows/cols X1, X2, Y1, Y2):")
        for row in rep["gram"]:
            print("   %3d %3d %3d %3d" % tuple(row))
        print("non-tautological basis: X =", rep["nontaut"]["X"],
              " Y =", rep["nontaut"]["Y"])

    _emit(rep, args, render)
    return EXIT_OK


def cmd_monodromy(args):
    o = _load_origami(args.file)
    gens = kz_generators(o, args.dirs)
    rep = _report(
        "monodromy",
        degree=o.degree,
        directions=[list(d.vector) for d in args.dirs],
        matrices=[matrix_json(m) for m in gens],
    )
    code = EXIT_OK
    try:
        rep["index"], rep["contains_minus_identity"] = (
            _index_and_minus_identity(gens, args.cap))
    except IndexCapExceeded:
        rep["index"] = None
        rep["status"] = "index-exceeds-cap"
        code = EXIT_CAP

    def render(rep):
        for d, m in zip(rep["directions"], rep["matrices"]):
            print("direction (%d,%d): %s" % (d[0], d[1], m))
        print("index of generated subgroup:",
              rep["index"] if rep["index"] is not None else "exceeds cap")

    _emit(rep, args, render)
    return code


def cmd_index(args):
    rep = _report("index", generators=[matrix_json(m) for m in args.gens])
    cap = args.cap
    try:
        rep["index"], rep["contains_minus_identity"] = (
            _index_and_minus_identity(args.gens, cap))
    except IndexCapExceeded as exc:
        print("index exceeds cap of %d live cosets; %d cosets defined, "
              "%d coincidences" % (cap, exc.defined, exc.coincidences),
              file=sys.stderr)
        return EXIT_CAP
    _emit(rep, args, lambda rep: print(rep["index"]))
    return EXIT_OK


def _l_shapes(degree):
    """((n, m), canonical form) of every L-shape of this degree."""
    shapes = [(n, degree + 1 - n) for n in range(2, degree)]
    return [(nm, canonical_form(make_l_origami(*nm))) for nm in shapes]


def _orbit_cap_exit(what, cap, exc):
    print("%s exceeds cap of %d; %d forms reached at BFS depth %d, frontier %d"
          % (what, cap, len(exc.partial), exc.depth, exc.frontier),
          file=sys.stderr)
    return EXIT_CAP


def cmd_orbit(args):
    o = _load_origami(args.file)
    cap = args.cap
    try:
        orb = orbit(o, cap)
    except OrbitCapExceeded as exc:
        return _orbit_cap_exit("orbit", cap, exc)
    rep = _report(
        "orbit",
        degree=o.degree,
        size=len(orb),
        l_shapes=["L(%d,%d)" % nm for nm, form in _l_shapes(o.degree) if form in orb],
    )
    _emit(rep, args, lambda rep: print(
        "orbit size %d, L-shapes: %s" % (rep["size"], rep["l_shapes"])))
    return EXIT_OK


def cmd_census(args):
    d = args.degree
    if d >= 10:
        print("census at degree %d enumerates large centralizer cosets; "
              "expect a second at degree 10, several at 11 and "
              "longer beyond" % d,
              file=sys.stderr)
    origamis = h2_origamis(d)
    cap = args.cap
    try:
        parts = orbit_partition(origamis, cap)
    except OrbitCapExceeded as exc:
        return _orbit_cap_exit("an orbit", cap, exc)
    l_shapes = _l_shapes(d)
    orbits = []
    for part in sorted(parts, key=len):
        shapes = [nm for nm, form in l_shapes if form in part]
        family = None
        if d % 2 == 1 and shapes:
            family = "A" if shapes[0][0] % 2 == 0 else "B"
        orbits.append({
            "size": len(part),
            "l_shapes": ["L(%d,%d)" % nm for nm in shapes],
            "family": family,
        })
    rep = _report(
        "census",
        degree=d,
        count=len(origamis),
        n_orbits=len(parts),
        orbits=orbits,
    )

    def render(rep):
        print("degree %d: %d primitive H(2) origamis in %d orbit(s)"
              % (rep["degree"], rep["count"], rep["n_orbits"]))
        for orb in rep["orbits"]:
            fam = (" [%s]" % orb["family"]) if orb["family"] else ""
            print("  orbit of size %d%s: %s"
                  % (orb["size"], fam, ", ".join(orb["l_shapes"]) or "-"))

    _emit(rep, args, render)
    return EXIT_OK


def cmd_verify_paper(args):
    length = family_trace_length(args.n_max)
    if length > MAX_TRACE_LENGTH:
        print("--n-max %d needs d*(|p|+|q|) = %d, above MAX_TRACE_LENGTH = %d"
              % (args.n_max, length, MAX_TRACE_LENGTH), file=sys.stderr)
        return EXIT_USAGE
    cases = []
    for n in range(1, args.n_max + 1):
        for odd in (True, False):
            try:
                cases.append(check_family_case(n, odd, args.cap))
            except OrigamiError as exc:
                cases.append(
                    {"case": "n=%d %s" % (n, "odd" if odd else "even"),
                     "error": str(exc), "ok": False, "checks": []}
                )
    ok = all(c["ok"] for c in cases)
    # the cap alone failed when every failed check is a capped index
    capped = all("error" not in case
                 and all(c["ok"] or "status" in c for c in case["checks"])
                 for case in cases)
    rep = _report("verify-paper", n_max=args.n_max, ok=ok, cases=cases)

    def render(rep):
        for case in rep["cases"]:
            status = "ok" if case["ok"] else "FAILED"
            print("%s  [%s]" % (case["case"], status))
            for c in case.get("checks", ()):
                mark = " " if c["ok"] else "!"
                print("  %s %-46s expected %-28r got %r"
                      % (mark, c["check"], c["expected"], c["got"]))
            if "error" in case:
                print("  ! error: %s" % case["error"])
        print("verify-paper:", "all checks passed" if ok
              else "index exceeds cap" if capped else "MISMATCHES FOUND")

    _emit(rep, args, render)
    return EXIT_OK if ok else EXIT_CAP if capped else EXIT_FAIL


def cmd_conjecture(args):
    # every representative is checked before any work; the longest
    # direction has |p|+|q| = --max-dir-sum
    s = args.max_dir_sum
    for n, m in args.reps:
        d = n + m - 1
        if n % 2 == 0 or m % 2 == 0 or n < 3 or m < 3:
            problem = "must have n, m odd and >= 3"
        elif d > MAX_DEGREE:
            problem = "has degree %d, above MAX_DEGREE = %d" % (d, MAX_DEGREE)
        elif d * s > MAX_TRACE_LENGTH:
            problem = ("needs d*(|p|+|q|) = %d at --max-dir-sum %d, above "
                       "MAX_TRACE_LENGTH = %d" % (d * s, s, MAX_TRACE_LENGTH))
        else:
            continue
        print("L(%d,%d) %s" % (n, m, problem), file=sys.stderr)
        return EXIT_USAGE
    cases = []
    ok, capped = True, False
    dirs = primitive_directions(args.max_dir_sum)
    for n, m in args.reps:
        entry = {"case": "L(%d,%d)" % (n, m)}
        try:
            o = make_l_origami(n, m)
            # kz_generators twists the basis axes as the basis holds them
            # and drops every other decomposition, with its shear stages,
            # once the next one is made (holding all of them took the
            # traced heap peak from 1.0 to 5.9 MB at --max-dir-sum 30,
            # under tracemalloc)
            basis = standard_basis(o)
            gens = kz_generators(o, dirs, basis)
            try:
                idx = index_in_sl2(gens, args.cap)
                entry["index"] = idx
            except IndexCapExceeded:
                entry["index"] = None
                entry["status"] = "index-exceeds-cap"
                capped = True
            entry["directions"] = [list(d.vector) for d in dirs]
            entry["matches_conjecture"] = entry["index"] == 3
            entry["ok"] = True
            if entry["index"] != 3:
                print(
                    "NOTE: L(%d,%d) reports index %r, conjectured 3"
                    % (n, m, entry["index"]),
                    file=sys.stderr,
                )
        except OrigamiError as exc:
            entry["error"] = str(exc)
            entry["ok"] = False
            ok = False
        cases.append(entry)
    rep = _report("conjecture", cases=cases)

    def render(rep):
        for case in rep["cases"]:
            if "index" in case:
                flag = "" if case.get("matches_conjecture") else "  <-- differs!"
                print("%s: index %r (conjectured 3)%s"
                      % (case["case"], case["index"], flag))
            else:
                print("%s: error %s" % (case["case"], case.get("error")))

    _emit(rep, args, render)
    return EXIT_FAIL if not ok else EXIT_CAP if capped else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="origamikz",
        description="Cylinder decompositions, multitwist homology actions "
        "and monodromy indices for square-tiled surfaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    # the commands that enumerate cosets or orbits also take a cap
    cosets, orbits = (argparse.ArgumentParser(add_help=False, parents=[common])
                      for _ in range(2))
    cosets.add_argument("--cap", type=int, default=COSET_CAP,
                        help="live-coset cap (default %(default)d)")
    orbits.add_argument("--cap", type=int, default=ORBIT_CAP,
                        help="orbit-size cap (default %(default)d)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common],
                       help="cylinder decomposition in a direction")
    p.add_argument("file")
    p.add_argument("--dir", type=_int_chunks(2, Direction, one=True), required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("homology", parents=[common],
                       help="intersection matrix and kernel basis")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("monodromy", parents=[cosets],
                       help="multitwist matrices and the index they generate")
    p.add_argument("file")
    p.add_argument("--dirs", type=_int_chunks(2, Direction), required=True)
    p.set_defaults(func=cmd_monodromy)

    p = sub.add_parser("index", parents=[cosets],
                       help="index of a matrix-generated subgroup of SL2(Z)")
    p.add_argument("--gens", type=_int_chunks(4, Mat2), required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("orbit", parents=[orbits],
                       help="SL2(Z) orbit of an origami")
    p.add_argument("file")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("census", parents=[orbits],
                       help="all primitive H(2) origamis of one degree")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify-paper", parents=[cosets],
                       help="check the L(2,k) families against their "
                       "closed-form cylinder, table, matrix and index values")
    p.add_argument("--n-max", type=int, default=5)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("conjecture", parents=[cosets],
                       help="report monodromy indices for odd-odd L-shapes "
                       "(exploratory; the expected value 3 is unproven)")
    p.add_argument("--reps", type=_int_chunks(2), default=[(3, 3), (3, 5), (5, 5)])
    p.add_argument("--max-dir-sum", type=int, default=10,
                   help="use twist directions with |p|+|q| up to this bound "
                   "(the generated subgroup only grows with it)")
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # (flag, least, greatest or None) for every bounded integer option
    for flag, low, high in (("cap", 1, None), ("max_dir_sum", 1, MAX_DIR_SUM),
                            ("n_max", 1, None), ("degree", 3, 12)):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if value < low:
            rule = "a positive integer" if low == 1 else "at least %d" % low
        elif high is not None and value > high:
            rule = "at most %d" % high
        else:
            continue
        print("--%s must be %s, got %d" % (flag.replace("_", "-"), rule, value),
              file=sys.stderr)
        return EXIT_USAGE
    # an empty --dirs or --gens would spend the whole coset cap on the
    # trivial group, and an empty --reps would compute nothing
    for flag in ("dirs", "gens", "reps"):
        if getattr(args, flag, None) == []:
            print("--%s must list at least one chunk" % flag, file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, ValueError, OrigamiError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
