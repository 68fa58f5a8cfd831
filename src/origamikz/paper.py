"""The paper's closed-form data for the two L(2, k) families, and its check.

For ``L(2, 2n)`` (odd degree) and ``L(2, 2n+1)`` (even degree),
:func:`family_case` gives the cylinder data in the two twist directions,
the intersection tables of their cores against the basis, the multitwist
matrices and the index they generate; :func:`check_family_case` runs the
pipeline on one member and diffs it against that data.
"""

from .errors import IndexCapExceeded
from .geometry import Direction, decompose
from .homology import HomologyBasis, nontaut_basis
from .monodromy import dehn_twist_action
from .origami import make_l_origami
from .sl2 import Mat2, index_in_sl2


def family_case(n, odd):
    """Closed-form reference data for L(2, 2n) (odd degree) or L(2, 2n+1).

    Tables are keyed by (row, column) labels; rows are the basis curves
    plus the kernel combinations X, Y; entries are exact integers from
    the determinant sign rule.
    """
    if odd:
        return {
            "name": "L(2,%d)" % (2 * n),
            "lshape": (2, 2 * n),
            "dirs": (Direction(n, n + 1), Direction(0, 1)),
            "f_expect": ({2 * n - 1: 1, 2: 1}, {2 * n: 1, 1: 1}),
            "cols": (("r", 2 * n - 1), ("g", 2)),
            "cols2": (("Y1", 1), ("Y2", 2 * n)),
            "table1": {  # against the (n, n+1) cylinders (r, g)
                "X2": (2 * n - 1, 3),
                "X1": (n, 1),
                "X": (-1, 1),
                "Y1": (-(n - 1), -1),
                "Y2": (-((2 * n - 2) * n + 1), -(2 * n - 1)),
                "Y": (-1, 1),
            },
            "table2": {  # against the vertical cylinders (Y1, Y2)
                "X2": (1, 1),
                "X1": (0, 1),
                "X": (1, -1),
                "Y1": (0, 0),
                "Y2": (0, 0),
                "Y": (0, 0),
            },
            "matrices": (Mat2(2, 1, -1, 0), Mat2(1, 0, -1, 1)),
            "index": 1,
        }
    return {
        "name": "L(2,%d)" % (2 * n + 1),
        "lshape": (2, 2 * n + 1),
        "dirs": (Direction(2 * n + 1, 2 * n + 3), Direction(2 * n + 2, 2 * n + 1)),
        "f_expect": ({2 * n: 1, 1: 2}, {2 * n + 1: 1, 1: 1}),
        "cols": (("r", 2 * n), ("g", 1)),
        "cols2": (("m", 2 * n + 1), ("b", 1)),
        "table1": {  # against the (2n+1, 2n+3) cylinders (r, g)
            "X2": (4 * n, 3),
            "X1": (2 * n + 1, 1),
            "X": (-2, 1),
            "Y1": (-(2 * n - 1), -1),
            "Y2": (-((2 * n - 1) * (2 * n + 1) + 2), -2 * n),
            "Y": (-2, 1),
        },
        "table2": {  # against the (2n+2, 2n+1) cylinders (m, b)
            "X2": (4 * n + 1, 1),
            "X1": (2 * n, 1),
            "X": (1, -1),
            "Y1": (-(2 * n + 1), -1),
            "Y2": (-((2 * n + 1) ** 2), -(2 * n + 1)),
            "Y": (0, 0),
        },
        "matrices": (Mat2(3, 2, -2, -1), Mat2(1, 0, -1, 1)),
        "index": 3,
    }


def family_trace_length(n):
    """The largest d * (|p| + |q|) the two cases of ``n`` trace; grows with n."""
    return max((sum(case["lshape"]) - 1) * (abs(d.p) + abs(d.q))
               for case in (family_case(n, True), family_case(n, False))
               for d in case["dirs"])


def check_family_case(n, odd, cap):
    """Run the pipeline on one family member and diff against the data.

    The two twist directions and the two axes of the standard basis are
    each decomposed once; the basis is built from the axis
    decompositions and the twist directions' decompositions are twisted
    as they are.  Returns a JSON-ready report with one entry per check;
    an index check whose coset enumeration ran past ``cap`` fails with
    ``"status": "index-exceeds-cap"``.
    """
    case = family_case(n, odd)
    o = make_l_origami(*case["lshape"])
    checks = []

    def add(name, expected, got):
        checks.append(
            {"check": name, "expected": expected, "got": got,
             "ok": expected == got}
        )

    horizontal, vertical = Direction(1, 0), Direction(0, 1)
    directions = dict.fromkeys((*case["dirs"], horizontal, vertical))
    decs = {d: decompose(o, d) for d in directions}
    twist_decs = [decs[d] for d in case["dirs"]]
    for d, dec, expect in zip(case["dirs"], twist_decs, case["f_expect"]):
        got = {c.f: c.c for c in dec.cylinders}
        add("f/c in direction (%d,%d)" % d.vector, expect, got)

    basis = HomologyBasis(decs[horizontal], decs[vertical])
    nt = nontaut_basis(basis)
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    coeffs = dict(zip(("X1", "X2", "Y1", "Y2", "X", "Y"), (*units, nt.x, nt.y)))

    # the columns are traced cylinder cores, each paired with the traced
    # basis loops once; in the odd family the second twist direction is
    # vertical, so they are the basis curves Y1, Y2 themselves
    for table, cols, dec in (
        ("table1", case["cols"], twist_decs[0]),
        ("table2", case["cols2"], twist_decs[1]),
    ):
        by_f = {c.f: c for c in dec.cylinders}
        col_rows = [basis.omega_against(by_f[f].core) for _, f in cols]
        for row_label, expected in case[table].items():
            got = [sum(a * w for a, w in zip(coeffs[row_label], row))
                   for row in col_rows]
            add("omega(%s, %s/%s) [%s, n=%d]"
                % (row_label, cols[0][0], cols[1][0], table, n),
                list(expected), got)

    gens = [dehn_twist_action(dec, basis) for dec in twist_decs]
    for d, m, expect in zip(case["dirs"], gens, case["matrices"]):
        add("twist matrix (%d,%d)" % d.vector, matrix_json(expect), matrix_json(m))

    try:
        idx = index_in_sl2(gens, cap)
    except IndexCapExceeded:
        idx = None
    add("index", case["index"], idx)
    if idx is None:
        checks[-1]["status"] = "index-exceeds-cap"

    return {
        "case": case["name"],
        "n": n,
        "family": "odd-degree" if odd else "even-degree",
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def matrix_json(m):
    """A matrix as JSON-ready rows ``[[a, b], [c, d]]``."""
    return [list(row) for row in m.rows()]
