"""Benchmark of the origamikz command line.

    python3 bench/run.py --workload census|orbit|monodromy --seed N \\
        --seconds S --trace 0|1

The package is imported from ``src`` beside this directory.  A workload is a
list of CLI invocations, run in this process through
``origamikz.cli.main(argv)`` with stdout captured: a closed loop with one
client and no threads.  Passes over the list repeat until the next one
would overrun ``--seconds`` (at least one pass runs).  Every report is
checked against :mod:`oracles`; an invocation that exits nonzero, prints
no JSON or disagrees with an oracle counts as failed.

Before each pass the package is imported afresh, so that no module-level
state carries from one pass to the next, as none carries from one command
line invocation to the next.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end,
measured untraced: ``wall_s`` (median seconds of a pass), ``setup_s``
(median of several cold imports of the package plus input generation) and
``peak_rss_mb``.  Times are scaled to a reference machine speed measured
alongside them (see :mod:`calibrate`).  With ``--trace 1`` the untraced
passes are followed by one traced pass and the metrics are per layer (see
:mod:`tracer`), in unscaled seconds; its spans go to
``.bench_work/spans-<workload>.csv``.  The line before the result records
the seed, the machine and every raw sample.
"""

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracles
from calibrate import calibration_s, speed_factor
from tracer import LAYER_NAMES, PACKAGE, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7

CENSUS_DEGREES = (7, 8, 9)
# L(2, 20) has odd degree 21, L(2, 21) even degree 22
ORBIT_SHAPES = ((2, 20), (2, 21))
VERIFY_N_MAX = 10
CONJECTURE_MAX_DIR_SUM = 14
CONJECTURE_REPS = ((3, 3), (3, 5), (5, 5))  # the CLI's default --reps

COMMANDS = ("census", "orbit", "verify-paper", "conjecture")
ROOTS = tuple("cli." + c for c in COMMANDS)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units():
    units = {}
    for name in LAYER_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units["origami.canonical_form.useful_ratio"] = "ratio"
    units["homology.intersections_per_express"] = "ratio"
    for root in ROOTS:
        units[root + ".s"] = "s"
    units["cli.unattributed_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()


# ---------------------------------------------------------------------------
# workloads: each returns a list of (argv, check) with check(report) -> errors
# ---------------------------------------------------------------------------

def _census_ops(seed):
    return [
        (["census", "--degree", str(d)],
         lambda rep, d=d: oracles.check_census(d, rep))
        for d in CENSUS_DEGREES
    ]


def _l_shape_text(a, b, rng):
    """L(a, b) in the CLI's text format, squares relabelled at random."""
    d = a + b - 1
    labels = list(range(1, d + 1))
    rng.shuffle(labels)
    h_cycle = [labels[i - 1] for i in range(1, a + 1)]
    v_cycle = [labels[i - 1] for i in [1] + list(range(a + 1, d + 1))]
    return "d=%d\nh=(%s)\nv=(%s)\n" % (
        d, " ".join(map(str, h_cycle)), " ".join(map(str, v_cycle)))


def _orbit_ops(seed):
    rng = random.Random(seed)
    ops = []
    for a, b in ORBIT_SHAPES:
        path = WORK / ("orbit-L%d_%d.txt" % (a, b))
        path.write_text(_l_shape_text(a, b, rng))
        d = a + b - 1
        ops.append((["orbit", str(path)],
                    lambda rep, d=d: oracles.check_orbit(d, rep)))
    return ops


def _monodromy_ops(seed):
    return [
        (["verify-paper", "--n-max", str(VERIFY_N_MAX)],
         lambda rep: oracles.check_verify_paper(VERIFY_N_MAX, rep)),
        (["conjecture", "--max-dir-sum", str(CONJECTURE_MAX_DIR_SUM)],
         lambda rep: oracles.check_conjecture(
             CONJECTURE_REPS, oracles.CONJECTURE_DIRECTIONS_AT_14, rep)),
    ]


WORKLOADS = {
    "census": _census_ops,
    "orbit": _orbit_ops,
    "monodromy": _monodromy_ops,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import origamikz.cli\n"
    "print(time.perf_counter() - t)\n"
)


def cold_import_s():
    """Seconds to import the package's CLI in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def fresh_cli():
    """Drop every loaded origamikz module and import the CLI again."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    cli = importlib.import_module(PACKAGE + ".cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError("%s was imported from %s, not from %s"
                          % (PACKAGE, cli.__file__, SRC))
    return cli


def run_op(cli, op, tracer=None):
    """Run one invocation; return (seconds in main, list of errors)."""
    argv, check = op
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli." + argv[0]) if tracer else nullcontext()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), span:
            rc = cli.main(list(argv))
    except Exception:
        return perf_counter() - t0, ["raised:\n" + traceback.format_exc()]
    dt = perf_counter() - t0
    if rc != 0:
        return dt, ["exit code %r: %s" % (rc, err.getvalue().strip())]
    try:
        rep = json.loads(out.getvalue())
    except ValueError as exc:
        return dt, ["report is not JSON: %s" % exc]
    return dt, check(rep)


def run_pass(ops, loops, tracer=None):
    """One pass over the ops; return (seconds in ``main``, number failed).

    A calibration loop is timed before the first op and after each op, and
    appended to ``loops``.
    """
    cli = fresh_cli()
    failed = 0
    wall = 0.0
    loops.append(calibration_s())
    if tracer:
        tracer.install()
    try:
        for op in ops:
            dt, errors = run_op(cli, op, tracer)
            loops.append(calibration_s())
            wall += dt
            if errors:
                failed += 1
                print("FAILED %s: %s" % (" ".join(op[0]), "; ".join(errors)),
                      file=sys.stderr)
    finally:
        if tracer:
            tracer.restore()
    return wall, failed


def measure_setup(workload, seed, loops):
    """Set up SETUP_REPEATS times; return the ops and the seconds of each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        import_s = cold_import_s()
        t0 = perf_counter()
        ops = WORKLOADS[workload](seed)
        samples.append(import_s + perf_counter() - t0)
        loops.append(calibration_s())
    return ops, samples


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / PACKAGE / "cli.py").is_file():
        print("bench: no %s package under %s" % (PACKAGE, SRC), file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    setup_loops, loops = [], []
    ops, setup = measure_setup(args.workload, args.seed, setup_loops)

    sys.path.insert(0, str(SRC))
    walls = []
    attempted = failed = 0
    started = perf_counter()
    while True:
        wall, n_failed = run_pass(ops, loops)
        walls.append(wall)
        attempted += len(ops)
        failed += n_failed
        elapsed = perf_counter() - started
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "pass_raw_s": walls,
        "setup_raw_s": setup,
    }
    if args.trace:
        tracer = Tracer()
        traced_wall, n_failed = run_pass(ops, loops, tracer)
        attempted += len(ops)
        failed += n_failed
        values = tracer.summary(ROOTS)
        express = values["homology.express_in_basis.calls"]
        values["homology.intersections_per_express"] = (
            values["homology.intersection_number.calls"] / express
            if express else 0.0)
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        spans = WORK / ("spans-%s.csv" % args.workload)
        tracer.write(spans)
        info["traced_raw_s"] = traced_wall
        info["spans"] = str(spans.relative_to(ROOT))
        metrics = {k: _metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(walls) * speed_factor(loops),
            "setup_s": statistics.median(setup) * speed_factor(setup_loops),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    info["setup_loop_s"] = setup_loops
    info["loop_s"] = loops

    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
