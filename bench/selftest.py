"""Self-test of the benchmark: oracles, failure counting and the tracer.

    python3 bench/selftest.py

Runs small CLI invocations (a few seconds in all), never the workloads.
"""

import sys

sys.dont_write_bytecode = True

import contextlib
import copy
import io
import json
import random
import unittest

import oracles
import run
from tracer import LAYERS, Tracer

# `origamikz census --degree d` on the seed code, d = 3..10
SEED_COUNTS = {3: 3, 4: 9, 5: 27, 6: 36, 7: 90, 8: 108, 9: 189, 10: 216}
SEED_ORBIT_SIZES = {
    3: [3], 4: [9], 5: [9, 18], 6: [36], 7: [36, 54], 8: [108],
    9: [81, 108], 10: [216],
}
# `origamikz orbit` on L(2, 20) and L(2, 21), by degree
SEED_L_ORBIT_SIZES = {21: 1440, 22: 2700}


def _small_orbit_op(a, b, check):
    path = run.WORK / "selftest-orbit.txt"
    path.write_text(run._l_shape_text(a, b, random.Random(0)))
    return (["orbit", str(path)], check)


def _quiet_pass(ops, tracer=None):
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run_pass(ops, [], tracer)[1]


class OracleTest(unittest.TestCase):
    def test_census_counts_match_seed(self):
        for d, count in SEED_COUNTS.items():
            self.assertEqual(oracles.h2_count(d), count, d)

    def test_orbit_split_matches_seed(self):
        for d, sizes in SEED_ORBIT_SIZES.items():
            self.assertEqual(oracles.h2_orbit_sizes(d), sizes, d)
            self.assertEqual(sum(sizes), SEED_COUNTS[d], d)

    def test_l_orbit_sizes_match_seed(self):
        for d, size in SEED_L_ORBIT_SIZES.items():
            self.assertEqual(oracles.l_orbit_size(d), size, d)


class FailureCountingTest(unittest.TestCase):
    """Each checker passes a genuine report and fails a corrupted copy."""

    def _assert_catches(self, argv, check, corrupt):
        def corrupted(rep):
            rep = copy.deepcopy(rep)
            corrupt(rep)
            return check(rep)

        self.assertEqual(_quiet_pass([(argv, check)]), 0)
        self.assertEqual(_quiet_pass([(argv, corrupted)]), 1)

    def test_census(self):
        def corrupt(rep):
            rep["count"] += 1
        self._assert_catches(["census", "--degree", "5"],
                             lambda rep: oracles.check_census(5, rep), corrupt)

    def test_census_orbit_membership(self):
        def corrupt(rep):
            a, b = rep["orbits"]
            a["l_shapes"], b["l_shapes"] = b["l_shapes"], a["l_shapes"]
        self._assert_catches(["census", "--degree", "5"],
                             lambda rep: oracles.check_census(5, rep), corrupt)

    def test_orbit(self):
        def corrupt(rep):
            rep["size"] -= 1
        argv, check = _small_orbit_op(
            2, 6, lambda rep: oracles.check_orbit(7, rep))
        self._assert_catches(argv, check, corrupt)

    def test_verify_paper(self):
        def corrupt(rep):
            case = rep["cases"][1]
            twist = next(c for c in case["checks"]
                         if c["check"].startswith("twist matrix"))
            twist["got"] = [[1, 1], [0, 1]]
        self._assert_catches(
            ["verify-paper", "--n-max", "1"],
            lambda rep: oracles.check_verify_paper(1, rep), corrupt)

    def test_conjecture(self):
        def corrupt(rep):
            rep["cases"][0]["index"] = 1
        self._assert_catches(
            ["conjecture", "--reps", "3,3",
             "--max-dir-sum", str(run.CONJECTURE_MAX_DIR_SUM)],
            lambda rep: oracles.check_conjecture(
                [(3, 3)], oracles.CONJECTURE_DIRECTIONS_AT_14, rep),
            corrupt)

    def test_nonzero_exit(self):
        self.assertEqual(
            _quiet_pass([(["census", "--degree", "2"], lambda rep: [])]),
            1)


class TracerTest(unittest.TestCase):
    def test_every_binding_wrapped_and_restored(self):
        cli = run.fresh_cli()
        tracer = Tracer()
        tracer.install()
        try:
            patched = tracer.patched()
            wrapped = {(getattr(owner, "__name__", ""), key)
                       for owner, key, _ in patched}
            for owner, key, original in patched:
                self.assertIsNot(getattr(owner, key), original)
        finally:
            tracer.restore()
        for owner, key, original in patched:
            self.assertIs(getattr(owner, key), original, (owner, key))
        # copies made by `from .x import y` are reached too
        for binding in (("origamikz.census", "canonical_form"),
                        ("origamikz.cli", "canonical_form"),
                        ("origamikz.homology", "decompose"),
                        ("origamikz.monodromy", "decompose"),
                        ("origamikz.cli", "decompose"),
                        ("Perm", "__init__"),
                        ("Origami", "__init__")):
            self.assertIn(binding, wrapped)
        self.assertGreaterEqual(len(patched), len(LAYERS))
        self.assertIs(cli.canonical_form, sys.modules["origamikz.origami"].canonical_form)

    def test_traced_orbit_reaches_call_sites(self):
        tracer = Tracer()
        op = _small_orbit_op(2, 6, lambda rep: oracles.check_orbit(7, rep))
        self.assertEqual(_quiet_pass([op], tracer), 0)
        summary = tracer.summary(run.ROOTS)
        self.assertGreater(summary["origami.canonical_form.calls"], 0)
        self.assertGreater(summary["origami.act_letter.calls"], 0)
        self.assertGreater(summary["origami.Perm.calls"], 0)
        self.assertTrue(0 < summary["origami.canonical_form.useful_ratio"] <= 1)
        self.assertGreater(summary["cli.orbit.s"], summary["cli.unattributed_s"])
        self.assertEqual(tracer.patched(), [])


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            run.PER_LAYER_UNITS)
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    run.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    unittest.main()
