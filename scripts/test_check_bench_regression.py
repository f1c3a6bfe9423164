#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (run by CI and ctest).

The checker is the perf gate for every BENCH_*.json record; the cases here
pin its failure modes — above all that a missing baseline key FAILS with a
clear message instead of being silently skipped, which is how a regression
in a newly-added metric would otherwise slip through forever.
"""

import importlib.util
import json
import pathlib
import sys
import tempfile
import unittest

SCRIPT = pathlib.Path(__file__).resolve().parent / "check_bench_regression.py"
spec = importlib.util.spec_from_file_location("checker", SCRIPT)
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)


def micro_record(extra_metrics=None):
    metrics = {
        checker.CALIBRATION_METRIC: 100.0,
        "snapshot_revert_speedup_10k": 10.0,
        "root_commit_speedup_8dirty": 5.0,
        "BM_RootCommit_real_time": 1000.0,
    }
    metrics.update(extra_metrics or {})
    return {"metrics": metrics, "params": {}}


class SpeedupFloorTest(unittest.TestCase):
    def test_passes_at_floor(self):
        self.assertTrue(checker.check_speedup_floors(micro_record()))

    def test_fails_below_floor(self):
        rec = micro_record({"snapshot_revert_speedup_10k": 1.0})
        self.assertFalse(checker.check_speedup_floors(rec))

    def test_fails_on_missing_metric(self):
        rec = micro_record()
        del rec["metrics"]["root_commit_speedup_8dirty"]
        self.assertFalse(checker.check_speedup_floors(rec))


class TimingTest(unittest.TestCase):
    def test_equal_timings_pass(self):
        self.assertTrue(
            checker.check_timings(micro_record(), micro_record(), 0.25))

    def test_slowdown_beyond_tolerance_fails(self):
        cur = micro_record({"BM_RootCommit_real_time": 2000.0})
        self.assertFalse(checker.check_timings(cur, micro_record(), 0.25))

    def test_calibration_normalizes_slow_machine(self):
        # 3x slower across the board INCLUDING the calibration metric:
        # the machine is just slower, not a regression
        cur = micro_record({
            checker.CALIBRATION_METRIC: 300.0,
            "BM_RootCommit_real_time": 3000.0,
        })
        self.assertTrue(checker.check_timings(cur, micro_record(), 0.25))

    def test_metric_missing_from_current_fails(self):
        cur = micro_record()
        del cur["metrics"]["BM_RootCommit_real_time"]
        self.assertFalse(checker.check_timings(cur, micro_record(), 0.25))

    def test_missing_baseline_key_fails_not_skips(self):
        # the satellite fix: a metric the current run emits but the
        # baseline lacks must FAIL (forcing a baseline regeneration), not
        # be silently ungated
        cur = micro_record({"BM_BrandNew_real_time": 50.0})
        self.assertFalse(checker.check_timings(cur, micro_record(), 0.25))

    def test_missing_calibration_fails(self):
        cur = micro_record()
        del cur["metrics"][checker.CALIBRATION_METRIC]
        self.assertFalse(checker.check_timings(cur, micro_record(), 0.25))


class BuildTypeTest(unittest.TestCase):
    def test_matching_build_types_pass(self):
        rec = {"build_type": "Release"}
        self.assertTrue(checker.check_build_type(rec, dict(rec), "r"))

    def test_differing_build_types_fail(self):
        self.assertFalse(checker.check_build_type(
            {"build_type": "RelWithDebInfo"}, {"build_type": "Release"}, "r"))

    def test_unrecorded_build_type_passes_with_note(self):
        # records from before the field existed keep today's behaviour
        stamped, bare = {"build_type": "Release"}, {}
        self.assertTrue(checker.check_build_type(stamped, bare, "r"))
        self.assertTrue(checker.check_build_type(bare, stamped, "r"))
        self.assertTrue(checker.check_build_type(bare, bare, "r"))


class CorrectnessTest(unittest.TestCase):
    def record(self, passed, total, all_passed=True):
        return {
            "metrics": {"checks_passed": passed, "checks_total": total},
            "params": {"all_passed": all_passed},
        }

    def test_all_checks_pass(self):
        self.assertTrue(
            checker.check_correctness(self.record(3, 3), self.record(3, 3),
                                      "r"))

    def test_failed_check_fails(self):
        self.assertFalse(
            checker.check_correctness(self.record(2, 3), self.record(3, 3),
                                      "r"))

    def test_all_passed_flag_false_fails(self):
        self.assertFalse(
            checker.check_correctness(self.record(3, 3, all_passed=False),
                                      self.record(3, 3), "r"))

    def test_record_without_checks_passes_when_baseline_has_none(self):
        bare = {"metrics": {}, "params": {}}
        self.assertTrue(checker.check_correctness(bare, bare, "r"))

    def test_dropped_checks_fail_when_baseline_had_them(self):
        # the satellite fix: losing the embedded checks is a dropped gate,
        # not a pass
        bare = {"metrics": {}, "params": {}}
        self.assertFalse(checker.check_correctness(bare, self.record(3, 3),
                                                   "r"))


class EndToEndTest(unittest.TestCase):
    def run_main(self, write_records):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            cur_dir, base_dir = tmp / "cur", tmp / "base"
            cur_dir.mkdir()
            base_dir.mkdir()
            write_records(cur_dir, base_dir)
            argv = sys.argv
            sys.argv = ["check_bench_regression.py", "--current",
                        str(cur_dir), "--baseline", str(base_dir)]
            try:
                return checker.main()
            finally:
                sys.argv = argv

    def write_all(self, cur_dir, base_dir, mutate=None):
        for name in checker.RECORDS:
            if name == "BENCH_micro_primitives.json":
                cur, base = micro_record(), micro_record()
            else:
                rec = {"metrics": {"checks_passed": 2, "checks_total": 2},
                       "params": {"all_passed": True}}
                cur, base = json.loads(json.dumps(rec)), rec
            if mutate:
                mutate(name, cur)
            (cur_dir / name).write_text(json.dumps(cur))
            (base_dir / name).write_text(json.dumps(base))

    def test_green_run_exits_zero(self):
        self.assertEqual(
            self.run_main(lambda c, b: self.write_all(c, b)), 0)

    def test_missing_record_file_exits_nonzero(self):
        def write(cur_dir, base_dir):
            self.write_all(cur_dir, base_dir)
            (cur_dir / checker.RECORDS[-1]).unlink()
        self.assertEqual(self.run_main(write), 1)

    def test_build_type_mismatch_exits_nonzero(self):
        def write(cur_dir, base_dir):
            self.write_all(cur_dir, base_dir)
            for directory, build_type in ((cur_dir, "RelWithDebInfo"),
                                          (base_dir, "Release")):
                path = directory / "BENCH_micro_primitives.json"
                rec = json.loads(path.read_text())
                rec["build_type"] = build_type
                path.write_text(json.dumps(rec))
        self.assertEqual(self.run_main(write), 1)

    def test_unstamped_baseline_exits_zero(self):
        def mutate(name, cur):
            cur["build_type"] = "Release"
        self.assertEqual(
            self.run_main(lambda c, b: self.write_all(c, b, mutate)), 0)

    def test_failed_embedded_check_exits_nonzero(self):
        def mutate(name, cur):
            if name == "BENCH_matrix.json":
                cur["metrics"]["checks_passed"] = 1
        self.assertEqual(
            self.run_main(lambda c, b: self.write_all(c, b, mutate)), 1)


if __name__ == "__main__":
    unittest.main()
