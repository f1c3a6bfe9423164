#!/usr/bin/env python3
"""CI perf smoke: compare BENCH_*.json records against checked-in baselines.

Usage:
    check_bench_regression.py --current DIR --baseline DIR [--tolerance 0.25]

Checks, in order of robustness:

1.  Machine-independent speedup floors. The state-engine benchmarks emit
    intra-process ratios (journaled vs whole-copy snapshot/revert,
    incremental vs full-rebuild root commit); the host cancels out of a
    ratio, so these are hard floors, not tolerances.

2.  Calibration-normalized timings. Absolute nanoseconds differ between the
    baseline machine and the CI runner, so every *_real_time metric is
    first divided by the machine's own BM_Keccak256/32 time (a fixed,
    dependency-free workload) and only then compared against the baseline
    with the regression tolerance. Only slowdowns fail; speedups pass.

3.  Correctness flags. Figure benches embed their paper-shape checks
    (checks_passed / checks_total / all_passed); a perf run that breaks the
    physics fails here even if it got faster.

Before any of these, each record's "build_type" (the CMake build type the
bench was compiled under) must match its baseline's: -O2 and -O3 builds
differ by several times on some kernels, so a cross-build comparison
measures the flags, not the code. Records written before the field existed
are compared as before, with a note.

Exit status: 0 = all good, 1 = regression or missing data.
"""

import argparse
import json
import pathlib
import sys

CALIBRATION_METRIC = "BM_Keccak256/32_real_time"

# metric -> minimum acceptable value (see bench/micro_primitives.cpp)
SPEEDUP_FLOORS = {
    "snapshot_revert_speedup_10k": 5.0,
    "root_commit_speedup_8dirty": 3.0,
}

# wall_seconds is dominated by benchmark-framework iteration choices and
# sub-second figure runs; catastrophic slowdowns still show up in the
# normalized *_real_time metrics.
SKIPPED_METRICS = {"wall_seconds"}

RECORDS = [
    "BENCH_micro_primitives.json",
    "BENCH_fig1_short_term.json",
    "BENCH_ablate_adversary.json",
    "BENCH_ablate_recovery.json",
    "BENCH_matrix.json",
    "BENCH_ablate_topology.json",
    "BENCH_ablate_geo.json",
    "BENCH_ablate_parallel.json",
    "BENCH_ablate_clients.json",
    "BENCH_ablate_eclipse.json",
]

# Absolute slack (ns) added to every timing limit: benchmarks that resolve
# to a cache hit (e.g. the trie's memoized root_hash) run in ~1-2 ns, where
# a 25% *relative* band is narrower than timer noise. Five nanoseconds is
# invisible at real-workload scale but keeps noise-floor metrics stable —
# while a broken memo (ns -> us) still fails by orders of magnitude.
ABSOLUTE_SLACK_NS = 5.0


def load(directory: pathlib.Path, name: str):
    path = directory / name
    if not path.is_file():
        print(f"FAIL  missing record: {path}")
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_build_type(current: dict, baseline: dict, name: str) -> bool:
    cur, base = current.get("build_type"), baseline.get("build_type")
    if cur is None or base is None:
        print(f"note  {name}: build_type not recorded (current {cur!r}, "
              f"baseline {base!r}); comparing anyway")
        return True
    if cur != base:
        print(f"FAIL  {name}: build_type {cur!r} vs baseline {base!r} — "
              f"timings from different build types are not comparable")
        return False
    print(f"ok    {name}: build_type {cur}")
    return True


def check_speedup_floors(current: dict) -> bool:
    ok = True
    metrics = current.get("metrics", {})
    for name, floor in SPEEDUP_FLOORS.items():
        value = metrics.get(name)
        if value is None:
            print(f"FAIL  {name}: metric missing")
            ok = False
        elif value < floor:
            print(f"FAIL  {name}: {value:.1f}x < required {floor:.1f}x")
            ok = False
        else:
            print(f"ok    {name}: {value:.1f}x (floor {floor:.1f}x)")
    return ok


def check_timings(current: dict, baseline: dict, tolerance: float) -> bool:
    cur = current.get("metrics", {})
    base = baseline.get("metrics", {})
    cal_cur = cur.get(CALIBRATION_METRIC)
    cal_base = base.get(CALIBRATION_METRIC)
    if not cal_cur or not cal_base:
        print(f"FAIL  calibration metric {CALIBRATION_METRIC} missing")
        return False
    scale = cal_cur / cal_base  # >1: this machine is slower than baseline's

    ok = True
    for name, base_value in sorted(base.items()):
        if not name.endswith("_real_time") or name in SKIPPED_METRICS:
            continue
        if name == CALIBRATION_METRIC:
            continue
        cur_value = cur.get(name)
        if cur_value is None:
            print(f"FAIL  {name}: missing from current run")
            ok = False
            continue
        normalized = cur_value / scale
        limit = base_value * (1.0 + tolerance) + ABSOLUTE_SLACK_NS
        verdict = "ok  " if normalized <= limit else "FAIL"
        print(f"{verdict}  {name}: {normalized:.0f} vs baseline "
              f"{base_value:.0f} (+{tolerance:.0%} limit {limit:.0f})")
        if normalized > limit:
            ok = False
    # a metric the current run emits but the baseline lacks would otherwise
    # be silently ungated forever — fail loudly so the baseline gets
    # regenerated when a benchmark grows a new timing
    for name in sorted(cur):
        if (not name.endswith("_real_time") or name in SKIPPED_METRICS
                or name == CALIBRATION_METRIC):
            continue
        if name not in base:
            print(f"FAIL  {name}: baseline key missing — regenerate the "
                  f"baseline record to gate this new metric")
            ok = False
    return ok


def check_correctness(current: dict, baseline: dict, name: str) -> bool:
    metrics = current.get("metrics", {})
    params = current.get("params", {})
    total = metrics.get("checks_total")
    passed = metrics.get("checks_passed")
    if total is None:  # record carries no embedded checks
        if baseline.get("metrics", {}).get("checks_total") is not None:
            # the baseline proves this record used to embed checks; a
            # current run without them is a silently-dropped gate
            print(f"FAIL  {name}: checks_total missing from current run "
                  f"but present in baseline — the embedded correctness "
                  f"checks were dropped")
            return False
        return True
    if passed == total and params.get("all_passed", True):
        print(f"ok    {name}: {int(passed)}/{int(total)} checks passed")
        return True
    print(f"FAIL  {name}: {passed}/{total} checks passed")
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True, type=pathlib.Path,
                    help="directory holding this run's BENCH_*.json")
    ap.add_argument("--baseline", required=True, type=pathlib.Path,
                    help="directory holding the checked-in baselines")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed slowdown after calibration (default 0.25)")
    args = ap.parse_args()

    ok = True
    records = {}
    for name in RECORDS:
        cur = load(args.current, name)
        base = load(args.baseline, name)
        if cur is None or base is None:
            ok = False
            continue
        ok &= check_build_type(cur, base, name)
        records[name] = (cur, base)

    micro = records.get("BENCH_micro_primitives.json")
    if micro:
        cur, base = micro
        ok &= check_speedup_floors(cur)
        ok &= check_timings(cur, base, args.tolerance)

    for name, (cur, base) in records.items():
        ok &= check_correctness(cur, base, name)

    print("perf smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
