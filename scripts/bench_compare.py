#!/usr/bin/env python3
"""Compare BENCH_*.json records against committed baselines.

CI regression gate: for every baseline record under bench/baselines/ the
current run must provide a matching BENCH_<name>.json whose

  * headline "metrics" object agrees with the baseline within a relative
    tolerance (the benches are deterministic, so drift means the simulation
    changed — a correctness signal, not noise), and
  * "wall_seconds" has not regressed by more than the allowed fraction
    (default 25%) after rescaling by the machine-speed ratio. Every record
    carries "calibration_seconds", the time bench_main takes for a fixed
    workload that calls no project code; the ratio is the median over
    benches of baseline / current calibration time, so a faster change to
    the benches' own code is never mistaken for a faster machine (see
    --wall-tolerance / --no-wall below), and
  * for benches that emit days_per_sec_per_core_t<N>_<workload> families,
    the tN/t1 per-core throughput ratio (parallel efficiency, a
    machine-relative quantity) has not dropped more than the allowed
    fraction below the baseline's ratio (see --scaling-tolerance /
    --no-scaling below), and
  * for benches that emit batch_days_per_sec_w<W> records, the W=8 figure
    is at least --batch-speedup times the baseline's overall scalar
    days_per_sec, rescaled by the machine-speed ratio (see --no-batch), and
  * when the current record also carries an in-run scalar anchor
    (batch_scalar_days_per_sec: the identical replay workload through the
    scalar engine, measured in the same run), the W=8 figure is at least
    --batch-anchor-speedup times that anchor. Both numbers come from one
    process on one machine, so no machine rescaling applies — this is the
    sharp "is batching worth it" gate; the baseline-relative gate above is
    the coarse cross-machine one, and
  * for the serving bench, the daemon must sustain at least the committed
    baseline's count of concurrently-open connections, with its ping p99
    inside --serve-p99-bound-ms (see --no-serve). The sweep ramps to a
    fixed target, so the count is a capacity measure, not a rate, and no
    machine rescaling applies.

Baselines recorded on a single-core machine carry
"hardware_concurrency": 1; the parallel-efficiency gate skips (loudly)
rather than failing healthy multi-core runs against ratios that machine
could never express.

Exit status is non-zero on any failure. A summary table is printed to
stdout and, when the GITHUB_STEP_SUMMARY environment variable points at a
file, appended there as a Markdown table.

Refreshing baselines after an intentional change:

  1. Download the `bench-json` artifact from a green CI run on main
     (or regenerate locally: `<bench> --quick --threads 2 --out ...`).
  2. Copy the BENCH_*.json files over bench/baselines/.
  3. Commit them together with the change that moved the numbers, and say
     why in the commit message.

Usage:
  bench_compare.py BASELINE_DIR CURRENT_DIR [--wall-tolerance F]
                   [--metric-rtol F] [--no-wall]
                   [--scaling-tolerance F] [--no-scaling]
"""

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

# Metric keys with a time-unit token (dp_solve_ms_L16, rl_us_per_day) are
# measurements, not simulation outputs: they move with the machine, so they
# are exempt from the strict drift check and only gated — like wall time —
# by the machine-ratio-scaled budget in main().
TIMING_METRIC = re.compile(r"(^|_)(ns|us|ms|sec|seconds)(_|$)")

# Speedup metrics (batch_speedup_w8) are ratios of two timings from the
# same run: machine-relative but still noisy between runs, so they are
# exempt from the strict drift check like the raw timings they divide.
SPEEDUP_METRIC = re.compile(r"(^|_)speedup(_|$)")

# Throughput-rate metrics (serve_households_per_core, intervals_per_sec)
# are measurements like the timing metrics: they move with the machine, so
# they are exempt from the strict drift check and covered by the wall
# budget. (days_per_sec families are already exempt via the "sec" token.)
THROUGHPUT_METRIC = re.compile(r"(^|_)per_(sec|core)(_|$)")

# Lockstep-batch throughput records emitted by micro_engine
# (batch_days_per_sec_w8). The W=8 figure is gated against the committed
# scalar baseline: the batch engine must keep a multiple of the scalar
# per-day rate or the SoA path has stopped paying for itself.
BATCH_METRIC = re.compile(r"^batch_days_per_sec_w(\d+)$")

# Per-core throughput metrics emitted by the scaling benches
# (days_per_sec_per_core_t8_h10000). Absolute values move with the machine,
# but the RATIO between the tN and t1 figure of the same workload is a
# machine-relative measure of parallel efficiency — comparing that ratio
# against the baseline's catches scaling regressions (lock contention,
# false sharing, serialization) without pinning absolute speed.
PER_CORE_METRIC = re.compile(r"^days_per_sec_per_core_t(\d+)_(.+)$")


def per_core_scales(metrics: dict) -> dict:
    """Maps workload suffix -> {threads: per-core throughput ratio vs t1}
    for every days_per_sec_per_core_t<N>_<suffix> family with a t1 anchor."""
    families = {}
    for key, value in metrics.items():
        match = PER_CORE_METRIC.match(key)
        if match:
            families.setdefault(match.group(2), {})[int(match.group(1))] = (
                float(value)
            )
    scales = {}
    for suffix, by_threads in families.items():
        anchor = by_threads.get(1, 0.0)
        if anchor <= 0.0:
            continue
        scales[suffix] = {
            threads: value / anchor
            for threads, value in by_threads.items()
            if threads != 1 and value > 0.0
        }
    return scales


def compare_scaling(name: str, base: dict, cur: dict, tolerance: float):
    """Gates parallel efficiency: the current tN/t1 per-core ratio must not
    fall more than `tolerance` below the baseline's ratio for the same
    workload. Returns (failures, info_lines)."""
    failures, info = [], []
    # A baseline recorded on a single-core machine cannot express parallel
    # scaling: every tN/t1 ratio in it is ~1/N noise, and gating against it
    # would fail any healthy multi-core run. Skip loudly instead.
    base_hw = base.get("hardware_concurrency")
    if base_hw is not None and int(base_hw) <= 1:
        info.append(
            f"{name}: SKIPPED scaling gate — committed baseline was "
            f"recorded on a single-core machine "
            f"(hardware_concurrency={base_hw})"
        )
        return failures, info
    base_scales = per_core_scales(base.get("metrics", {}))
    cur_scales = per_core_scales(cur.get("metrics", {}))
    for suffix in sorted(base_scales):
        for threads in sorted(base_scales[suffix]):
            base_scale = base_scales[suffix][threads]
            cur_scale = cur_scales.get(suffix, {}).get(threads)
            if cur_scale is None:
                failures.append(
                    f"{name}: scaling ratio t{threads}/t1 for '{suffix}' "
                    f"missing from current run"
                )
                continue
            floor = base_scale * (1.0 - tolerance)
            status = "ok" if cur_scale >= floor else "FAIL"
            info.append(
                f"{name} {suffix}: t{threads}/t1 per-core scale "
                f"{cur_scale:.2f} (baseline {base_scale:.2f}, floor "
                f"{floor:.2f}) {status}"
            )
            if cur_scale < floor:
                failures.append(
                    f"{name}: parallel efficiency regressed for '{suffix}': "
                    f"t{threads}/t1 per-core scale {cur_scale:.2f} vs "
                    f"baseline {base_scale:.2f} (floor {floor:.2f}, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures, info


def compare_batch(name: str, base: dict, cur: dict, min_speedup: float,
                  machine_speedup: float, min_anchor_speedup: float):
    """Gates lockstep-batch throughput two ways. Cross-machine: the current
    batch_days_per_sec_w8 must be at least `min_speedup` times the committed
    baseline's overall scalar day-loop rate (the scalar_days_per_sec metric;
    the record-level days_per_sec is the fallback for old records), rescaled
    to this machine's speed. In-run: when the current record carries a
    batch_scalar_days_per_sec anchor (the same replay workload through the
    scalar engine, same run, same machine), the W=8 figure must be at least
    `min_anchor_speedup` times that anchor — no rescaling, because both
    numbers share the run. Other widths are reported but not gated. Returns
    (failures, info_lines)."""
    failures, info = [], []
    scalar = float(
        base.get("metrics", {}).get(
            "scalar_days_per_sec", base.get("days_per_sec", 0.0)
        )
    )
    anchor = float(cur.get("metrics", {}).get("batch_scalar_days_per_sec", 0.0))
    if (scalar <= 0.0 or machine_speedup <= 0.0) and anchor <= 0.0:
        return failures, info
    for key in sorted(cur.get("metrics", {})):
        match = BATCH_METRIC.match(key)
        if not match:
            continue
        width = int(match.group(1))
        batch = float(cur["metrics"][key])
        gated = width == 8
        if scalar > 0.0 and machine_speedup > 0.0:
            floor = min_speedup * scalar * machine_speedup
            ratio = batch / (scalar * machine_speedup)
            status = "ok" if batch >= floor else ("FAIL" if gated else "info")
            info.append(
                f"{name} W={width}: batch {batch:.0f} days/s = {ratio:.2f}x "
                f"the scalar baseline ({scalar:.0f} x machine "
                f"{machine_speedup:.2f}x; floor {min_speedup:.1f}x) {status}"
            )
            if gated and batch < floor:
                failures.append(
                    f"{name}: batch throughput below floor: '{key}' = "
                    f"{batch:.0f} days/s, need >= {min_speedup:.1f}x the "
                    f"baseline scalar rate ({floor:.0f} days/s on this "
                    f"machine)"
                )
        if anchor > 0.0:
            anchor_ratio = batch / anchor
            anchor_ok = anchor_ratio >= min_anchor_speedup
            status = "ok" if anchor_ok else ("FAIL" if gated else "info")
            info.append(
                f"{name} W={width}: batch {batch:.0f} days/s = "
                f"{anchor_ratio:.2f}x the in-run scalar anchor "
                f"({anchor:.0f} days/s; floor {min_anchor_speedup:.1f}x) "
                f"{status}"
            )
            if gated and not anchor_ok:
                failures.append(
                    f"{name}: batch throughput below the in-run anchor "
                    f"floor: '{key}' = {batch:.0f} days/s is only "
                    f"{anchor_ratio:.2f}x the same-run scalar rate "
                    f"({anchor:.0f} days/s), need >= "
                    f"{min_anchor_speedup:.1f}x"
                )
    return failures, info


def compare_serve(name: str, base: dict, cur: dict, p99_bound_ms: float):
    """Gates the serving-path capacity claim: the current run's
    serve_conns_sustained_eventloop must be at least the committed
    baseline's, with its ping p99 (serve_conn_p99_ms_eventloop) inside
    `p99_bound_ms` — "the committed connection count at bounded p99".
    Records without the metric in the baseline are skipped. Returns
    (failures, info_lines)."""
    failures, info = [], []
    floor = float(base.get("metrics", {}).get(
        "serve_conns_sustained_eventloop", 0.0))
    if floor <= 0.0:
        return failures, info
    metrics = cur.get("metrics", {})
    conns = float(metrics.get("serve_conns_sustained_eventloop", 0.0))
    p99 = float(metrics.get("serve_conn_p99_ms_eventloop", 0.0))
    conns_ok = conns >= floor
    p99_ok = p99 <= p99_bound_ms
    info.append(
        f"{name}: daemon sustains {conns:.0f} conns (baseline floor "
        f"{floor:.0f}) at ping p99 {p99:.3f} ms (bound {p99_bound_ms:.0f} "
        f"ms) {'ok' if (conns_ok and p99_ok) else 'FAIL'}"
    )
    if not conns_ok:
        failures.append(
            f"{name}: serve capacity below floor: daemon sustained "
            f"{conns:.0f} conns, the committed baseline sustained "
            f"{floor:.0f}"
        )
    if not p99_ok:
        failures.append(
            f"{name}: serve capacity p99 over bound: ping p99 {p99:.3f} ms "
            f"exceeds {p99_bound_ms:.0f} ms — the sustained-connection "
            f"count does not hold at bounded latency"
        )
    return failures, info


def machine_speed_ratio(baselines: dict, currents: dict):
    """How much faster the current machine is than the baseline machine:
    the median over benches of baseline / current calibration_seconds. The
    calibration workload calls no project code, so a code speedup leaves
    the ratio alone. Returns (ratio, number of benches it rests on); 1.0
    when no pair of records carries a calibration timing."""
    ratios = []
    for name, base in baselines.items():
        cur = currents.get(name)
        if cur is None:
            continue
        b = float(base.get("calibration_seconds", 0.0))
        c = float(cur.get("calibration_seconds", 0.0))
        if b > 0.0 and c > 0.0:
            ratios.append(b / c)
    ratios.sort()
    if not ratios:
        return 1.0, 0
    return ratios[len(ratios) // 2], len(ratios)


def load_records(directory: Path, problems: list) -> dict:
    """Loads every BENCH_*.json in `directory`; unreadable or malformed
    files become failure strings in `problems` instead of tracebacks."""
    records = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"{path}: unreadable BENCH record ({error})")
            continue
        if not isinstance(record, dict):
            problems.append(f"{path}: BENCH record is not a JSON object")
            continue
        records[record.get("bench", path.stem)] = record
    return records


def close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)


def compare_metrics(name: str, base: dict, cur: dict, rtol: float) -> list:
    """Returns a list of failure strings for one bench's metrics object."""
    failures = []
    base_metrics = base.get("metrics", {})
    cur_metrics = cur.get("metrics", {})
    for key in sorted(base_metrics):
        if key not in cur_metrics:
            failures.append(f"{name}: metric '{key}' missing from current run")
            continue
        if (TIMING_METRIC.search(key) or SPEEDUP_METRIC.search(key)
                or THROUGHPUT_METRIC.search(key)):
            continue  # machine measurement: gated by the wall budget instead
        b, c = base_metrics[key], cur_metrics[key]
        if not close(float(b), float(c), rtol):
            failures.append(
                f"{name}: metric '{key}' drifted: baseline {b!r} vs "
                f"current {c!r} (rtol {rtol})"
            )
    for key in sorted(set(cur_metrics) - set(base_metrics)):
        failures.append(
            f"{name}: new metric '{key}' not in baseline "
            f"(refresh bench/baselines/ to accept it)"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline_dir", type=Path)
    parser.add_argument("current_dir", type=Path)
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.25,
        help="allowed fractional wall_seconds regression (default 0.25)",
    )
    parser.add_argument(
        "--metric-rtol",
        type=float,
        default=0.10,
        help="relative tolerance for headline metric drift (default 0.10)",
    )
    parser.add_argument(
        "--no-wall",
        action="store_true",
        help="skip the wall-clock comparison (metrics only)",
    )
    parser.add_argument(
        "--scaling-tolerance",
        type=float,
        default=0.35,
        help="allowed fractional drop in tN/t1 per-core throughput ratio "
        "vs the baseline's ratio (default 0.35)",
    )
    parser.add_argument(
        "--no-scaling",
        action="store_true",
        help="skip the parallel-efficiency comparison",
    )
    parser.add_argument(
        "--batch-speedup",
        type=float,
        default=2.0,
        help="required batch_days_per_sec_w8 multiple of the baseline's "
        "scalar days_per_sec, machine-ratio scaled (default 2.0)",
    )
    parser.add_argument(
        "--batch-anchor-speedup",
        type=float,
        default=1.2,
        help="required batch_days_per_sec_w8 multiple of the same run's "
        "batch_scalar_days_per_sec anchor, unscaled (default 1.2)",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="skip the lockstep-batch throughput comparison",
    )
    parser.add_argument(
        "--serve-p99-bound-ms",
        type=float,
        default=250.0,
        help="daemon ping p99 ceiling for the sustained-connection "
        "claim, in milliseconds (default 250)",
    )
    parser.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the serving-path capacity comparison",
    )
    args = parser.parse_args()

    failures = []
    baselines = load_records(args.baseline_dir, failures)
    currents = load_records(args.current_dir, failures)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline_dir}")
        return 2

    # A current record with no committed counterpart cannot be gated, which
    # silently exempts exactly the benches most likely to regress (the new
    # ones). Fail loudly instead, with the command that creates the baseline.
    unbaselined = sorted(set(currents) - set(baselines))
    for name in unbaselined:
        failures.append(
            f"{name}: missing baseline — run the bench and commit "
            f"{args.baseline_dir}/BENCH_{name}.json (e.g. copy it from "
            f"this run's bench-json artifact)"
        )

    machine_speedup, calibrated = machine_speed_ratio(baselines, currents)

    rows = []
    scaling_lines = []
    batch_lines = []
    serve_lines = []
    for name in unbaselined:
        rows.append((name, "NO BASELINE", "-", "-"))
    for name, base in sorted(baselines.items()):
        cur = currents.get(name)
        if cur is None:
            failures.append(f"{name}: no current BENCH record (bench removed?)")
            rows.append((name, "MISSING", "-", "-"))
            continue

        failures.extend(compare_metrics(name, base, cur, args.metric_rtol))
        if not args.no_scaling:
            scaling_failures, info = compare_scaling(
                name, base, cur, args.scaling_tolerance
            )
            failures.extend(scaling_failures)
            scaling_lines.extend(info)
        if not args.no_batch:
            batch_failures, info = compare_batch(
                name, base, cur, args.batch_speedup, machine_speedup,
                args.batch_anchor_speedup
            )
            failures.extend(batch_failures)
            batch_lines.extend(info)
        if not args.no_serve:
            serve_failures, info = compare_serve(
                name, base, cur, args.serve_p99_bound_ms
            )
            failures.extend(serve_failures)
            serve_lines.extend(info)

        base_wall = float(base.get("wall_seconds", 0.0))
        cur_wall = float(cur.get("wall_seconds", 0.0))
        # Budget in current-machine seconds: baseline wall rescaled by the
        # overall machine ratio, plus the allowed regression fraction.
        budget = (
            base_wall / machine_speedup * (1.0 + args.wall_tolerance)
            if machine_speedup > 0.0
            else float("inf")
        )
        wall_ok = args.no_wall or base_wall <= 0.0 or cur_wall <= budget
        if not wall_ok:
            failures.append(
                f"{name}: wall_seconds regressed: {cur_wall:.3f}s vs budget "
                f"{budget:.3f}s (baseline {base_wall:.3f}s, machine ratio "
                f"{machine_speedup:.2f}x, tolerance "
                f"{args.wall_tolerance:.0%})"
            )
        metrics_ok = not any(f.startswith(f"{name}: metric") or
                             f.startswith(f"{name}: new metric")
                             for f in failures)
        scaling_ok = not any(f.startswith(f"{name}: parallel efficiency") or
                             f.startswith(f"{name}: scaling ratio")
                             for f in failures)
        batch_ok = not any(f.startswith(f"{name}: batch throughput")
                           for f in failures)
        serve_ok = not any(f.startswith(f"{name}: serve")
                           for f in failures)
        rows.append(
            (
                name,
                "ok" if (wall_ok and metrics_ok and scaling_ok and batch_ok
                         and serve_ok)
                else "FAIL",
                f"{base_wall:.3f}s -> {cur_wall:.3f}s",
                "ok" if metrics_ok else "drift",
            )
        )

    header = ("bench", "status", "wall", "metrics")
    widths = [
        max(len(str(row[i])) for row in rows + [header]) for i in range(4)
    ]
    print(f"bench_compare: machine speed ratio {machine_speedup:.2f}x "
          f"(current vs baseline, median calibration ratio of "
          f"{calibrated} benches)")
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    if scaling_lines:
        print("\nparallel efficiency (tN/t1 per-core throughput ratios):")
        for line in scaling_lines:
            print(f"  {line}")
    if batch_lines:
        print("\nlockstep-batch throughput (vs scalar baseline):")
        for line in batch_lines:
            print(f"  {line}")
    if serve_lines:
        print("\nserving-path capacity (vs committed baseline):")
        for line in serve_lines:
            print(f"  {line}")

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as summary:
            summary.write("## Bench regression gate\n\n")
            summary.write(
                f"Machine speed ratio: {machine_speedup:.2f}x, wall "
                f"tolerance {args.wall_tolerance:.0%}, metric rtol "
                f"{args.metric_rtol}\n\n"
            )
            summary.write("| " + " | ".join(header) + " |\n")
            summary.write("|" + "---|" * 4 + "\n")
            for row in rows:
                summary.write("| " + " | ".join(str(c) for c in row) + " |\n")
            if scaling_lines:
                summary.write(
                    "\n**Parallel efficiency** (tN/t1 per-core ratio, "
                    f"tolerance {args.scaling_tolerance:.0%})\n\n"
                )
                for line in scaling_lines:
                    summary.write(f"- {line}\n")
            if batch_lines:
                summary.write(
                    "\n**Lockstep-batch throughput** (W=8 gated at "
                    f"{args.batch_speedup:.1f}x the scalar baseline and "
                    f"{args.batch_anchor_speedup:.1f}x the in-run scalar "
                    "anchor)\n\n"
                )
                for line in batch_lines:
                    summary.write(f"- {line}\n")
            if serve_lines:
                summary.write(
                    "\n**Serving-path capacity** (sustained connections "
                    "gated at the committed baseline's count under "
                    f"{args.serve_p99_bound_ms:.0f} ms ping p99)\n\n"
                )
                for line in serve_lines:
                    summary.write(f"- {line}\n")
            if unbaselined:
                summary.write(
                    "\n**Benches skipped by the gate (no committed "
                    "baseline)**\n\n"
                )
                for name in unbaselined:
                    summary.write(
                        f"- `{name}` — commit "
                        f"`{args.baseline_dir}/BENCH_{name}.json`\n"
                    )
            if failures:
                summary.write("\n**Failures**\n\n")
                for failure in failures:
                    summary.write(f"- {failure}\n")
                summary.write(
                    "\nTo refresh baselines after an intentional change: "
                    "download the `bench-json` artifact from a green main "
                    "run, copy its BENCH_*.json over `bench/baselines/`, "
                    "and commit them with the change.\n"
                )

    if failures:
        print("\nbench_compare: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nIf the change is intentional, refresh bench/baselines/ "
            "(see the module docstring) and commit the new records."
        )
        return 1
    print("\nbench_compare: all benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
