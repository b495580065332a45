#!/usr/bin/env python3
"""Self-tests for the bench regression gate (scripts/bench_compare.py).

The gate is the only thing standing between a perf/correctness regression
and a green checkmark, so its failure modes are pinned here: a bench
without a committed baseline must fail (not silently skip), metric drift
must respect the rtol and the timing/speedup/throughput exemptions, the
wall budget must rescale with the machine-speed ratio read off the
records' calibration timings (and not with the benches' own throughput),
and the
parallel-efficiency, batch-throughput and serving-capacity gates must bite.

Run directly (CI lint job): python3 scripts/bench_compare_test.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"


def record(name, wall=1.0, days_per_sec=1000.0, metrics=None,
           calibration=0.01):
    """A minimal valid BENCH record."""
    return {
        "bench": name,
        "threads": 2,
        "wall_seconds": wall,
        "cells": 10,
        "cells_per_sec": 10.0,
        "simulated_days": 100,
        "days_per_sec": days_per_sec,
        "calibration_seconds": calibration,
        "metrics": metrics or {},
    }


class GateHarness(unittest.TestCase):
    """Writes baseline/current trees into a tempdir and runs the gate."""

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.baseline_dir = root / "baselines"
        self.current_dir = root / "current"
        self.baseline_dir.mkdir()
        self.current_dir.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, rec):
        path = directory / f"BENCH_{rec['bench']}.json"
        path.write_text(json.dumps(rec))

    def run_gate(self, *extra_args):
        result = subprocess.run(
            [sys.executable, str(SCRIPT), str(self.baseline_dir),
             str(self.current_dir), *extra_args],
            capture_output=True,
            text=True,
        )
        return result.returncode, result.stdout + result.stderr


class IdenticalRecordsTest(GateHarness):
    def test_identical_records_pass(self):
        rec = record("alpha", metrics={"sr_mean": 0.25, "steps_us": 12.0})
        self.write(self.baseline_dir, rec)
        self.write(self.current_dir, rec)
        code, out = self.run_gate()
        self.assertEqual(code, 0, out)
        self.assertIn("all benches within tolerance", out)


class MissingRecordTest(GateHarness):
    def test_unbaselined_current_bench_fails(self):
        rec = record("alpha")
        self.write(self.baseline_dir, rec)
        self.write(self.current_dir, rec)
        self.write(self.current_dir, record("newbench"))
        code, out = self.run_gate()
        self.assertNotEqual(code, 0)
        self.assertIn("missing baseline", out)
        self.assertIn("BENCH_newbench.json", out)

    def test_missing_current_record_fails(self):
        self.write(self.baseline_dir, record("alpha"))
        code, out = self.run_gate()
        self.assertNotEqual(code, 0)
        self.assertIn("no current BENCH record", out)

    def test_empty_baseline_dir_errors(self):
        self.write(self.current_dir, record("alpha"))
        code, out = self.run_gate()
        self.assertEqual(code, 2)
        self.assertIn("no BENCH_*.json baselines", out)


class MetricDriftTest(GateHarness):
    def test_drift_beyond_rtol_fails(self):
        self.write(self.baseline_dir, record("alpha", metrics={"sr": 0.50}))
        self.write(self.current_dir, record("alpha", metrics={"sr": 0.60}))
        code, out = self.run_gate("--metric-rtol", "0.10", "--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("drifted", out)

    def test_drift_within_rtol_passes(self):
        self.write(self.baseline_dir, record("alpha", metrics={"sr": 0.50}))
        self.write(self.current_dir, record("alpha", metrics={"sr": 0.52}))
        code, out = self.run_gate("--metric-rtol", "0.10", "--no-wall")
        self.assertEqual(code, 0, out)

    def test_new_metric_without_baseline_fails(self):
        self.write(self.baseline_dir, record("alpha", metrics={"sr": 0.5}))
        self.write(
            self.current_dir, record("alpha", metrics={"sr": 0.5, "cc": 0.1})
        )
        code, out = self.run_gate("--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("new metric", out)

    def test_measurement_keys_exempt_from_drift(self):
        # Timing (_us/_ms), speedup ratios, and per_sec/per_core throughput
        # rates move with the machine; only true simulation outputs are
        # strictly gated.
        base = record(
            "serve",
            metrics={
                "step_latency_p99_us": 10.0,
                "dp_solve_ms_L16": 5.0,
                "batch_speedup_w8": 3.0,
                "serve_households_per_core": 100.0,
                "serve_intervals_per_sec": 50000.0,
            },
        )
        cur = record(
            "serve",
            metrics={
                "step_latency_p99_us": 900.0,
                "dp_solve_ms_L16": 500.0,
                "batch_speedup_w8": 0.3,
                "serve_households_per_core": 2.0,
                "serve_intervals_per_sec": 400.0,
            },
        )
        self.write(self.baseline_dir, base)
        self.write(self.current_dir, cur)
        code, out = self.run_gate("--no-wall")
        self.assertEqual(code, 0, out)


class WallBudgetTest(GateHarness):
    def seed_peers(self, ratio):
        """Three well-behaved benches on a machine `ratio` times as fast as
        the baseline machine (calibration time divided by `ratio`)."""
        for name in ("peer1", "peer2", "peer3"):
            self.write(
                self.baseline_dir, record(name, wall=1.0, days_per_sec=1000.0)
            )
            self.write(
                self.current_dir,
                record(name, wall=1.0 / ratio, days_per_sec=1000.0 * ratio,
                       calibration=0.01 / ratio),
            )

    def test_budget_rescales_on_slower_machine(self):
        # Machine is 0.5x: every wall doubles. A bench whose wall doubled
        # too is within the rescaled budget (2.0 <= 1.0 / 0.5 * 1.25).
        self.seed_peers(0.5)
        self.write(
            self.baseline_dir, record("alpha", wall=1.0, days_per_sec=1000.0)
        )
        self.write(
            self.current_dir,
            record("alpha", wall=2.0, days_per_sec=500.0, calibration=0.02),
        )
        code, out = self.run_gate("--wall-tolerance", "0.25")
        self.assertEqual(code, 0, out)
        self.assertIn("machine speed ratio 0.50x", out)

    def test_relative_wall_regression_still_fails(self):
        # Same slow machine, but this bench regressed beyond its rescaled
        # budget (2.6 > 2.5): the peers prove the machine is only 2x slower.
        self.seed_peers(0.5)
        self.write(
            self.baseline_dir, record("alpha", wall=1.0, days_per_sec=1000.0)
        )
        self.write(
            self.current_dir,
            record("alpha", wall=2.6, days_per_sec=500.0, calibration=0.02),
        )
        code, out = self.run_gate("--wall-tolerance", "0.25")
        self.assertNotEqual(code, 0)
        self.assertIn("wall_seconds regressed", out)

    def test_code_speedup_is_not_machine_speed(self):
        # The peers' own code got 1.4x faster on an unchanged machine (equal
        # calibration). The ratio stays 1.00x, so a bench whose wall does
        # not fall with throughput keeps its full budget.
        for name in ("peer1", "peer2", "peer3"):
            self.write(
                self.baseline_dir, record(name, wall=1.0, days_per_sec=1000.0)
            )
            self.write(
                self.current_dir,
                record(name, wall=1.0 / 1.4, days_per_sec=1400.0),
            )
        self.write(
            self.baseline_dir, record("micro", wall=1.0, days_per_sec=0.0)
        )
        self.write(
            self.current_dir, record("micro", wall=1.1, days_per_sec=0.0)
        )
        code, out = self.run_gate("--wall-tolerance", "0.25")
        self.assertEqual(code, 0, out)
        self.assertIn("machine speed ratio 1.00x", out)

    def test_slower_calibration_scales_budgets_without_throughput(self):
        # A 2x slower calibration doubles every budget even when no record
        # reports a throughput (days_per_sec 0), and a bench beyond its
        # doubled budget still fails.
        for name in ("peer1", "peer2", "peer3"):
            self.write(
                self.baseline_dir, record(name, wall=1.0, days_per_sec=0.0)
            )
            self.write(
                self.current_dir,
                record(name, wall=2.0, days_per_sec=0.0, calibration=0.02),
            )
        self.write(
            self.baseline_dir, record("slow", wall=1.0, days_per_sec=0.0)
        )
        self.write(
            self.current_dir,
            record("slow", wall=2.6, days_per_sec=0.0, calibration=0.02),
        )
        code, out = self.run_gate("--wall-tolerance", "0.25")
        self.assertNotEqual(code, 0)
        self.assertIn("machine speed ratio 0.50x", out)
        self.assertIn("slow: wall_seconds regressed", out)
        self.assertNotIn("peer1: wall_seconds regressed", out)

    def test_no_wall_skips_the_budget(self):
        self.seed_peers(0.5)
        self.write(self.baseline_dir, record("alpha", wall=1.0))
        self.write(self.current_dir, record("alpha", wall=50.0))
        code, out = self.run_gate("--no-wall")
        self.assertEqual(code, 0, out)


class ScalingGateTest(GateHarness):
    def scaling_record(self, t1, t8):
        return record(
            "fleet",
            metrics={
                "days_per_sec_per_core_t1_h1000": t1,
                "days_per_sec_per_core_t8_h1000": t8,
            },
        )

    def test_efficiency_drop_beyond_tolerance_fails(self):
        # Baseline t8/t1 ratio 0.50; current 0.20 < floor 0.50 * (1-0.35).
        self.write(self.baseline_dir, self.scaling_record(100.0, 50.0))
        self.write(self.current_dir, self.scaling_record(100.0, 20.0))
        code, out = self.run_gate("--no-wall", "--scaling-tolerance", "0.35")
        self.assertNotEqual(code, 0)
        self.assertIn("parallel efficiency regressed", out)

    def test_efficiency_within_tolerance_passes(self):
        self.write(self.baseline_dir, self.scaling_record(100.0, 50.0))
        self.write(self.current_dir, self.scaling_record(100.0, 40.0))
        code, out = self.run_gate("--no-wall", "--scaling-tolerance", "0.35")
        self.assertEqual(code, 0, out)

    def test_missing_scaling_family_fails(self):
        self.write(self.baseline_dir, self.scaling_record(100.0, 50.0))
        self.write(
            self.current_dir,
            record("fleet",
                   metrics={"days_per_sec_per_core_t1_h1000": 100.0}),
        )
        code, out = self.run_gate("--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("scaling ratio", out)

    def test_no_scaling_skips_the_gate(self):
        self.write(self.baseline_dir, self.scaling_record(100.0, 50.0))
        self.write(self.current_dir, self.scaling_record(100.0, 5.0))
        code, out = self.run_gate("--no-wall", "--no-scaling")
        self.assertEqual(code, 0, out)

    def test_single_core_baseline_skips_loudly(self):
        # A baseline recorded on a single-core machine cannot express
        # parallel scaling; the gate must skip it (with a visible line)
        # instead of failing a healthy multi-core run.
        base = self.scaling_record(100.0, 12.0)
        base["hardware_concurrency"] = 1
        self.write(self.baseline_dir, base)
        self.write(self.current_dir, self.scaling_record(100.0, 50.0))
        code, out = self.run_gate("--no-wall")
        self.assertEqual(code, 0, out)
        self.assertIn("SKIPPED scaling gate", out)

    def test_multi_core_baseline_still_gates(self):
        base = self.scaling_record(100.0, 50.0)
        base["hardware_concurrency"] = 8
        self.write(self.baseline_dir, base)
        self.write(self.current_dir, self.scaling_record(100.0, 20.0))
        code, out = self.run_gate("--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("parallel efficiency regressed", out)


class BatchGateTest(GateHarness):
    def test_batch_below_speedup_floor_fails(self):
        self.write(
            self.baseline_dir,
            record(
                "engine",
                metrics={
                    "scalar_days_per_sec": 1000.0,
                    "batch_days_per_sec_w8": 2500.0,
                },
            ),
        )
        self.write(
            self.current_dir,
            record(
                "engine",
                metrics={
                    "scalar_days_per_sec": 1000.0,
                    "batch_days_per_sec_w8": 1500.0,
                },
            ),
        )
        code, out = self.run_gate("--no-wall", "--batch-speedup", "2.0")
        self.assertNotEqual(code, 0)
        self.assertIn("batch throughput below floor", out)

    def test_batch_above_floor_passes(self):
        self.write(
            self.baseline_dir,
            record(
                "engine",
                metrics={
                    "scalar_days_per_sec": 1000.0,
                    "batch_days_per_sec_w8": 2500.0,
                },
            ),
        )
        self.write(
            self.current_dir,
            record(
                "engine",
                metrics={
                    "scalar_days_per_sec": 1000.0,
                    "batch_days_per_sec_w8": 2500.0,
                },
            ),
        )
        code, out = self.run_gate("--no-wall", "--batch-speedup", "2.0")
        self.assertEqual(code, 0, out)

    def test_batch_below_in_run_anchor_fails(self):
        # The cross-machine floor passes (2.5x the committed scalar rate),
        # but the same-run anchor says batching is slower than scalar.
        rec_base = record(
            "engine",
            metrics={
                "scalar_days_per_sec": 1000.0,
                "batch_days_per_sec_w8": 2500.0,
            },
        )
        rec_cur = record(
            "engine",
            metrics={
                "scalar_days_per_sec": 1000.0,
                "batch_scalar_days_per_sec": 3000.0,
                "batch_days_per_sec_w8": 2500.0,
            },
        )
        self.write(self.baseline_dir, rec_base)
        self.write(self.current_dir, rec_cur)
        code, out = self.run_gate("--no-wall", "--batch-speedup", "2.0",
                                  "--batch-anchor-speedup", "1.2")
        self.assertNotEqual(code, 0)
        self.assertIn("in-run anchor floor", out)

    def test_batch_above_in_run_anchor_passes(self):
        rec = record(
            "engine",
            metrics={
                "scalar_days_per_sec": 1000.0,
                "batch_scalar_days_per_sec": 2000.0,
                "batch_days_per_sec_w8": 2500.0,
            },
        )
        self.write(self.baseline_dir, rec)
        self.write(self.current_dir, rec)
        code, out = self.run_gate("--no-wall", "--batch-speedup", "2.0",
                                  "--batch-anchor-speedup", "1.2")
        self.assertEqual(code, 0, out)
        self.assertIn("in-run scalar anchor", out)


class ServeGateTest(GateHarness):
    def serve_record(self, conns=512.0, p99=0.05):
        rec = record(
            "serve",
            metrics={
                "serve_conns_sustained_eventloop": conns,
                "serve_conn_p99_ms_eventloop": p99,
            },
        )
        rec["hardware_concurrency"] = 4
        return rec

    def test_healthy_serve_record_passes(self):
        rec = self.serve_record()
        self.write(self.baseline_dir, rec)
        self.write(self.current_dir, rec)
        code, out = self.run_gate("--no-wall")
        self.assertEqual(code, 0, out)
        self.assertIn("sustains 512 conns (baseline floor 512)", out)

    def test_conns_below_baseline_fail(self):
        self.write(self.baseline_dir, self.serve_record())
        self.write(self.current_dir, self.serve_record(conns=480.0))
        code, out = self.run_gate("--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("serve capacity below floor", out)

    def test_conn_p99_over_bound_fails(self):
        # The committed count, but the latency claim behind it no longer
        # holds.
        self.write(self.baseline_dir, self.serve_record())
        self.write(self.current_dir, self.serve_record(p99=400.0))
        code, out = self.run_gate("--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("serve capacity p99 over bound", out)

    def test_custom_p99_bound_applies(self):
        self.write(self.baseline_dir, self.serve_record())
        self.write(self.current_dir, self.serve_record(p99=400.0))
        code, out = self.run_gate("--no-wall", "--serve-p99-bound-ms", "500")
        self.assertEqual(code, 0, out)

    def test_no_serve_skips_the_gate(self):
        self.write(self.baseline_dir, self.serve_record())
        self.write(self.current_dir, self.serve_record(p99=400.0))
        code, out = self.run_gate("--no-wall", "--no-serve")
        self.assertEqual(code, 0, out)


class MalformedInputTest(GateHarness):
    def test_unreadable_record_fails_not_crashes(self):
        rec = record("alpha")
        self.write(self.baseline_dir, rec)
        self.write(self.current_dir, rec)
        (self.current_dir / "BENCH_broken.json").write_text("{not json")
        code, out = self.run_gate("--no-wall")
        self.assertNotEqual(code, 0)
        self.assertIn("unreadable BENCH record", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
