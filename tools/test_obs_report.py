#!/usr/bin/env python3
"""Self-test for obs_report.py's statistical gate and collapsed validator.

Encodes the PR's acceptance criteria directly:
  * a bench record with medians inflated 1.5x over the baseline must make
    obs_report exit nonzero with a significance verdict in the output;
  * a self-diff must exit 0;
  * --validate-collapsed must accept the profiler's output grammar and
    reject malformed variants.

Run directly (python3 tools/test_obs_report.py) or via ctest
(obs_report_selftest). Uses only the standard library.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS_DIR))

import obs_report  # noqa: E402


def bench_doc(samples_by_name: dict[str, list[float]], config: dict | None = None) -> dict:
    results = []
    for name, samples in sorted(samples_by_name.items()):
        ordered = sorted(samples)
        mid = len(ordered) // 2
        median = (
            ordered[mid]
            if len(ordered) % 2
            else (ordered[mid - 1] + ordered[mid]) / 2.0
        )
        results.append(
            {
                "name": name,
                "reps": len(samples),
                "median_ns_per_op": median,
                "samples_ns": samples,
            }
        )
    return {"suite": "selftest", "config": config or {}, "results": results}


def run_report(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS_DIR / "obs_report.py"), *args],
        capture_output=True,
        text=True,
    )


class MannWhitneyTest(unittest.TestCase):
    def test_fully_separated_samples_are_significant(self) -> None:
        base = [100.0, 101.0, 102.0, 103.0, 104.0]
        cur = [150.0, 151.0, 152.0, 153.0, 154.0]
        p = obs_report.mann_whitney_p(base, cur)
        # Exact one-sided p for complete separation at 5v5 is 1/C(10,5).
        self.assertAlmostEqual(p, 1.0 / 252.0, places=9)

    def test_identical_samples_are_not_significant(self) -> None:
        samples = [100.0] * 5
        p = obs_report.mann_whitney_p(samples, list(samples))
        self.assertEqual(p, 0.5)

    def test_interleaved_samples_are_not_significant(self) -> None:
        base = [100.0, 110.0, 120.0, 130.0, 140.0]
        cur = [105.0, 115.0, 125.0, 135.0, 145.0]
        p = obs_report.mann_whitney_p(base, cur)
        self.assertGreater(p, 0.05)

    def test_improvement_has_large_p(self) -> None:
        base = [150.0, 151.0, 152.0, 153.0, 154.0]
        cur = [100.0, 101.0, 102.0, 103.0, 104.0]
        p = obs_report.mann_whitney_p(base, cur)
        self.assertGreater(p, 0.99)

    def test_empty_samples_return_none(self) -> None:
        self.assertIsNone(obs_report.mann_whitney_p([], [1.0]))
        self.assertIsNone(obs_report.mann_whitney_p([1.0], []))

    def test_exact_matches_normal_approximation_direction(self) -> None:
        # Large no-tie samples take the normal path; a clear shift must
        # still come out significant there.
        base = [100.0 + 0.1 * i for i in range(25)]
        cur = [130.0 + 0.1 * i for i in range(25)]
        p = obs_report.mann_whitney_p(base, cur)
        self.assertLess(p, 1e-6)
        self.assertGreaterEqual(p, 0.0)
        self.assertFalse(math.isnan(p))


class GatingTest(unittest.TestCase):
    """End-to-end exit-code behaviour through the CLI."""

    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.dir = Path(self.tmp.name)

    def write(self, name: str, doc: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return path

    def test_inflated_record_gates_with_significance_verdict(self) -> None:
        base_samples = {
            "snapshot_build": [1000.0, 1010.0, 990.0, 1005.0, 995.0],
            "dijkstra_pair": [500.0, 505.0, 495.0, 502.0, 498.0],
        }
        inflated = {
            name: [s * 1.5 for s in samples]
            for name, samples in base_samples.items()
        }
        base = self.write("base.json", bench_doc(base_samples))
        cur = self.write("cur.json", bench_doc(inflated))
        proc = run_report([str(base), str(cur)])
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("REGRESSED", proc.stdout)
        self.assertIn("p=", proc.stdout)  # significance verdict in the summary

    def test_self_diff_exits_zero(self) -> None:
        doc = bench_doc({"snapshot_build": [1000.0, 1010.0, 990.0, 1005.0, 995.0]})
        base = self.write("base.json", doc)
        proc = run_report([str(base), str(base)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("no regressions", proc.stdout)

    def test_large_but_insignificant_delta_does_not_gate(self) -> None:
        # Median is 30% up but the distributions overlap heavily: one
        # wild outlier rep should not fail CI.
        base = self.write(
            "base.json",
            bench_doc({"noisy": [100.0, 400.0, 90.0, 410.0, 95.0]}),
        )
        cur = self.write(
            "cur.json",
            bench_doc({"noisy": [130.0, 95.0, 405.0, 100.0, 415.0]}),
        )
        proc = run_report([str(base), str(cur)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("noise?", proc.stdout)

    def test_record_without_samples_is_rejected(self) -> None:
        samples = {"bench": [100.0] * 5}
        without = bench_doc(samples)
        del without["results"][0]["samples_ns"]
        with_samples = self.write("with.json", bench_doc(samples))
        without_samples = self.write("without.json", without)
        # Either side: one stderr line naming the file and the record.
        for args in ([with_samples, without_samples], [without_samples, with_samples]):
            proc = run_report([str(a) for a in args])
            self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
            self.assertEqual(proc.stdout, "")
            self.assertEqual(
                proc.stderr,
                f"obs_report: {without_samples}: bench record 'bench' has no samples_ns\n",
            )

    def test_cross_machine_annotates_and_never_gates(self) -> None:
        base = self.write(
            "base.json",
            bench_doc(
                {"bench": [100.0, 101.0, 102.0, 103.0, 104.0]},
                config={"host_cores": "8", "threads": "8"},
            ),
        )
        cur = self.write(
            "cur.json",
            bench_doc(
                {"bench": [150.0, 151.0, 152.0, 153.0, 154.0]},
                config={"host_cores": "1", "threads": "1"},
            ),
        )
        proc = run_report([str(base), str(cur)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("cross-machine", proc.stdout)
        self.assertNotIn("REGRESSED", proc.stdout)

    def test_machine_header_present(self) -> None:
        doc = bench_doc(
            {"bench": [100.0] * 5}, config={"host_cores": "4", "threads": "2"}
        )
        base = self.write("base.json", doc)
        proc = run_report(["--markdown", str(base), str(base)])
        self.assertEqual(proc.returncode, 0)
        self.assertIn("host_cores=4", proc.stdout)
        self.assertIn("threads=2", proc.stdout)

    def test_alpha_flag_tightens_the_gate(self) -> None:
        base = self.write(
            "base.json",
            bench_doc({"bench": [100.0, 101.0, 102.0, 103.0, 104.0]}),
        )
        cur = self.write(
            "cur.json",
            bench_doc({"bench": [150.0, 151.0, 152.0, 153.0, 154.0]}),
        )
        # p ~= 0.004: gates at the default alpha, passes at alpha=0.001.
        self.assertEqual(run_report([str(base), str(cur)]).returncode, 1)
        proc = run_report(["--alpha", "0.001", str(base), str(cur)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


class ValidateCollapsedTest(unittest.TestCase):
    def check(self, text: str) -> tuple[bool, str]:
        return obs_report.validate_collapsed_text(text)

    def test_valid_profile(self) -> None:
        ok, why = self.check(
            "parallel.run;parallel.worker;snapshot.build 19\n"
            "parallel.run;parallel.worker;snapshot.step 1582\n"
        )
        self.assertTrue(ok, why)

    def test_empty_profile_is_valid(self) -> None:
        self.assertTrue(self.check("")[0])

    def test_rejects_missing_trailing_newline(self) -> None:
        self.assertFalse(self.check("a;b 3")[0])

    def test_rejects_missing_count(self) -> None:
        self.assertFalse(self.check("a;b\n")[0])

    def test_rejects_zero_and_padded_counts(self) -> None:
        self.assertFalse(self.check("a;b 0\n")[0])
        self.assertFalse(self.check("a;b 01\n")[0])

    def test_rejects_empty_frame(self) -> None:
        self.assertFalse(self.check("a;;b 3\n")[0])
        self.assertFalse(self.check(";a 3\n")[0])

    def test_rejects_unsorted_and_duplicate_stacks(self) -> None:
        self.assertFalse(self.check("b 1\na 2\n")[0])
        self.assertFalse(self.check("a 1\na 2\n")[0])

    def test_rejects_space_in_frame(self) -> None:
        self.assertFalse(self.check("a b;c 3\n")[0])

    def test_cli_mode(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.collapsed"
            good.write_text("main;work 7\n")
            bad = Path(tmp) / "bad.collapsed"
            bad.write_text("main;work zero\n")
            self.assertEqual(
                run_report(["--validate-collapsed", str(good)]).returncode, 0
            )
            self.assertEqual(
                run_report(["--validate-collapsed", str(bad)]).returncode, 1
            )


def netstate_line(slot: int, links: list) -> str:
    return json.dumps(
        {
            "schema": "leosim.netstate/1",
            "slot": slot,
            "t": slot * 10.0,
            "counts": [2, 1, 0, 0],
            "nodes": [
                ["sat", 7000.0, 0.0, float(slot)],
                ["sat", 0.0, 7000.0, 0.0],
                ["city", 6371.0, 0.0, 0.0],
            ],
            "links": links,
        }
    )


def netevents_line(slot: int, events: list) -> str:
    return json.dumps(
        {
            "schema": "leosim.netevents/1",
            "slot": slot,
            "t": slot * 10.0,
            "events": events,
        }
    )


class TraceKindTest(unittest.TestCase):
    """load() sniffing and diffing of netstate/netevents JSONL traces."""

    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.dir = Path(self.tmp.name)

    def write(self, name: str, text: str) -> Path:
        path = self.dir / name
        path.write_text(text)
        return path

    def test_load_detects_netstate_jsonl(self) -> None:
        path = self.write(
            "netstate.jsonl",
            netstate_line(0, [[0, 2, 2.1, 20.0, "radio"]]) + "\n"
            + netstate_line(1, [[1, 2, 2.5, 20.0, "radio"]]) + "\n",
        )
        by_slot, kind = obs_report.load(str(path))
        self.assertEqual(kind, "netstate")
        self.assertEqual(sorted(by_slot), [0, 1])
        self.assertEqual(by_slot[1]["links"][0][2], 2.5)

    def test_load_detects_netevents_jsonl(self) -> None:
        path = self.write(
            "netevents.jsonl",
            netevents_line(0, []) + "\n"
            + netevents_line(1, [["link_down", 0, 2]]) + "\n",
        )
        by_slot, kind = obs_report.load(str(path))
        self.assertEqual(kind, "netevents")
        self.assertEqual(by_slot[1]["events"], [["link_down", 0, 2]])

    def test_netstate_self_diff_is_identical_and_exits_zero(self) -> None:
        path = self.write(
            "netstate.jsonl",
            netstate_line(0, [[0, 2, 2.1, 20.0, "radio"]]) + "\n"
            + netstate_line(1, [[1, 2, 2.5, 20.0, "radio"]]) + "\n",
        )
        proc = run_report([str(path), str(path)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("all 2 slots bit-identical", proc.stdout)

    def test_netstate_diff_reports_first_divergence(self) -> None:
        base = self.write(
            "base.jsonl",
            netstate_line(0, [[0, 2, 2.1, 20.0, "radio"]]) + "\n"
            + netstate_line(1, [[1, 2, 2.5, 20.0, "radio"]]) + "\n",
        )
        cur = self.write(
            "cur.jsonl",
            netstate_line(0, [[0, 2, 2.1, 20.0, "radio"]]) + "\n"
            + netstate_line(1, [[1, 2, 9.9, 20.0, "radio"]]) + "\n",
        )
        proc = run_report([str(base), str(cur)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("first divergence at slot 1", proc.stdout)

    def test_netevents_diff_reports_per_slot_churn(self) -> None:
        base = self.write(
            "base.jsonl",
            netevents_line(0, []) + "\n"
            + netevents_line(1, [["link_down", 0, 2],
                                ["link_up", 1, 2, 2.5, 20.0, "radio"],
                                ["weight", 0, 1, 33.5]]) + "\n",
        )
        cur = self.write(
            "cur.jsonl",
            netevents_line(0, []) + "\n"
            + netevents_line(1, [["weight", 0, 1, 34.0]]) + "\n",
        )
        proc = run_report([str(base), str(cur)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("1/1/1", proc.stdout)  # baseline slot-1 up/down/weight
        self.assertIn("0/0/1", proc.stdout)  # current slot-1 churn
        self.assertIn("DIFF", proc.stdout)

    def test_mixed_trace_kinds_are_an_input_error(self) -> None:
        state = self.write("netstate.jsonl", netstate_line(0, []) + "\n")
        events = self.write("netevents.jsonl", netevents_line(0, []) + "\n")
        proc = run_report([str(state), str(events)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("netevents artifact", proc.stderr)

    def test_garbled_file_error_names_file_and_snippet(self) -> None:
        path = self.write("garbled.json", "garbage{{{ not json at all")
        proc = run_report([str(path), str(path)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("garbled.json", proc.stderr)
        self.assertIn("garbage{{{", proc.stderr)

    def test_unknown_shape_error_names_file_and_snippet(self) -> None:
        path = self.write("odd.json", '{"foo": 1}')
        proc = run_report([str(path), str(path)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("odd.json", proc.stderr)
        self.assertIn("foo", proc.stderr)

    def test_former_run_manifest_is_an_unknown_shape(self) -> None:
        # A run-manifest shape (a "run" beside a nested "metrics"
        # object) is no artifact kind, and not a metrics export.
        path = self.write("manifest.json", json.dumps(
            {"run": "latency_study", "metrics": {"counters": {}}}))
        proc = run_report([str(path), str(path)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("manifest.json", proc.stderr)
        self.assertIn("unrecognised artifact shape", proc.stderr)

    def test_trace_line_without_slot_is_an_input_error(self) -> None:
        path = self.write(
            "netstate.jsonl",
            netstate_line(0, []) + "\n" + '{"schema": "leosim.netstate/1"}\n',
        )
        proc = run_report([str(path), str(path)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("without a slot", proc.stderr)
        self.assertIn(":2:", proc.stderr)

    def test_malformed_entries_in_wellshaped_root_exit_two(self) -> None:
        # detect_kind only sniffs top-level keys; a bench artifact whose
        # results rows are garbage must fail with an attributed error,
        # not a bare traceback.
        base = self.write(
            "base.json",
            json.dumps({"suite": "s", "results": [{"name": "x", "samples_ns": [1.0]}]}),
        )
        proc = run_report([str(base), str(base)])
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("malformed bench artifact", proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)



class MetricsKindTest(unittest.TestCase):
    """A MetricsRegistry export is {"counters": {...}} and nothing else."""

    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.dir = Path(self.tmp.name)

    def write(self, name: str, counters: dict[str, int]) -> Path:
        path = self.dir / name
        path.write_text(json.dumps({"counters": counters}))
        return path

    def test_counters_alone_are_a_metrics_artifact(self) -> None:
        self.assertEqual(obs_report.detect_kind({"counters": {}}), "metrics")

    def test_self_diff_reports_identical_counters(self) -> None:
        path = self.write("m.json", {"snapshot.builds": 4})
        proc = run_report([str(path), str(path)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("(all counters identical)", proc.stdout)

    def test_counter_delta_is_informational(self) -> None:
        base = self.write("base.json", {"snapshot.builds": 4})
        cur = self.write("cur.json", {"snapshot.builds": 8})
        proc = run_report([str(base), str(cur)])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("snapshot.builds", proc.stdout)
        self.assertIn("+100", proc.stdout)

if __name__ == "__main__":
    unittest.main()
