#!/usr/bin/env python3
"""Self-test for trace_check.py; wired into ctest as `trace_check_selftest`.

Builds tiny synthetic netstate/netevents traces in a temp dir and
asserts the replayer's full exit-code contract:

  * a consistent trace (hand-computed deltas) replays clean → exit 0;
  * a tampered full-state slot is reported as a divergence → exit 1;
  * a gap in the event stream is a divergence → exit 1;
  * garbled input (broken JSON, wrong schema, duplicate slots) is a
    format error → exit 2, with the filename in the message;
  * an empty netstate (event-only trace, e.g. the handover study) is
    vacuously consistent → exit 0;
  * a field of the wrong type or range (a string endpoint, a 1e999
    coordinate) is a format error → exit 2, and a seeded mutation fuzz
    over every field of a small trace always exits 1 or 2 with one
    output line, never a traceback.

Run directly (python3 tools/test_trace_check.py) or via ctest. Uses
only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS_DIR))

import trace_check  # noqa: E402


def netstate_line(slot, t, counts, nodes, links):
    return json.dumps({
        "schema": trace_check.NETSTATE_SCHEMA,
        "slot": slot,
        "t": t,
        "counts": counts,
        "nodes": nodes,
        "links": links,
    })


def netevents_line(slot, t, events, sat_ecef=None, air_ecef=None):
    doc = {"schema": trace_check.NETEVENTS_SCHEMA, "slot": slot, "t": t}
    if sat_ecef is not None:
        doc["sat_ecef"] = sat_ecef
        doc["air_ecef"] = air_ecef if air_ecef is not None else []
    doc["events"] = events
    return json.dumps(doc)


def valid_trace():
    """Two sats, one city, one relay, one aircraft; two slots.

    Between slots: sat positions move, radio link (0,2) drops, (1,2)
    rises, ISL (0,1) is reweighted, and the aircraft set is replaced —
    every delta class the format defines, computed by hand.
    """
    counts = [2, 1, 1, 1]
    nodes0 = [
        ["sat", 7000.0, 0.0, 0.0],
        ["sat", 0.0, 7000.0, 0.0],
        ["city", 6371.0, 0.0, 0.0],
        ["relay", 0.0, 6371.0, 0.0],
        ["air", 4000.0, 4000.0, 1000.0],
    ]
    links0 = [
        [0, 2, 2.1, 20.0, "radio"],
        [0, 1, 33.0, 100.0, "isl"],
    ]
    nodes1 = [
        ["sat", 6999.0, 100.0, 0.0],
        ["sat", -100.0, 6999.0, 0.0],
        ["city", 6371.0, 0.0, 0.0],
        ["relay", 0.0, 6371.0, 0.0],
        ["air", 4010.0, 3990.0, 1000.0],
    ]
    links1 = [
        [1, 2, 2.5, 20.0, "radio"],
        [0, 1, 33.5, 100.0, "isl"],
    ]
    netstate = "\n".join([
        netstate_line(0, 0.0, counts, nodes0, links0),
        netstate_line(1, 10.0, counts, nodes1, links1),
    ]) + "\n"
    netevents = "\n".join([
        netevents_line(0, 0.0, []),
        netevents_line(
            1, 10.0,
            [["link_down", 0, 2],
             ["link_up", 1, 2, 2.5, 20.0, "radio"],
             ["weight", 0, 1, 33.5],
             ["route_change", 0, 5.0, [0, 1, 2]]],
            sat_ecef=[[6999.0, 100.0, 0.0], [-100.0, 6999.0, 0.0]],
            air_ecef=[[4010.0, 3990.0, 1000.0]]),
    ]) + "\n"
    return netstate, netevents


class TraceCheckTest(unittest.TestCase):
    def run_check(self, netstate, netevents):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "netstate.jsonl").write_text(netstate)
            (d / "netevents.jsonl").write_text(netevents)
            return trace_check.main(["trace_check.py", str(d)])

    def test_consistent_trace_passes(self):
        netstate, netevents = valid_trace()
        self.assertEqual(self.run_check(netstate, netevents), 0)

    def test_tampered_state_is_divergence(self):
        netstate, netevents = valid_trace()
        # Corrupt slot 1's radio delay in the full-state record only;
        # the events still describe the original topology.
        netstate = netstate.replace("2.5", "2.6")
        self.assertEqual(self.run_check(netstate, netevents), 1)

    def test_tampered_position_is_divergence(self):
        netstate, netevents = valid_trace()
        netevents = netevents.replace("6999.0, 100.0", "6999.0, 101.0")
        self.assertEqual(self.run_check(netstate, netevents), 1)

    def test_event_gap_is_divergence(self):
        netstate, netevents = valid_trace()
        # Strip the delta arrays off slot 1 → the replayer has nothing
        # to advance with.
        lines = netevents.strip().split("\n")
        lines[1] = netevents_line(1, 10.0, [])
        self.assertEqual(self.run_check(netstate, "\n".join(lines) + "\n"), 1)

    def test_missing_state_slot_is_divergence(self):
        netstate, netevents = valid_trace()
        three = netstate.strip().split("\n")
        extra = json.loads(three[1])
        extra["slot"] = 3  # slots 0, 1, 3 — slot 2 has no state or delta
        netstate = "\n".join(three + [json.dumps(extra)]) + "\n"
        self.assertEqual(self.run_check(netstate, netevents), 1)

    def test_broken_json_is_format_error(self):
        netstate, netevents = valid_trace()
        self.assertEqual(self.run_check(netstate + "{not json\n", netevents), 2)

    def test_wrong_schema_is_format_error(self):
        netstate, netevents = valid_trace()
        netstate = netstate.replace(trace_check.NETSTATE_SCHEMA, "leosim.bogus/9")
        self.assertEqual(self.run_check(netstate, netevents), 2)

    def test_duplicate_slot_is_format_error(self):
        netstate, netevents = valid_trace()
        first = netstate.strip().split("\n")[0]
        self.assertEqual(self.run_check(netstate + first + "\n", netevents), 2)

    def test_missing_file_is_format_error(self):
        self.assertEqual(
            trace_check.main(["trace_check.py", "/nonexistent/trace/dir"]), 2)

    def test_empty_netstate_is_vacuous_pass(self):
        _, netevents = valid_trace()
        # Event-only trace (the handover study's shape): no keyframes at
        # all, only study events.
        handover_only = netevents_line(
            0, 0.0, [["handover", [], [4, 7]]]) + "\n"
        self.assertEqual(self.run_check("", handover_only), 0)

    def test_single_keyframe_is_vacuous_pass(self):
        netstate, netevents = valid_trace()
        first_state = netstate.strip().split("\n")[0] + "\n"
        first_events = netevents.strip().split("\n")[0] + "\n"
        self.assertEqual(self.run_check(first_state, first_events), 0)

    def test_format_error_names_the_file(self):
        netstate, netevents = valid_trace()
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "netstate.jsonl").write_text(netstate + "{broken\n")
            (d / "netevents.jsonl").write_text(netevents)
            with self.assertRaises(trace_check.TraceFormatError) as ctx:
                trace_check.check_trace(
                    str(d / "netstate.jsonl"), str(d / "netevents.jsonl"))
            self.assertIn("netstate.jsonl", str(ctx.exception))
            self.assertIn("{broken", str(ctx.exception))



def fuzz_base():
    """valid_trace() with one event of every study kind in slot 0, so the
    fuzz reaches each event shape's fields."""
    netstate, netevents = valid_trace()
    lines = netevents.strip().split("\n")
    lines[0] = netevents_line(0, 0.0, [
        ["reachable", 0, 5.0],
        ["unreachable", 1],
        ["handover", [0], [1]],
        ["route_change", 0, 5.0, [2, 0, 1]],
    ])
    return netstate, "\n".join(lines) + "\n"


# Stands for a 1e999 literal, which json.dumps cannot write.
HUGE = "__1e999__"


def leaf_paths(value, prefix=()):
    """Every (path, value) in a parsed line, containers included."""
    yield prefix, value
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from leaf_paths(child, prefix + (key,))


def mutate_line(line, rng):
    """One mutation of a trace line that no valid trace contains: a
    truncated line, a dropped key, a field of the wrong type, a
    non-finite or negative number, an unknown string or an extra array
    entry. Finite numbers are never swapped for other finite numbers,
    which the replay could not always tell apart."""
    if rng.random() < 0.1:
        return line[:rng.randrange(1, len(line))]
    doc = json.loads(line)
    path, value = rng.choice(list(leaf_paths(doc)))
    if not path:
        del doc[rng.choice(sorted(doc))]
        return json.dumps(doc)
    if isinstance(value, bool) or value is None:
        choices = ["x"]
    elif isinstance(value, int):
        choices = ["x", None, True, HUGE, -1, 1.5]
    elif isinstance(value, float):
        choices = ["x", None, True, HUGE, float("nan")]
    elif isinstance(value, str):
        choices = [7, None, "bogus", []]
    else:
        choices = ["x", None, {}, value + ["x"]]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = rng.choice(choices)
    return json.dumps(doc).replace(f'"{HUGE}"', "1e999")


class TraceCheckFuzzTest(unittest.TestCase):
    def run_captured(self, netstate, netevents):
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            (d / "netstate.jsonl").write_text(netstate)
            (d / "netevents.jsonl").write_text(netevents)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = trace_check.main(["trace_check.py", str(d)])
        return code, out.getvalue()

    def test_string_endpoint_is_format_error(self):
        netstate, netevents = valid_trace()
        netevents = netevents.replace('["link_up", 1,', '["link_up", "x",')
        code, out = self.run_captured(netstate, netevents)
        self.assertEqual(code, 2, out)
        self.assertIn("FORMAT ERROR", out)

    def test_infinite_coordinate_is_format_error(self):
        netstate, netevents = valid_trace()
        netevents = netevents.replace("6999.0, 100.0", "1e999, 100.0")
        code, out = self.run_captured(netstate, netevents)
        self.assertEqual(code, 2, out)
        self.assertIn("finite", out)

    def test_seeded_mutations_exit_one_or_two_with_one_line(self):
        base = fuzz_base()
        self.assertEqual(self.run_captured(*base)[0], 0)
        rng = random.Random(20201104)
        for trial in range(400):
            files = [f.strip().split("\n") for f in base]
            lines = rng.choice(files)
            i = rng.randrange(len(lines))
            lines[i] = mutate_line(lines[i], rng)
            netstate, netevents = ("\n".join(f) + "\n" for f in files)
            with self.subTest(trial=trial, line=lines[i]):
                try:
                    code, out = self.run_captured(netstate, netevents)
                except Exception as e:  # a traceback from the CLI
                    self.fail(f"raised {type(e).__name__}: {e}")
                self.assertIn(code, (1, 2), out)
                self.assertEqual(out.count("\n"), 1, out)
                self.assertNotIn("Traceback", out)

if __name__ == "__main__":
    unittest.main(verbosity=2)
