#!/usr/bin/env python3
"""End-to-end acceptance test for the trace export; ctest `trace_replay`.

Runs `leosim_cli trace` for a >= 60-slot, 10-second-spacing sweep in
both connectivity modes (bent-pipe and +Grid hybrid), then proves the
replay invariant *from the files alone* with tools/trace_check.py:
applying each slot's event batch over the slot-0 keyframe must
reproduce every subsequent full-state slot bit-identically. Each
mode's two files must also keep their recorded md5s: the trace bytes
are a stable artifact, and an encoder change must not move them.

Usage: test_trace_replay.py /path/to/leosim_cli

Uses a coarse relay spacing so the two sweeps stay test-sized; the
invariant under test is spacing-independent.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS_DIR))

import trace_check  # noqa: E402

SNAPSHOTS = 60  # schedule endpoint is exclusive: slots 0..59
STEP_SEC = 10

# md5 of each file at this script's arguments, per mode.
RECORDED_MD5 = {
    "bent-pipe": {"netstate.jsonl": "4ddf2bad8c33f5fd3b1cc45e0da23f74",
                  "netevents.jsonl": "716ac6b8e351a967e35710eb162a1570"},
    "hybrid": {"netstate.jsonl": "6bb36940ad4638151cc672dc0e7dec5d",
               "netevents.jsonl": "c62de6b436f14ecedabdddb060813646"},
}


def run_mode(cli: str, out_dir: Path, mode_flag: list[str], label: str) -> int:
    proc = subprocess.run(
        [cli, "trace", f"--pairs=5", f"--snapshots={SNAPSHOTS}",
         f"--step={STEP_SEC}", "--spacing=6", f"--out={out_dir}", *mode_flag],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"FAIL: {label}: leosim_cli trace exited "
              f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
        return 1
    if "replay validated" not in proc.stdout:
        print(f"FAIL: {label}: in-process validation line missing from:"
              f"\n{proc.stdout}")
        return 1

    netstate = out_dir / "netstate.jsonl"
    netevents = out_dir / "netevents.jsonl"
    for path in (netstate, netevents):
        digest = hashlib.md5(path.read_bytes()).hexdigest()
        if digest != RECORDED_MD5[label][path.name]:
            print(f"FAIL: {label}: {path.name} md5 {digest}, recorded "
                  f"{RECORDED_MD5[label][path.name]}")
            return 1
    state_lines = sum(1 for l in netstate.read_text().splitlines() if l.strip())
    if state_lines < SNAPSHOTS:
        print(f"FAIL: {label}: only {state_lines} netstate slots "
              f"(want >= {SNAPSHOTS})")
        return 1

    try:
        checked, message = trace_check.check_trace(str(netstate), str(netevents))
    except (trace_check.TraceFormatError, trace_check.ReplayDivergence) as err:
        print(f"FAIL: {label}: trace_check: {err}")
        return 1
    if checked < SNAPSHOTS - 1:  # every slot after the keyframe
        print(f"FAIL: {label}: trace_check replayed only {checked} slots")
        return 1
    print(f"ok: {label}: {state_lines} slots, {message}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cli = argv[1]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        failures += run_mode(cli, Path(tmp) / "bp", ["--bp"], "bent-pipe")
        failures += run_mode(cli, Path(tmp) / "hybrid", [], "hybrid")
    if failures:
        print(f"{failures} mode(s) failed")
        return 1
    print("trace replay end-to-end: both modes bit-consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
