#!/usr/bin/env python3
"""Command-line failure contract of the bench and example binaries; ctest
`cli_contract`.

Every binary parses its flags through src/core/cli_flags.hpp and runs
under core::RunMain, so they share one contract:

  rc 2  bad input (unknown flag, malformed or out-of-range number, a
        library precondition): exactly one stderr line "prog: what"
  rc 1  a requested output file could not be written
  rc 0  success, with the requested numbers on stdout

Each row below is argv -> expected rc plus a stderr substring; rows that
succeed also check the numbers they print, not only the exit code.

Usage: test_cli_contract.py BINARY...   (leosim_cli, fig5_isl_capacity,
       tle_ingest, weather_planner and fig2_latency, matched by file name)
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

REQUIRED = ("leosim_cli", "fig5_isl_capacity", "tle_ingest",
            "weather_planner", "fig2_latency")

# A tiny workload so the rows that run end to end stay fast.
SMALL = ["--pairs=3", "--snapshots=1", "--spacing=6"]


@dataclass
class Row:
    binary: str
    argv: list[str]
    rc: int
    stderr: str = ""  # required substring ("" = stderr must be empty)
    # Returns an error message, or None when stdout is as expected.
    stdout: Optional[Callable[[str], Optional[str]]] = None
    env: Optional[dict[str, str]] = None  # set on top of the inherited one


def contains(text: str) -> Callable[[str], Optional[str]]:
    return lambda out: None if text in out else f"missing {text!r}"


def lacks(text: str) -> Callable[[str], Optional[str]]:
    return lambda out: None if text not in out else f"unexpected {text!r}"


def line_count(pattern: str, want: int) -> Callable[[str], Optional[str]]:
    regex = re.compile(pattern)

    def check(out: str) -> Optional[str]:
        got = sum(1 for line in out.splitlines() if regex.fullmatch(line))
        return None if got == want else f"{got} lines match {pattern!r}, want {want}"

    return check


def json_file(path: Path) -> Callable[[str], Optional[str]]:
    """The file at `path` parses as JSON (its '# wrote' note is on
    stderr, so stdout does not depend on the path)."""
    def check(out: str) -> Optional[str]:
        try:
            json.loads(path.read_text())
        except (OSError, ValueError) as err:
            return f"{path}: {err}"
        return None

    return check


def full_device_rows() -> list[Row]:
    """A device that accepts the buffered bytes and fails the flush: each
    output must report the error that fclose returns, not only fopen's
    and fwrite's."""
    if not Path("/dev/full").exists():
        return []
    full = "cannot write /dev/full"
    # The profile row runs a study so the profiler has stacks to write;
    # an empty profile writes no bytes and so cannot fail.
    study = ["study", "latency", "--pairs=3", "--snapshots=2"]
    return [
        Row("leosim_cli", ["cities", "Paris", "--metrics-out=/dev/full"], 1, full),
        Row("leosim_cli", ["cities", "Paris", "--trace-out=/dev/full"], 1, full),
        Row("leosim_cli", ["cities", "Paris", "--timeseries-out=/dev/full"], 1,
            full),
        Row("leosim_cli", [*study, "--profile-out=/dev/full"], 1, full),
    ]


def rows(tmp: Path) -> list[Row]:
    short_tle = tmp / "short.tle"
    short_tle.write_text("SAT\n1 25544U\n2 25544\n")
    metrics = tmp / "metrics.json"
    nettrace = tmp / "nettrace"
    trace_out = tmp / "trace_out"
    return [
        # Malformed and out-of-range numbers.
        Row("fig5_isl_capacity", ["--spacing=abc"], 2, "--spacing: expected a number"),
        Row("fig5_isl_capacity", ["--spacing=0"], 2, "--spacing: expected a number"),
        Row("fig5_isl_capacity", ["--pairs=5x"], 2, "--pairs: expected an integer"),
        Row("fig5_isl_capacity", ["--pairs=-5"], 2, "got '-5'"),
        Row("fig5_isl_capacity", ["--pairs="], 2, "got ''"),
        Row("fig5_isl_capacity", ["--step=nan"], 2, "--step: expected a number"),
        Row("fig5_isl_capacity", ["--snapshots=1e400"], 2, "--snapshots"),
        # A typo is an unknown flag, not a silent default run.
        Row("fig5_isl_capacity", ["--pair=5"], 2, "unknown flag --pair=5"),
        # Flags the binaries no longer have.
        Row("fig5_isl_capacity", ["--log-level=info"], 2,
            "unknown flag --log-level=info"),
        Row("fig5_isl_capacity", ["--progress=soon"], 2, "--progress"),
        # LEOSIM_THREADS, the one environment setting, is checked like a flag.
        Row("fig2_latency", SMALL, 2, "LEOSIM_THREADS", env={"LEOSIM_THREADS": "abc"}),
        Row("leosim_cli", ["study", "latency", *SMALL], 2, "got '-2'",
            env={"LEOSIM_THREADS": "-2"}),
        # --csv= belongs to fig2_latency only.
        Row("fig5_isl_capacity", ["--csv=out"], 2, "unknown flag --csv=out"),
        Row("weather_planner", ["Singapore", "abc"], 2, "freq_ghz"),
        Row("weather_planner", ["Singapore", "500"], 2, "freq_ghz"),
        Row("tle_ingest", [str(short_tle)], 2, "TLE line shorter than 69"),
        Row("leosim_cli", ["--log-level=info", "cities"], 2,
            "unknown flag --log-level=info"),
        # A command's "--" argument is a flag it does not take, not a
        # name filter or a city.
        Row("leosim_cli", ["cities", "--bogus"], 2, "cities: unknown flag --bogus"),
        Row("leosim_cli", ["visible", "--bp"], 2, "visible: unknown flag --bp"),
        Row("leosim_cli", ["pairs", "5x"], 2, "count: expected an integer"),
        Row("leosim_cli", ["pairs", "-1"], 2, "count: expected an integer"),
        Row("leosim_cli", ["attenuation", "Paris", "abc"], 2, "freq_ghz"),
        Row("leosim_cli", ["study", "latency", "--spacing=abc"], 2,
            "--spacing: expected a number"),
        Row("leosim_cli", ["study", "latency", "--pairs=0"], 2, "--pairs"),
        Row("leosim_cli", ["study", "latency", "--bogus"], 2,
            "study latency: unknown flag --bogus"),
        Row("leosim_cli", ["study", "latency", "--manifest-out=m.json"], 2,
            "study latency: unknown flag --manifest-out=m.json"),
        # A global flag the CLI no longer has.
        Row("leosim_cli", ["--flight-recorder"], 2,
            "unknown flag --flight-recorder"),
        Row("leosim_cli", ["trace", "--snapshots=x"], 2, "--snapshots"),
        Row("leosim_cli", ["route", "Paris", "London", "--bogus"], 2,
            "route: unknown flag --bogus"),
        Row("leosim_cli", ["visible", "Paris", "extra"], 2,
            "unexpected argument extra"),
        # An unknown city name is bad input, not a failed write.
        Row("leosim_cli", ["route", "Atlantis", "London"], 2, "Atlantis"),
        Row("leosim_cli", ["route", "Paris", "Atlantis", "--bp"], 2, "Atlantis"),
        Row("leosim_cli", ["visible", "Atlantis"], 2, "unknown city: Atlantis"),
        Row("leosim_cli", ["attenuation", "Atlantis"], 2,
            "unknown city: Atlantis"),
        Row("weather_planner", ["Atlantis"], 2, "unknown city: Atlantis"),
        # Unwritable outputs exit 1.
        Row("fig5_isl_capacity", [*SMALL, "--metrics-out=/nonexistent/x.json"],
            1, "cannot write /nonexistent/x.json"),
        Row("leosim_cli", ["pairs", "2", "--metrics-out=/nonexistent/x.json"],
            1, "cannot write /nonexistent/x.json"),
        Row("fig2_latency", [*SMALL, "--csv=/nonexistent/x"], 1,
            "cannot write /nonexistent/x_min_bp.csv"),
        *full_device_rows(),
        # Good input: the numbers asked for come out.
        Row("leosim_cli", ["study", "latency", "--pairs=3", "--snapshots=2"], 0,
            stdout=contains("latency study: 3 pairs x 2 snapshots")),
        # The counts come from the result and carry no wall time, so
        # stdout is the same bytes on every run.
        Row("leosim_cli", ["study", "latency", "--pairs=3", "--snapshots=2"], 0,
            stdout=line_count(r"  routed \d+ pair-snapshots, \d+ unreachable", 1)),
        Row("leosim_cli", ["pairs", "5"], 0,
            stdout=line_count(r"\S.* +\d+ km", 5)),
        Row("leosim_cli", ["route", "Paris", "London", "--bp"], 0,
            stdout=contains("Paris -> London (bent-pipe): RTT")),
        Row("fig5_isl_capacity", [*SMALL, f"--metrics-out={metrics}"], 0,
            f"# wrote {metrics}", stdout=json_file(metrics)),
        # The note naming the trace directory goes to stderr too, so
        # stdout does not depend on the output path.
        Row("leosim_cli", ["cities", "Paris", f"--trace-net-out={nettrace}"], 0,
            "wrote", stdout=lacks(str(nettrace))),
        Row("leosim_cli", ["trace", "--pairs=3", "--snapshots=2", f"--out={trace_out}"],
            0, "wrote", stdout=lacks(str(trace_out))),
        Row("weather_planner", ["Singapore", "20"], 0,
            stdout=contains("20.00 GHz")),
        Row("tle_ingest", [], 0, stdout=contains("parsed 12 element sets")),
    ]


def run_row(row: Row, binaries: dict[str, str], cwd: Path) -> Optional[str]:
    env = {**os.environ, **row.env} if row.env else None
    proc = subprocess.run([binaries[row.binary], *row.argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != row.rc:
        return f"rc {proc.returncode}, want {row.rc}; stderr: {proc.stderr!r}"
    if row.rc == 2:
        want = f"{row.binary}: "
        if not (proc.stderr.startswith(want) and proc.stderr.count("\n") == 1):
            return f"want one stderr line starting {want!r}, got {proc.stderr!r}"
    if row.stderr and row.stderr not in proc.stderr:
        return f"stderr {proc.stderr!r} lacks {row.stderr!r}"
    if not row.stderr and proc.stderr:
        return f"unexpected stderr {proc.stderr!r}"
    if row.stdout is not None:
        return row.stdout(proc.stdout)
    return None


def main(argv: list[str]) -> int:
    binaries = {Path(p).name: str(Path(p).resolve()) for p in argv[1:]}
    missing = [name for name in REQUIRED if name not in binaries]
    if missing:
        print(f"usage: {argv[0]} BINARY...; missing {', '.join(missing)}")
        return 2
    failures = 0
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        table = rows(tmp)
        for row in table:
            error = run_row(row, binaries, tmp)
            label = " ".join([row.binary, *row.argv])
            if error is not None:
                failures += 1
                print(f"FAIL: {label}: {error}")
            else:
                print(f"ok:   {label}")
    print(f"{len(table) - failures}/{len(table)} rows pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
