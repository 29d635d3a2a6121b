#!/usr/bin/env python3
"""Checks figure binaries against the results of record; ctest runs it as
every bench_smoke_<figure> test.

Runs each BINARY at the flags of the scale, hashes its stdout, and
compares the md5 with tools/results_of_record.json, keyed by the
binary's file name. Stdout is the whole result: progress notes and
`# wrote` lines go to stderr, so they do not enter the hash.

  check_results.py BINARY... --scale=smoke|default|full

  smoke    --pairs=30 --snapshots=2 --spacing=4 (well under a second each)
  default  no flags (all 23 binaries take about 16 s serially)
  full     --full, the paper's scale (minutes; see full_wall_s)

Exit 0 when every binary prints its recorded bytes, 1 when one does not
(or exits nonzero), 2 on bad usage or a binary with no record.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "results_of_record.json"


def main(argv: list[str]) -> int:
    manifest = json.loads(MANIFEST.read_text())
    scales = manifest["scales"]
    scale = None
    binaries = []
    for arg in argv[1:]:
        if arg.startswith("--scale="):
            scale = arg.split("=", 1)[1]
        else:
            binaries.append(Path(arg))
    if scale not in scales or not binaries:
        print(f"usage: {argv[0]} BINARY... --scale={'|'.join(scales)}",
              file=sys.stderr)
        return 2

    failed = 0
    for binary in binaries:
        record = manifest["binaries"].get(binary.name, {}).get(scale)
        if record is None:
            print(f"{binary.name}: no {scale} result of record in {MANIFEST.name}",
                  file=sys.stderr)
            return 2
        argv_run = [str(binary)] + scales[scale]
        proc = subprocess.run(argv_run, capture_output=True)
        got = hashlib.md5(proc.stdout).hexdigest()
        if proc.returncode != 0:
            print(f"FAIL {binary.name} --scale={scale}: exit {proc.returncode}\n"
                  f"{proc.stderr.decode(errors='replace')}", end="")
            failed += 1
        elif got != record:
            print(f"FAIL {binary.name} --scale={scale}: stdout md5 {got}, "
                  f"recorded {record}\n--- stdout of {' '.join(argv_run)}\n"
                  f"{proc.stdout.decode(errors='replace')}", end="")
            failed += 1
        else:
            print(f"ok   {binary.name} --scale={scale} {got}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
