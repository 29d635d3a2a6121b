#!/usr/bin/env python3
"""Self-test of the benchmark's output checks, at a seconds-long scale.

Run from the repository root:

  python3 perfbench/selftest.py

For each workload it makes one clean run, which must report no failed
check, and one run with a deliberate error in the outputs, which must
report at least one:

  fig2_paper_grid  one RTT moved by 1 ulp            (--corrupt rtt)
  fig4_multipath   one throughput total moved 1 ulp  (--corrupt gbps)
  trace_fine       one netevents line dropped        (--corrupt netevents)

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

CASES = (("fig2_paper_grid", "rtt"), ("fig4_multipath", "gbps"),
         ("trace_fine", "netevents"))
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def failed_frac(workload: str, corrupt: str | None, trace: int) -> float:
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["failed"] / result["attempted"]


def main() -> int:
    ok = True
    for workload, corrupt in CASES:
        for trace in (0, 1):
            clean = failed_frac(workload, None, trace)
            damaged = failed_frac(workload, corrupt, trace)
            good = clean == 0 and damaged > 0
            ok = ok and good
            print(f"{'ok  ' if good else 'FAIL'} {workload} trace={trace}: "
                  f"clean failed_frac={clean:.4g}, "
                  f"--corrupt {corrupt} failed_frac={damaged:.4g}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
