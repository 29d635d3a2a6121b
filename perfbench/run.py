#!/usr/bin/env python3
"""Repository benchmark: builds leobench from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

NAME is fig2_paper_grid, fig4_multipath or trace_fine (see
perfbench/README.md). With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it reports the per-layer
metrics of a traced replay. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs
every workload in turn and prints each one's metrics by name and unit.

The build lands in .bench_build/perfbench and run artifacts (per-run
records, span dumps) in .bench_out/, both under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("fig2_paper_grid", "fig4_multipath", "trace_fine")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def run(cmd: list[str], timeout: float, **kwargs) -> tuple[int, str, str]:
    """Runs cmd in its own process group; on timeout kills the whole group
    (a build's compilers too) and waits for it before re-raising."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out or "", err or ""


def threads() -> int:
    """Study worker threads: every CPU this process may run on, at most 4."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def build(root: str) -> str:
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(threads()), "--target", "leobench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        rc, _, _ = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "leobench")


def commit_id(root: str) -> str:
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def expected_metrics(root: str, trace: int) -> dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def trace_check(root: str, trace_dir: str) -> bool:
    """tools/trace_check.py replays the written files from scratch."""
    tool = os.path.join(root, "tools", "trace_check.py")
    if not os.path.isfile(tool):
        print(f"# trace_check: {tool} is missing", flush=True)
        return False
    rc, out, err = run([sys.executable, tool, trace_dir], RUN_TIMEOUT_S,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    print("# trace_check: " + (out.strip() or err.strip())[:300], flush=True)
    return rc == 0


def run_one(root: str, binary: str, args: argparse.Namespace, workload: str,
            commit: str) -> dict:
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--threads={threads()}", f"--out={out_dir}", f"--commit={commit}"]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append(f"--corrupt={args.corrupt}")
    rc, out, err = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"leobench exited with {rc}")
    for line in lines[:-1]:
        print(line, flush=True)
    record = json.loads(lines[-1])

    trace_dir = os.path.join(out_dir, "trace_fine")
    if workload == "trace_fine":
        record["attempted"] += 1
        if not trace_check(root, trace_dir):
            record["failed"] += 1
    shutil.rmtree(trace_dir, ignore_errors=True)

    name = f"record-{workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return record


def report(workload: str, record: dict, expected: dict[str, str]) -> None:
    metrics = record["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metric names differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    print(f"# context {json.dumps(record['context'])}")
    for name, m in metrics.items():
        if m["unit"] != expected[name]:
            raise BenchError(f"{name}: unit {m['unit']} != {expected[name]}")
        print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"# {workload} failed_frac = {frac:.6g} "
          f"({record['failed']} of {record['attempted']} checks)")
    if record["stale"]:
        print(f"# {workload} per-layer numbers are STALE: the replay did not "
              f"reproduce the study call")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test hooks: a seconds-long scale and deliberate output damage.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", choices=("rtt", "gbps", "netevents"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 40 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be in [0, 2^40) and --seconds in [1, 3600]")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    try:
        expected = expected_metrics(root, args.trace)
        binary = build(root)
        commit = commit_id(root)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = {}
        for workload in workloads:
            records[workload] = run_one(root, binary, args, workload, commit)
            report(workload, records[workload], expected)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if args.workload == "all":
        metrics = {f"{w}.{name}": m for w, r in records.items()
                   for name, m in r["metrics"].items()}
    else:
        metrics = records[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
