#!/usr/bin/env python3
"""Diff two leosim observability artifacts and report regressions.

Turns the JSON the pipeline already emits into a verdict: feed it a
baseline artifact and a current one and it prints per-metric deltas,
flags everything beyond the regression threshold, and exits non-zero
when anything regressed. Artifact kinds are auto-detected from the JSON
shape:

  bench       BenchSuite records (BENCH_pipeline.json): per-benchmark
              median deltas. A row gates only when the delta exceeds
              --threshold AND a one-sided Mann-Whitney U test on the
              per-rep samples_ns arrays finds the slowdown significant
              at --alpha; a record without samples_ns is an input
              error. Cross-machine comparisons (differing
              host_cores/threads in the config) annotate every row and
              never gate.
  metrics     MetricsRegistry exports ({"counters": {...}}): counter
              deltas. Informational — counts depend on workload size,
              so they never gate.
  timeseries  TimeseriesRecorder exports (leosim.timeseries/1): per-key
              overlay stats over time-matched samples (mean/max
              deviation), gated by --threshold on relative drift.
  netstate    Network-state traces (leosim.netstate/1 JSONL): per-slot
              node/link counts and the first slot where the two runs'
              full states diverge. Informational.
  netevents   Network event streams (leosim.netevents/1 JSONL): per-slot
              edge-churn counts (link_up/link_down/weight) side by
              side. Informational.

Usage:
  obs_report.py BASELINE CURRENT [--threshold PCT] [--alpha P] [--markdown]
  obs_report.py --baseline BASELINE CURRENT [CURRENT...]
  obs_report.py --validate-collapsed PROFILE.collapsed

--validate-collapsed checks a collapsed-stack profile (the
--profile-out output) against the same strict grammar the in-tree C++
validator enforces, and exits 0 (valid) / 1 (malformed).

Exit status: 0 = no regressions, 1 = at least one gated metric beyond
the threshold (or an invalid collapsed profile), 2 = usage or input
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

EPS = 1e-12
# Kept importable for selftests and downstream scripts.
NETSTATE_SCHEMA_PREFIX = "leosim.netstate/"
NETEVENTS_SCHEMA_PREFIX = "leosim.netevents/"


# ---------------------------------------------------------------------------
# Mann-Whitney U significance on per-rep bench samples.


@lru_cache(maxsize=None)
def _u_count(m: int, n: int, u: int) -> int:
    """Arrangements of m+n ranks giving U statistic exactly u (no ties)."""
    if u < 0:
        return 0
    if m == 0 or n == 0:
        return 1 if u == 0 else 0
    return _u_count(m - 1, n, u - n) + _u_count(m, n - 1, u)


def mann_whitney_p(base: list[float], cur: list[float]) -> float | None:
    """One-sided p-value for H1: `cur` is stochastically greater than `base`.

    Small samples without ties use the exact U distribution (the only
    defensible choice at bench-sized reps); ties or larger samples fall
    back to the normal approximation with midranks, tie-corrected
    variance, and continuity correction. All-tied data (a self-diff) has
    zero variance and returns 0.5 — never significant.
    """
    m, n = len(base), len(cur)
    if m == 0 or n == 0:
        return None
    combined = sorted([(v, 0) for v in base] + [(v, 1) for v in cur])
    ranks = [0.0] * len(combined)
    tie_groups = []
    i = 0
    while i < len(combined):
        j = i
        while j < len(combined) and combined[j][0] == combined[i][0]:
            j += 1
        midrank = (i + j + 1) / 2.0  # 1-based average rank of the group
        for k in range(i, j):
            ranks[k] = midrank
        tie_groups.append(j - i)
        i = j
    rank_sum_cur = sum(r for r, (_, who) in zip(ranks, combined) if who == 1)
    u_cur = rank_sum_cur - n * (n + 1) / 2.0

    has_ties = any(t > 1 for t in tie_groups)
    if not has_ties and m + n <= 40:
        u_int = int(math.ceil(u_cur - 1e-9))
        total = math.comb(m + n, n)
        tail = sum(_u_count(m, n, u) for u in range(u_int, m * n + 1))
        return tail / total
    big_n = m + n
    mean_u = m * n / 2.0
    tie_term = sum(t**3 - t for t in tie_groups)
    var_u = m * n / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var_u <= EPS:
        return 0.5  # every observation tied: no evidence either way
    z = (u_cur - mean_u - 0.5) / math.sqrt(var_u)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Collapsed-stack validation (mirror of obs::ValidateCollapsedStacks).


def validate_collapsed_text(text: str) -> tuple[bool, str]:
    """Strict collapsed-stack grammar check; returns (ok, why)."""
    if text == "":
        return True, "empty profile is valid"
    if not text.endswith("\n"):
        return False, "missing trailing newline"
    prev_stack = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stack, sep, count = line.rpartition(" ")
        if not sep:
            return False, f"line {line_no}: no space between stack and count"
        if not stack:
            return False, f"line {line_no}: empty stack"
        for frame in stack.split(";"):
            if not frame:
                return False, f"line {line_no}: empty frame"
            if any(not (0x21 <= ord(c) <= 0x7E) or c == " " for c in frame):
                return False, (
                    f"line {line_no}: non-printable or space character in frame"
                )
        if not count.isdigit() or count.startswith("0"):
            return False, (
                f"line {line_no}: count must be a positive decimal integer"
            )
        if prev_stack is not None and not prev_stack < stack:
            return False, f"line {line_no}: stacks not in strictly ascending order"
        prev_stack = stack
    return True, "ok"


def detect_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise ValueError("artifact root must be a JSON object")
    if isinstance(doc.get("schema"), str) and doc["schema"].startswith(
        "leosim.timeseries/"
    ):
        return "timeseries"
    if "suite" in doc and "results" in doc:
        return "bench"
    if "counters" in doc:
        return "metrics"
    raise ValueError("unrecognised artifact shape (not bench/metrics/timeseries)")


class Report:
    """Accumulates report lines in plain-text or markdown-table form."""

    def __init__(self, markdown: bool) -> None:
        self.markdown = markdown
        self.lines: list[str] = []
        self.regressions: list[str] = []

    def section(self, title: str) -> None:
        if self.lines:
            self.lines.append("")
        self.lines.append(f"### {title}" if self.markdown else f"== {title} ==")

    def table(self, headers: list[str], rows: list[list[str]]) -> None:
        if not rows:
            self.note("(nothing to compare)")
            return
        if self.markdown:
            self.lines.append("| " + " | ".join(headers) + " |")
            self.lines.append("|" + "|".join("---" for _ in headers) + "|")
            for row in rows:
                self.lines.append("| " + " | ".join(row) + " |")
        else:
            widths = [
                max(len(headers[c]), *(len(row[c]) for row in rows))
                for c in range(len(headers))
            ]
            self.lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
            self.lines.append("  ".join("-" * w for w in widths))
            for row in rows:
                self.lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))

    def note(self, text: str) -> None:
        self.lines.append(text)

    def regression(self, label: str) -> None:
        self.regressions.append(label)

    def render(self) -> str:
        out = list(self.lines)
        out.append("")
        if self.regressions:
            out.append(
                f"REGRESSIONS ({len(self.regressions)}): "
                + ", ".join(self.regressions)
            )
        else:
            out.append("no regressions")
        return "\n".join(out) + "\n"


def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def pct_change(base: float, cur: float) -> float:
    """Relative change in percent; 0 when both sides are (near) zero."""
    if abs(base) < EPS:
        return 0.0 if abs(cur) < EPS else float("inf")
    return (cur / base - 1.0) * 100.0


def fmt_pct(p: float) -> str:
    if p == float("inf"):
        return "new!"
    return f"{p:+.1f}%"


def machine_desc(doc: dict) -> str:
    cfg = doc.get("config", {})
    return (
        f"host_cores={cfg.get('host_cores', '?')} "
        f"threads={cfg.get('threads', '?')}"
    )


def diff_bench(
    base: dict, cur: dict, report: Report, threshold: float, alpha: float
) -> None:
    base_medians = {r["name"]: r for r in base.get("results", [])}
    cur_medians = {r["name"]: r for r in cur.get("results", [])}
    report.section(f"bench medians (threshold {threshold:g}%, alpha {alpha:g})")
    report.note(
        f"machine: base [{machine_desc(base)}] vs now [{machine_desc(cur)}]"
    )
    # Timings from different hardware or thread counts are not
    # comparable; annotate every row and gate nothing, so a "regression"
    # never sends someone hunting a phantom slowdown.
    cross_machine = []
    for key in ("host_cores", "threads"):
        b = base.get("config", {}).get(key)
        c = cur.get("config", {}).get(key)
        if b is not None and c is not None and b != c:
            cross_machine.append(f"{key}: base {b}, now {c}")
    if cross_machine:
        report.note(
            f"WARNING: cross-machine comparison ({'; '.join(cross_machine)}) "
            "— rows below are annotated, none gate"
        )
    rows = []
    for name in sorted(set(base_medians) | set(cur_medians)):
        if name not in base_medians:
            rows.append(
                [name, "-", fmt(cur_medians[name]["median_ns_per_op"]), "new", "-", ""]
            )
            continue
        if name not in cur_medians:
            rows.append(
                [name, fmt(base_medians[name]["median_ns_per_op"]), "-", "gone", "-", ""]
            )
            continue
        b = base_medians[name]["median_ns_per_op"]
        c = cur_medians[name]["median_ns_per_op"]
        change = pct_change(b, c)
        p = mann_whitney_p(
            base_medians[name]["samples_ns"], cur_medians[name]["samples_ns"]
        )
        marker = ""
        if cross_machine:
            marker = "cross-machine"
        elif change > threshold:
            if p < alpha:
                marker = "REGRESSED"
                report.regression(f"bench:{name} (p={p:.3g})")
            else:
                marker = "noise? (not significant)"
        elif change < -threshold:
            marker = "improved"
        rows.append(
            [
                name,
                f"{b:.1f}",
                f"{c:.1f}",
                fmt_pct(change),
                f"{p:.3g}",
                marker,
            ]
        )
    report.table(["benchmark", "base ns/op", "now ns/op", "delta", "p", ""], rows)


def diff_metrics(base: dict, cur: dict, report: Report) -> None:
    counters_b, counters_c = base.get("counters", {}), cur.get("counters", {})
    report.section("counters")
    rows = []
    for name in sorted(set(counters_b) | set(counters_c)):
        b, c = counters_b.get(name, 0), counters_c.get(name, 0)
        if b == c:
            continue
        rows.append([name, fmt(b), fmt(c), fmt_pct(pct_change(b, c))])
    if rows:
        report.table(["counter", "base", "now", "delta"], rows)
    else:
        report.note("(all counters identical)")


def series_points(doc: dict) -> dict[str, list[list[float]]]:
    return doc.get("series", {})


def diff_timeseries(base: dict, cur: dict, report: Report, threshold: float) -> None:
    sb, sc = series_points(base), series_points(cur)
    report.section(f"timeseries overlay (threshold {threshold:g}% relative drift)")
    only_base = sorted(set(sb) - set(sc))
    only_cur = sorted(set(sc) - set(sb))
    rows = []
    for key in sorted(set(sb) & set(sc)):
        base_by_t: dict[float, float] = {}
        for t, v in sb[key]:
            base_by_t.setdefault(t, v)
        matched = [(v, base_by_t[t]) for t, v in sc[key] if t in base_by_t]
        if not matched:
            rows.append([key, str(len(sb[key])), str(len(sc[key])), "-", "-", "no overlap"])
            continue
        deviations = [abs(c - b) for c, b in matched]
        mean_abs_base = sum(abs(b) for _, b in matched) / len(matched)
        drift_pct = (
            100.0 * (sum(deviations) / len(deviations)) / max(mean_abs_base, EPS)
            if mean_abs_base > EPS
            else (0.0 if max(deviations) < EPS else float("inf"))
        )
        marker = ""
        if drift_pct > threshold:
            marker = "DRIFTED"
            report.regression(f"timeseries:{key}")
        rows.append(
            [
                key,
                str(len(sb[key])),
                str(len(sc[key])),
                f"{max(deviations):.4g}",
                fmt_pct(drift_pct) if drift_pct != float("inf") else "inf",
                marker,
            ]
        )
    report.table(
        ["key", "base n", "now n", "max |delta|", "mean drift", ""], rows
    )
    if only_base:
        report.note(f"keys only in baseline: {', '.join(only_base)}")
    if only_cur:
        report.note(f"keys only in current: {', '.join(only_cur)}")
    db, dc = base.get("dropped_samples", 0), cur.get("dropped_samples", 0)
    if db or dc:
        report.note(f"dropped samples: baseline {db}, current {dc}")


def diff_netstate(base: dict, cur: dict, report: Report) -> None:
    """Per-slot full-state comparison of two netstate traces.

    Reports node/link counts side by side and the first slot where the
    two runs' parsed states differ at all. Informational — two traces of
    different scenarios are *expected* to diverge.
    """
    report.section("netstate trace")
    slots = sorted(set(base) | set(cur))
    first_divergence = None
    rows = []
    for slot in slots:
        b = base.get(slot)
        c = cur.get(slot)
        if b is None or c is None:
            if first_divergence is None:
                first_divergence = slot
            rows.append(
                [
                    str(slot),
                    "-" if b is None else str(len(b.get("nodes", []))),
                    "-" if c is None else str(len(c.get("nodes", []))),
                    "-" if b is None else str(len(b.get("links", []))),
                    "-" if c is None else str(len(c.get("links", []))),
                    "only in " + ("current" if b is None else "baseline"),
                ]
            )
            continue
        same = (
            b.get("counts") == c.get("counts")
            and b.get("nodes") == c.get("nodes")
            and b.get("links") == c.get("links")
        )
        if not same and first_divergence is None:
            first_divergence = slot
        rows.append(
            [
                str(slot),
                str(len(b.get("nodes", []))),
                str(len(c.get("nodes", []))),
                str(len(b.get("links", []))),
                str(len(c.get("links", []))),
                "==" if same else "DIFF",
            ]
        )
    report.table(
        ["slot", "nodes b", "nodes n", "links b", "links n", "state"], rows
    )
    if first_divergence is None:
        report.note(f"all {len(slots)} slots bit-identical across the two runs")
    else:
        report.note(f"first divergence at slot {first_divergence}")


def _churn_counts(doc: dict) -> tuple[int, int, int]:
    ups = downs = weights = 0
    for event in doc.get("events", []):
        kind = event[0] if isinstance(event, list) and event else None
        if kind == "link_up":
            ups += 1
        elif kind == "link_down":
            downs += 1
        elif kind == "weight":
            weights += 1
    return ups, downs, weights


def diff_netevents(base: dict, cur: dict, report: Report) -> None:
    """Per-slot edge-churn counts of two netevents streams, side by side."""
    report.section("netevents trace (edge churn per slot)")
    slots = sorted(set(base) | set(cur))
    rows = []
    totals_b = [0, 0, 0]
    totals_c = [0, 0, 0]
    mismatched = 0
    for slot in slots:
        b = _churn_counts(base[slot]) if slot in base else None
        c = _churn_counts(cur[slot]) if slot in cur else None
        if b is not None:
            totals_b = [x + y for x, y in zip(totals_b, b)]
        if c is not None:
            totals_c = [x + y for x, y in zip(totals_c, c)]
        if b != c:
            mismatched += 1
        fmt = lambda t: "-" if t is None else f"{t[0]}/{t[1]}/{t[2]}"  # noqa: E731
        rows.append([str(slot), fmt(b), fmt(c), "==" if b == c else "DIFF"])
    report.table(["slot", "up/down/wt b", "up/down/wt n", "churn"], rows)
    report.note(
        f"totals up/down/weight: baseline {totals_b[0]}/{totals_b[1]}/"
        f"{totals_b[2]}, current {totals_c[0]}/{totals_c[1]}/{totals_c[2]}, "
        f"{mismatched} slot(s) with differing churn"
    )


_TRACE_SCHEMA_KINDS = {
    "leosim.netstate/": "netstate",
    "leosim.netevents/": "netevents",
}


def _detect_trace_kind(first_line: str) -> str | None:
    """Kind of a JSONL trace artifact, from its first line; None if not one."""
    try:
        doc = json.loads(first_line)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("schema"), str):
        return None
    for prefix, kind in _TRACE_SCHEMA_KINDS.items():
        if doc["schema"].startswith(prefix):
            return kind
    return None


def load(path: str) -> tuple[dict, str]:
    """Reads an artifact and detects its kind.

    Every failure mode raises ValueError carrying the filename and the
    first bytes of the offending content, so a garbled or mislabeled
    file is attributable from the error alone.
    """
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValueError(f"{path}: {err}") from err
    snippet = text[:80]
    first_line = text.lstrip().split("\n", 1)[0]
    trace_kind = _detect_trace_kind(first_line)
    if trace_kind is not None:
        by_slot: dict = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"{path}:{lineno}: {err}: first bytes {line[:80]!r}"
                ) from err
            if not isinstance(doc, dict) or "slot" not in doc:
                raise ValueError(
                    f"{path}:{lineno}: trace line without a slot: "
                    f"first bytes {line[:80]!r}"
                )
            by_slot[doc["slot"]] = doc
        return by_slot, trace_kind
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}: not valid JSON ({err}): first bytes {snippet!r}"
        ) from err
    try:
        kind = detect_kind(doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}: first bytes {snippet!r}") from err
    # Every BenchSuite record carries its per-rep samples; the
    # Mann-Whitney gate has nothing to test without them.
    if kind == "bench":
        for record in doc["results"]:
            if not (isinstance(record, dict) and record.get("samples_ns")):
                name = record.get("name") if isinstance(record, dict) else None
                raise ValueError(f"{path}: bench record {name!r} has no samples_ns")
    return doc, kind


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("files", nargs="*", help="artifacts to compare")
    parser.add_argument(
        "--baseline",
        help="baseline artifact; every positional file is diffed against it "
        "(default: the first positional file is the baseline)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default: 10)",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help="significance level for the Mann-Whitney gate on bench "
        "samples (default: 0.05)",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit GitHub-flavoured markdown tables"
    )
    parser.add_argument(
        "--validate-collapsed",
        metavar="FILE",
        help="validate a collapsed-stack profile instead of diffing "
        "artifacts; exits 0 (valid) / 1 (malformed)",
    )
    args = parser.parse_args()

    if args.validate_collapsed is not None:
        try:
            text = Path(args.validate_collapsed).read_text()
        except OSError as err:
            print(f"obs_report: {err}", file=sys.stderr)
            return 2
        ok, why = validate_collapsed_text(text)
        if ok:
            stacks = text.count("\n")
            print(f"{args.validate_collapsed}: valid collapsed stacks ({stacks} stacks)")
            return 0
        print(f"obs_report: {args.validate_collapsed}: {why}", file=sys.stderr)
        return 1

    if args.baseline is not None:
        baseline_path, current_paths = args.baseline, args.files
    elif len(args.files) >= 2:
        baseline_path, current_paths = args.files[0], args.files[1:]
    else:
        parser.print_usage(sys.stderr)
        print("obs_report: need a baseline and at least one current file", file=sys.stderr)
        return 2

    try:
        base, base_kind = load(baseline_path)
    except ValueError as err:
        print(f"obs_report: {err}", file=sys.stderr)
        return 2

    report = Report(markdown=args.markdown)
    report.note(
        f"**obs_report** baseline `{baseline_path}` ({base_kind})"
        if args.markdown
        else f"obs_report: baseline {baseline_path} ({base_kind})"
    )
    for path in current_paths:
        try:
            cur, cur_kind = load(path)
        except ValueError as err:
            print(f"obs_report: {err}", file=sys.stderr)
            return 2
        if cur_kind != base_kind:
            print(
                f"obs_report: {path} is a {cur_kind} artifact but the baseline "
                f"is {base_kind}",
                file=sys.stderr,
            )
            return 2
        try:
            if base_kind == "bench":
                diff_bench(base, cur, report, args.threshold, args.alpha)
            elif base_kind == "metrics":
                diff_metrics(base, cur, report)
            elif base_kind == "timeseries":
                diff_timeseries(base, cur, report, args.threshold)
            elif base_kind == "netstate":
                diff_netstate(base, cur, report)
            else:
                diff_netevents(base, cur, report)
        except (KeyError, TypeError) as err:
            # A well-shaped root with malformed entries (detect_kind
            # only sniffs top-level keys): attribute it to the file
            # instead of dying with a bare traceback.
            print(
                f"obs_report: {path}: malformed {base_kind} artifact "
                f"({type(err).__name__}: {err})",
                file=sys.stderr,
            )
            return 2

    sys.stdout.write(report.render())
    return 1 if report.regressions else 0


if __name__ == "__main__":
    sys.exit(main())
