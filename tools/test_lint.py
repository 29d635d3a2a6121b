#!/usr/bin/env python3
"""Self-test for the lint toolchain; wired into ctest as `lint_selftest`.

Three layers of coverage, all dependency-free:

  1. Fixture pairs: every rule in tools/leosim_lint.py has a
     tests/lint_fixtures/<rule>/trigger tree that must produce at least
     one finding for that rule, and a sibling ok/ tree that must produce
     none. A rule without fixtures fails the test, so new rules cannot
     land untested and existing rules cannot silently rot.
  2. SARIF round-trip: the documents emitted by leosim_lint.to_sarif and
     tools/clang_tidy_sarif.py must pass tools/check_sarif.py, and the
     converter's parsing/dedup/note-folding is checked on canned
     clang-tidy output.
  3. Baseline semantics: fingerprints are line-independent, write/load
     round-trips, and baselined findings are suppressed while new ones
     still fail.

Run directly (`python3 tools/test_lint.py`) or via ctest.
"""

from __future__ import annotations

import importlib.util
import shutil
import sys
import tempfile
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TOOLS_DIR.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks the module up by name
    spec.loader.exec_module(module)
    return module


leosim_lint = _load("leosim_lint")
check_sarif = _load("check_sarif")
clang_tidy_sarif = _load("clang_tidy_sarif")

_failures: list[str] = []


def check(cond: bool, message: str) -> None:
    if cond:
        return
    _failures.append(message)
    print(f"FAIL: {message}")


def run_rule(rule_id: str, root: Path):
    ctx = leosim_lint.LintContext(root, use_git=False)
    return leosim_lint.run_rules(ctx, rule_ids={rule_id}, compile_checks=True)


def test_fixture_pairs() -> None:
    have_compiler = any(shutil.which(c) for c in ("g++", "c++", "clang++"))
    for rule in leosim_lint.RULES:
        if rule.needs_compiler and not have_compiler:
            print(f"skip: {rule.id} (no C++ compiler on PATH)")
            continue
        trigger = FIXTURES / rule.id / "trigger"
        ok = FIXTURES / rule.id / "ok"
        check(trigger.is_dir() and ok.is_dir(),
              f"{rule.id}: missing fixture pair under {FIXTURES / rule.id} "
              "(every rule needs trigger/ and ok/ trees)")
        if not (trigger.is_dir() and ok.is_dir()):
            continue
        hits = run_rule(rule.id, trigger)
        check(len(hits) >= 1 and all(f.rule == rule.id for f in hits),
              f"{rule.id}: trigger fixture produced no finding")
        misses = run_rule(rule.id, ok)
        check(not misses,
              f"{rule.id}: ok fixture produced findings: "
              + "; ".join(f.render() for f in misses))
        print(f"ok: {rule.id} ({len(hits)} trigger finding(s), ok clean)")


def test_layering_acceptance_fixture() -> None:
    # The named acceptance case: a graph/ header including "core/..."
    # must be rejected as a layer violation (graph never includes core).
    hits = run_rule("layering", FIXTURES / "layering" / "trigger")
    check(any("layer violation" in f.message
              and f.path == "src/graph/router.hpp" for f in hits),
          "layering: graph-includes-core fixture not flagged as a "
          "layer violation")
    check(any("not declared in the layer DAG" in f.message for f in hits),
          "layering: undeclared-module fixture not flagged")
    print("ok: layering acceptance fixture (graph -> core rejected)")


def test_study_router_scope() -> None:
    # Each of the four search entry points is flagged in a study file and
    # a search in a bench binary is flagged too; routing.cpp (EXT-RT, not
    # a *_study.cpp) is left alone, and the ok tree shows the two bench
    # files that time the fallbacks are exempt.
    hits = run_rule("study-router", FIXTURES / "study-router" / "trigger")
    flagged = {(f.path, f.message.split()[2]) for f in hits}
    check(flagged == {
        ("src/core/failure_study.cpp", "ShortestPath"),
        ("src/core/churn_study.cpp", "ShortestPathAStar"),
        ("src/core/throughput_study.cpp", "KEdgeDisjointShortestPaths"),
        ("src/core/outage_study.cpp", "RunAStar"),
        ("bench/fig7_hops.cpp", "ShortestPath"),
        ("bench/bench_pipeline_extra.cpp", "ShortestPathAStar"),
    }, f"study-router: expected one finding per study and bench file, got {flagged}")
    print("ok: study-router flags the four searches in studies and benches, "
          "not routing.cpp")


def test_fingerprint_line_independence() -> None:
    a = leosim_lint.Finding("src/x.cpp", 10, "raw-mutex", "same message")
    b = leosim_lint.Finding("src/x.cpp", 99, "raw-mutex", "same message")
    c = leosim_lint.Finding("src/y.cpp", 10, "raw-mutex", "same message")
    check(a.fingerprint == b.fingerprint,
          "fingerprint must not depend on the line number")
    check(a.fingerprint != c.fingerprint,
          "fingerprint must depend on the path")
    print("ok: fingerprints line-independent")


def test_baseline_roundtrip() -> None:
    findings = [
        leosim_lint.Finding("src/a.cpp", 3, "hot-alloc", "debt one"),
        leosim_lint.Finding("src/b.cpp", 7, "hot-alloc", "debt two"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "baseline.json"
        leosim_lint.write_baseline(path, findings)
        suppressed = leosim_lint.load_baseline(path)
        check(suppressed == {f.fingerprint for f in findings},
              "baseline write/load did not round-trip")
        fresh = leosim_lint.Finding("src/c.cpp", 1, "hot-alloc", "new debt")
        check(fresh.fingerprint not in suppressed,
              "a new finding must not be suppressed by the old baseline")
    print("ok: baseline round-trip")


def test_lint_sarif_valid() -> None:
    findings = [
        leosim_lint.Finding("src/a.cpp", 3, "raw-mutex", "msg"),
        leosim_lint.Finding("src/b.cpp", 7, "hot-alloc", "baselined"),
    ]
    doc = leosim_lint.to_sarif(
        findings, suppressed={findings[1].fingerprint},
        baseline_path=Path("tools/lint_baseline.json"))
    try:
        check_sarif.check_sarif(doc)
    except check_sarif.SarifError as err:
        check(False, f"leosim_lint SARIF failed validation: {err}")
    results = doc["runs"][0]["results"]
    check(len(results) == 2, "SARIF must include baselined results")
    by_uri = {r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]: r
              for r in results}
    check("suppressions" not in by_uri["src/a.cpp"]
          and by_uri["src/b.cpp"]["suppressions"][0]["kind"] == "external",
          "only the baselined result may carry an external suppression")
    print("ok: leosim_lint SARIF validates")


def test_clang_tidy_converter() -> None:
    lines = [
        "src/core/parallel.cpp:42:7: warning: uninitialized "
        "[cppcoreguidelines-init-variables]",
        "src/core/parallel.cpp:42:7: note: initialize it like this",
        # Exact repeat (same header seen from a second TU): deduped.
        "src/core/parallel.cpp:42:7: warning: uninitialized "
        "[cppcoreguidelines-init-variables]",
        "src/obs/progress.cpp:10:3: error: broken [clang-diagnostic-error]",
        "1 warning generated.",
    ]
    diags = clang_tidy_sarif.parse_diagnostics(lines, REPO_ROOT)
    check(len(diags) == 2, f"converter dedup failed (got {len(diags)} diags)")
    check(diags[0]["notes"] and
          diags[0]["notes"][0]["message"] == "initialize it like this",
          "notes must fold into the preceding warning")
    doc = clang_tidy_sarif.to_sarif(diags)
    try:
        check_sarif.check_sarif(doc)
    except check_sarif.SarifError as err:
        check(False, f"clang-tidy SARIF failed validation: {err}")
    levels = {r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]}
    check(levels.get("clang-diagnostic-error") == "error",
          "error severity must survive conversion")
    print("ok: clang-tidy SARIF converter")


def test_check_sarif_rejects_garbage() -> None:
    for bad, why in [
        ({"version": "2.0.0", "runs": []}, "wrong version"),
        ({"version": "2.1.0", "runs": []}, "empty runs"),
        ({"version": "2.1.0",
          "runs": [{"tool": {"driver": {"name": "x"}},
                    "results": [{"message": {}}]}]}, "missing message.text"),
    ]:
        try:
            check_sarif.check_sarif(bad)
        except check_sarif.SarifError:
            continue
        check(False, f"check_sarif accepted an invalid document ({why})")
    print("ok: check_sarif rejects malformed documents")


def main() -> int:
    check(FIXTURES.is_dir(), f"fixture root {FIXTURES} missing")
    test_fixture_pairs()
    test_layering_acceptance_fixture()
    test_study_router_scope()
    test_fingerprint_line_independence()
    test_baseline_roundtrip()
    test_lint_sarif_valid()
    test_clang_tidy_converter()
    test_check_sarif_rejects_garbage()
    if _failures:
        print(f"\n{len(_failures)} failure(s)")
        return 1
    print("\nall lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
