"""Fixture-corpus self-test.

Each fixtures/*.cpp file seeds known-bad constructs and sanctioned idioms.
A `// expect-next-line[RULE]` marker (stackable: `[D1][D4]`) asserts the
following line is flagged with exactly those rules; every unmarked line
must be silent. The self-test fails on a missed seed (rule did not catch
its violation), on a spurious finding (rule fired on a sanctioned idiom),
and when the corpus does not cover all four D rule families plus both
waiver-hygiene rules.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import frontend_internal
from cpp_model import RepoIndex, build_model
from waivers import apply_waivers, collect_waivers

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
_MARKER_RE = re.compile(r"expect-next-line((?:\[[A-Z]\d\])+)")
REQUIRED_COVERAGE = {"D1", "D2", "D3", "D4", "W1", "W2"}


def expected_findings(text: str) -> set[tuple[int, str]]:
    out: set[tuple[int, str]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _MARKER_RE.search(line)
        if m:
            for rule in re.findall(r"\[([A-Z]\d)\]", m.group(1)):
                out.add((lineno + 1, rule))
    return out


def run() -> int:
    fixtures = sorted(FIXTURE_DIR.glob("*.cpp"))
    if not fixtures:
        print(f"lcrb_analyze --self-test: no fixtures in {FIXTURE_DIR}",
              file=sys.stderr)
        return 2

    failures = 0
    covered: set[str] = set()
    for f in fixtures:
        text = f.read_text(encoding="utf-8")
        expected = expected_findings(text)
        model = build_model(str(f), text)
        repo = RepoIndex()
        repo.add_model(model)

        findings = frontend_internal.analyze_model(
            model, repo, rng_home=False)
        findings = apply_waivers(
            findings, collect_waivers(str(f), model.comments))

        got = {(x.line, x.rule) for x in findings}
        missed = expected - got
        spurious = got - expected
        status = "ok" if not missed and not spurious else "FAIL"
        print(f"  [{status}] {f.name}: {len(expected)} seeded, "
              f"{len(got)} flagged")
        for line, rule in sorted(missed):
            print(f"         missed seed: {f.name}:{line} [{rule}]")
        for line, rule in sorted(spurious):
            print(f"         spurious:    {f.name}:{line} [{rule}]")
        if missed or spurious:
            failures += 1
        covered |= {r for (_, r) in expected}

    uncovered = REQUIRED_COVERAGE - covered
    if uncovered:
        print(f"  [FAIL] corpus does not seed rule(s): "
              f"{', '.join(sorted(uncovered))}")
        failures += 1

    verdict = "passed" if failures == 0 else f"FAILED ({failures})"
    print(f"lcrb_analyze self-test {verdict} "
          f"[{len(fixtures)} fixtures]")
    return 0 if failures == 0 else 1
