"""det-ok waiver handling.

One accepted spelling, on the same line as the flagged construct:

    // det-ok[D1]: sink is a max-by-key, order-insensitive

A waiver suppresses exactly the rule it names and is checked for staleness
(a waiver whose rule no longer fires on that line is itself a finding,
W2). It must carry a justification string after the colon; one shorter
than 10 characters counts as empty ("ok" and "safe" do not explain
anything). A waiver without a justification, or without a rule (a bare
`det-ok:`), waives nothing and is a W1 finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from rules import Finding

_WAIVER_RE = re.compile(r"det-ok(?:\[(D[1-4])\])?\s*:?\s*(.*)", re.DOTALL)

MIN_JUSTIFICATION = 10


@dataclass
class Waiver:
    path: str
    line: int
    col: int
    rule: str | None       # None = bare form: a W1 finding, waives nothing
    justification: str
    used: bool = False


def collect_waivers(path: str, comments) -> list[Waiver]:
    out = []
    for c in comments:
        m = _WAIVER_RE.search(c.text)
        if m is None:
            continue
        out.append(Waiver(path=path, line=c.line, col=c.col,
                          rule=m.group(1),
                          justification=m.group(2).strip()))
    return out


def apply_waivers(findings: list[Finding],
                  waivers: list[Waiver]) -> list[Finding]:
    """Filters suppressed findings; appends W1 (missing justification) and
    W2 (stale scoped waiver) findings for the waivers themselves."""
    by_line: dict[tuple[str, int], list[Waiver]] = {}
    for w in waivers:
        by_line.setdefault((w.path, w.line), []).append(w)

    kept: list[Finding] = []
    for f in findings:
        ws = by_line.get((f.path, f.line), [])
        suppressed = False
        for w in ws:
            if w.rule is not None and w.rule == f.rule:
                w.used = True
                suppressed = True
        if not suppressed:
            kept.append(f)

    for w in waivers:
        if w.rule is None or len(w.justification) < MIN_JUSTIFICATION:
            kept.append(Finding(w.path, w.line, w.col, "W1",
                                w.rule or "D<rule>"))
        elif not w.used:
            kept.append(Finding(w.path, w.line, w.col, "W2", w.rule))
    return kept
