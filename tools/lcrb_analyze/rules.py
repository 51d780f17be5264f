"""Finding type, rule metadata, and diagnostic messages.

The front end emits Finding objects; formatting (clang-style text or JSON)
lives here.
"""

from __future__ import annotations

from dataclasses import dataclass

RULE_NAMES = {
    "D1": "unordered-iteration",
    "D2": "shared-fp-accum",
    "D3": "banned-nondeterminism",
    "D4": "unsynchronized-write",
    "W1": "waiver-missing-justification",
    "W2": "stale-waiver",
}

MESSAGES = {
    "D1": ("iteration over unordered container {detail}: hash order is "
           "libstdc++-version- and size-dependent, so anything assembled "
           "from it can silently change; iterate a sorted key list or use "
           "a dense/ordered structure (order-insensitive sinks may be "
           "waived with `det-ok[D1]: <why>`)"),
    "D2": ("floating-point accumulation {detail} inside a ThreadPool task: "
           "scheduling order becomes the FP operand order, which breaks "
           "bit-identical replay; write per-index slots and reduce "
           "serially (src/util/reduce.h fixed_order_sum)"),
    "D3": ("banned nondeterminism source {detail}: all randomness must "
           "flow from seeded lcrb::Rng streams (src/util/rng.h) and no "
           "output may depend on wall-clock, address order, or std::hash"),
    "D4": ("write to {detail} from a ThreadPool task with no lock or "
           "atomic in scope and no per-index slot discipline: probable "
           "data race (pre-TSan check; waive with `det-ok[D4]: <why>` "
           "only with a proof)"),
    "W1": ("det-ok waiver without a justification string: write "
           "`det-ok[{detail}]: <why this is safe>`"),
    "W2": ("stale det-ok[{detail}] waiver: rule {detail} does not fire on "
           "this line anymore; delete the waiver"),
}


@dataclass
class Finding:
    path: str
    line: int
    col: int
    rule: str     # 'D1'..'D4', 'W1', 'W2'
    detail: str   # interpolated into the rule message

    @property
    def message(self) -> str:
        return MESSAGES[self.rule].format(detail=self.detail)

    def text(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"[{self.rule}/{RULE_NAMES[self.rule]}] {self.message}")

    def to_json(self) -> dict:
        return {
            "file": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": RULE_NAMES[self.rule],
            "message": self.message,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
