"""lcrb_analyze — semantic determinism analyzer for the LCRB codebase.

A front-end/rules split: a self-contained front end (no dependencies
beyond the standard library) tokenizes the sources, tracks scopes,
declarations, typedef/using aliases, lambda captures and ThreadPool
parallel regions, and resolves types through a repo-wide declaration
index. The rule layer (rules.py) turns its events into findings, and the
waiver layer (waivers.py) applies `det-ok` suppressions with mandatory
justification strings.

Rules enforced repo-wide by default (docs/development.md has examples):

  D1 unordered-iteration   range-for / iterator walks over
                           std::unordered_{map,set}, resolved through
                           typedefs, auto and members declared elsewhere
  D2 shared-fp-accum       floating-point accumulation reachable from a
                           ThreadPool::parallel_for / submit lambda, FP
                           std::accumulate/reduce, std::atomic<float/double>
  D3 banned-nondeterminism hidden entropy (std::rand, random_device, ...)
                           outside src/util/rng.*, wall-clock reads,
                           pointer-keyed ordered containers, std::hash
  D4 unsynchronized-write  writes to captured state inside ThreadPool task
                           lambdas with no lock in scope, no atomic and no
                           per-index slot discipline (cheap pre-TSan pass)

  W1 waiver-missing-justification   det-ok without a justification string
  W2 stale-waiver                   rule-scoped det-ok that suppresses
                                    nothing
"""

__version__ = "1.0"

RULES = {
    "D1": "unordered-iteration",
    "D2": "shared-fp-accum",
    "D3": "banned-nondeterminism",
    "D4": "unsynchronized-write",
    "W1": "waiver-missing-justification",
    "W2": "stale-waiver",
}
