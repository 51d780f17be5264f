#!/usr/bin/env python3
"""Regression gates over recorded google-benchmark JSON.

Graph record (default): reads bench_micro_graph's JSON (bench/BENCH_graph.json
in the repo, or the freshly recorded build/BENCH_graph.json in CI) and
enforces the two compressed-backend acceptance bounds:

  * space   — BM_EfCompress's ef_bytes_per_arc counter stays at or under
              6 bytes/arc AND at least 2.5x smaller than csr_bytes_per_arc
              on the largest recorded graph;
  * kernel  — BM_KernelTraversal on the EfGraph backend (/1 rows) runs
              within 2x of the CSR backend (/0 rows) by cpu_time, compared
              at equal graph size;
  * opoao   — BM_KernelOpoao's forward runs on the EfGraph backend
              (rr:0/ef:1) stay within MAX_OPOAO_SLOWDOWN of the CSR row
              (rr:0/ef:0) by cpu_time. OPOAO indexes rows where the
              traversal kernel walks them, so this bounds EF's random
              access; the RR-set rows (rr:1) are recorded alongside.

Sigma record (--sigma): reads bench_micro_sigma's JSON and enforces the
lane-fusion bound:

  * lanes   — per gain scored, BM_SigmaLanes_Opoao (64 sets per replay
              pass) costs at most 1/3 of BM_SigmaCached_Opoao (one set per
              pass), at every recorded graph size. A ratio of two timings
              from the same run, so it does not depend on the hardware.

Median aggregates are used when the run recorded repetitions; raw rows
otherwise. Exits non-zero with a per-bound report on any violation, so CI
fails when a change regresses past the budget.

Usage: check_bench_graph.py [path/to/BENCH_graph.json]
       check_bench_graph.py --sigma [path/to/BENCH_sigma.json]
"""

from __future__ import annotations

import json
import sys

MAX_EF_BYTES_PER_ARC = 6.0
MIN_COMPRESSION_RATIO = 2.5
MAX_KERNEL_SLOWDOWN = 2.0
# The committed record reads about 2x; 2.5x leaves room for CI hosts, and
# code that decodes a row's offsets at every pick (about 5x) fails it.
MAX_OPOAO_SLOWDOWN = 2.5
MIN_LANE_SPEEDUP = 3.0
LANES = 64  # gains per BM_SigmaLanes_Opoao iteration


def load_rows(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = doc.get("benchmarks", [])
    if not rows:
        raise SystemExit(f"{path}: no benchmark rows recorded")
    return rows


def pick(rows: list[dict], prefix: str) -> dict | None:
    """The most representative row for a benchmark name prefix: the median
    aggregate when repetitions were recorded, else the plain iteration row."""
    medians = [r for r in rows if r["name"] == f"{prefix}_median"]
    if medians:
        return medians[0]
    plain = [
        r for r in rows
        if r["name"] == prefix and r.get("run_type", "iteration") == "iteration"
    ]
    return plain[0] if plain else None


def check_space(rows: list[dict], failures: list[str]) -> None:
    sizes = sorted(
        int(r["name"].rsplit("/", 1)[1])
        for r in rows
        if r["name"].startswith("BM_EfCompress/") and r["name"].count("/") == 1
        and r.get("run_type", "iteration") == "iteration"
    )
    if not sizes:
        failures.append("BM_EfCompress rows missing from the record")
        return
    row = pick(rows, f"BM_EfCompress/{sizes[-1]}")
    ef = row["ef_bytes_per_arc"]
    csr = row["csr_bytes_per_arc"]
    ratio = csr / ef
    print(f"space:  ef={ef:.3f} B/arc csr={csr:.3f} B/arc ({ratio:.2f}x smaller)")
    if ef > MAX_EF_BYTES_PER_ARC:
        failures.append(
            f"ef_bytes_per_arc {ef:.3f} exceeds {MAX_EF_BYTES_PER_ARC}")
    if ratio < MIN_COMPRESSION_RATIO:
        failures.append(
            f"compression {ratio:.2f}x below required {MIN_COMPRESSION_RATIO}x")


def check_kernel(rows: list[dict], failures: list[str]) -> None:
    sizes = sorted(
        int(r["name"].split("/")[1])
        for r in rows
        if r["name"].startswith("BM_KernelTraversal/")
        and r["name"].endswith("/0")
        and r.get("run_type", "iteration") == "iteration"
    )
    if not sizes:
        failures.append("BM_KernelTraversal rows missing from the record")
        return
    n = sizes[-1]
    csr = pick(rows, f"BM_KernelTraversal/{n}/0")
    ef = pick(rows, f"BM_KernelTraversal/{n}/1")
    if csr is None or ef is None:
        failures.append(f"BM_KernelTraversal/{n} needs both /0 and /1 rows")
        return
    slowdown = ef["cpu_time"] / csr["cpu_time"]
    print(f"kernel: csr={csr['cpu_time']:.3f} ef={ef['cpu_time']:.3f} "
          f"{csr['time_unit']} ({slowdown:.2f}x)")
    if slowdown > MAX_KERNEL_SLOWDOWN:
        failures.append(
            f"EfGraph kernel traversal {slowdown:.2f}x slower than CSR "
            f"(budget {MAX_KERNEL_SLOWDOWN}x)")


def check_opoao(rows: list[dict], failures: list[str]) -> None:
    csr = pick(rows, "BM_KernelOpoao/rr:0/ef:0")
    ef = pick(rows, "BM_KernelOpoao/rr:0/ef:1")
    if csr is None or ef is None:
        failures.append("BM_KernelOpoao/rr:0 needs both ef:0 and ef:1 rows")
        return
    slowdown = ef["cpu_time"] / csr["cpu_time"]
    print(f"opoao:  csr={csr['cpu_time']:.3f} ef={ef['cpu_time']:.3f} "
          f"{csr['time_unit']} per forward run ({slowdown:.2f}x)")
    if slowdown > MAX_OPOAO_SLOWDOWN:
        failures.append(
            f"EfGraph OPOAO forward run {slowdown:.2f}x slower than CSR "
            f"(budget {MAX_OPOAO_SLOWDOWN}x)")


def check_sigma_lanes(rows: list[dict], failures: list[str]) -> None:
    # run_name covers records of raw repetitions and of aggregates alike.
    runs = sorted({
        r.get("run_name", r["name"]).split("/", 1)[1]
        for r in rows
        if r["name"].startswith("BM_SigmaLanes_Opoao/")
    })
    if not runs:
        failures.append("BM_SigmaLanes_Opoao rows missing from the record")
        return
    for args in runs:
        lanes = pick(rows, f"BM_SigmaLanes_Opoao/{args}")
        scalar = pick(rows, f"BM_SigmaCached_Opoao/{args}")
        if lanes is None or scalar is None:
            failures.append(f"BM_SigmaLanes_Opoao/{args} needs a "
                            f"BM_SigmaCached_Opoao/{args} row")
            continue
        per_gain = lanes["cpu_time"] / LANES
        speedup = scalar["cpu_time"] / per_gain
        print(f"lanes/{args}: scalar={scalar['cpu_time']:.3f} "
              f"lane={per_gain:.3f} {scalar['time_unit']} per gain "
              f"({speedup:.2f}x)")
        if speedup < MIN_LANE_SPEEDUP:
            failures.append(
                f"lane replay {speedup:.2f}x faster per gain at {args} "
                f"(required {MIN_LANE_SPEEDUP}x)")


def main(argv: list[str]) -> int:
    args = argv[1:]
    if args and args[0] == "--sigma":
        path = args[1] if len(args) > 1 else "bench/BENCH_sigma.json"
        checks = [check_sigma_lanes]
        ok = "ok: lane-fusion bound holds"
    else:
        path = args[0] if args else "bench/BENCH_graph.json"
        checks = [check_space, check_kernel, check_opoao]
        ok = "ok: compressed-backend bounds hold"
    rows = load_rows(path)
    failures: list[str] = []
    for check in checks:
        check(rows, failures)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print(ok)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
