"""Command-line driver.

    python3 tools/lcrb_analyze [paths...]        # default: src tools tests
    python3 tools/lcrb_analyze --json
    python3 tools/lcrb_analyze --self-test
    python3 tools/lcrb_analyze --list-waivers

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import frontend_internal
from cpp_model import RepoIndex, build_model
from rules import Finding, sort_findings
from waivers import apply_waivers, collect_waivers

ANALYZE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")
DEFAULT_PATHS = ("src", "tools", "tests")

# The one module allowed to touch raw entropy sources: it defines the
# seeded generators everything else must use.
RNG_HOME_SUFFIXES = ("src/util/rng.h", "src/util/rng.cpp")


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent.parent


def collect_files(paths: list[str], root: Path) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if not path.is_absolute():
            path = root / p
        if path.is_dir():
            files.extend(sorted(
                f for f in path.rglob("*")
                if f.suffix in ANALYZE_EXTENSIONS and f.is_file()
                # The analyzer's own fixture corpus is deliberately dirty.
                and "lcrb_analyze/fixtures" not in f.as_posix()))
        elif path.is_file():
            files.append(path)
        else:
            print(f"lcrb_analyze: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return files


def is_rng_home(path: Path) -> bool:
    p = path.as_posix()
    return any(p.endswith(s) for s in RNG_HOME_SUFFIXES)


def analyze_paths(paths: list[str], root: Path | None = None) -> list[Finding]:
    root = root or repo_root()
    files = collect_files(paths, root)

    models = {}
    for f in files:
        text = f.read_text(encoding="utf-8", errors="replace")
        models[f] = build_model(str(f.relative_to(root) if f.is_relative_to(root) else f), text)

    repo = RepoIndex()
    for m in models.values():
        repo.add_model(m)

    findings: list[Finding] = []
    for f, m in models.items():
        file_findings = frontend_internal.analyze_model(
            m, repo, rng_home=is_rng_home(f))
        ws = collect_waivers(m.path, m.comments)
        findings.extend(apply_waivers(file_findings, ws))
    return sort_findings(findings)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="lcrb_analyze", add_help=True)
    ap.add_argument("paths", nargs="*", default=[])
    ap.add_argument("--json", action="store_true", dest="as_json")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list-waivers", action="store_true")
    args = ap.parse_args(argv[1:])

    if args.self_test:
        import selftest
        return selftest.run()

    root = repo_root()
    paths = args.paths or list(DEFAULT_PATHS)

    if args.list_waivers:
        for f in collect_files(paths, root):
            text = f.read_text(encoding="utf-8", errors="replace")
            m = build_model(str(f.relative_to(root)), text)
            for w in collect_waivers(m.path, m.comments):
                scope = f"[{w.rule}]" if w.rule else "[*]"
                print(f"{w.path}:{w.line}: det-ok{scope} {w.justification}")
        return 0

    findings = analyze_paths(paths, root=root)

    if args.as_json:
        print(json.dumps({
            "findings": [f.to_json() for f in findings],
        }, indent=2))
    else:
        for f in findings:
            print(f.text())
        if findings:
            print(f"lcrb_analyze: {len(findings)} finding(s)",
                  file=sys.stderr)
    return 1 if findings else 0
