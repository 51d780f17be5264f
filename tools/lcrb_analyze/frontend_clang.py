"""libclang front end: the same D1–D4 rules over a real AST.

Used when the `clang` Python bindings can be imported AND a libclang
shared library resolves (the CI analyzer job installs python3-clang-15 +
libclang-15 and points CLANG_LIBRARY_FILE at it). Compile flags come from
a CMake-exported compile_commands.json; headers fall back to
['-std=c++20', '-I<repo>/src'].

Each file is parsed independently; any exception is raised as
FrontendUnavailable so the caller can fall back to the internal front end
for that file (the gate must not go green because parsing broke, so the
fallback re-analyzes rather than skips).
"""

from __future__ import annotations

import json
import os
import shlex
from pathlib import Path

from rules import Finding

# begin-family only: `.end()` alone is the find()-compare idiom (a lookup).
ITER_METHODS = {"begin", "cbegin", "rbegin", "crbegin"}
WRITE_METHODS = {"push_back", "emplace_back", "insert", "emplace", "clear",
                 "resize", "erase", "pop_back", "append"}
BANNED_RNG_DECLS = {"rand", "srand", "rand_r", "random_device", "mt19937",
                    "mt19937_64", "minstd_rand", "minstd_rand0",
                    "default_random_engine", "random_shuffle", "drand48",
                    "lrand48"}
LOCK_TYPES = ("lock_guard", "unique_lock", "scoped_lock", "shared_lock")


class FrontendUnavailable(RuntimeError):
    pass


def _import_cindex():
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError as e:
        raise FrontendUnavailable(f"clang bindings not importable: {e}")
    lib = os.environ.get("CLANG_LIBRARY_FILE")
    if lib:
        try:
            cindex.Config.set_library_file(lib)
        except Exception:
            pass
    try:
        cindex.Index.create()
    except Exception as e:  # libclang .so missing / version mismatch
        raise FrontendUnavailable(f"libclang not loadable: {e}")
    return cindex


def available() -> bool:
    try:
        _import_cindex()
        return True
    except FrontendUnavailable:
        return False


def _load_compile_args(compile_commands: str | None,
                       path: str, repo_root: Path) -> list[str]:
    if compile_commands:
        try:
            entries = json.loads(Path(compile_commands).read_text())
            want = str(Path(path).resolve())
            for e in entries:
                f = str((Path(e.get("directory", ".")) / e["file"]).resolve())
                if f == want:
                    args = e.get("arguments")
                    if args is None:
                        args = shlex.split(e.get("command", ""))
                    # Drop compiler, -c/-o pairs and the input file itself.
                    out, skip = [], False
                    for a in args[1:]:
                        if skip:
                            skip = False
                            continue
                        if a == "-c":
                            continue
                        if a == "-o":
                            skip = True
                            continue
                        if a == e["file"] or a.endswith(Path(e["file"]).name):
                            continue
                        out.append(a)
                    return out
            # Headers are not in the database; fall through to defaults.
        except Exception:
            pass
    return ["-std=c++20", f"-I{repo_root / 'src'}", "-xc++"]


def _canonical(t) -> str:
    try:
        return t.get_canonical().spelling
    except Exception:
        return t.spelling


def _is_unordered(type_spelling: str) -> bool:
    return "unordered_map<" in type_spelling \
        or "unordered_set<" in type_spelling \
        or "unordered_multimap<" in type_spelling \
        or "unordered_multiset<" in type_spelling


def _is_fp(type_spelling: str) -> bool:
    s = type_spelling.replace("const", "").strip()
    return s in ("double", "float", "long double")


def analyze_file(path: str, repo_root: Path,
                 compile_commands: str | None,
                 rng_home: bool = False) -> list[Finding]:
    cindex = _import_cindex()
    CursorKind = cindex.CursorKind

    index = cindex.Index.create()
    args = _load_compile_args(compile_commands, path, repo_root)
    try:
        tu = index.parse(path, args=args,
                         options=cindex.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0)
    except Exception as e:
        raise FrontendUnavailable(f"parse failed: {e}")
    if tu is None:
        raise FrontendUnavailable("parse returned no translation unit")

    findings: list[Finding] = []
    want_file = str(Path(path).resolve())

    def in_this_file(cursor) -> bool:
        loc = cursor.location
        return loc.file is not None and str(Path(loc.file.name).resolve()) == want_file

    def add(rule: str, cursor, detail: str) -> None:
        loc = cursor.location
        findings.append(Finding(path, loc.line, loc.column, rule, detail))

    def extent_range(cursor) -> tuple[int, int]:
        e = cursor.extent
        return e.start.offset, e.end.offset

    def tokens_text(cursor) -> list[str]:
        try:
            return [t.spelling for t in cursor.get_tokens()]
        except Exception:
            return []

    # Collect lambda extents that are arguments of parallel_for/submit.
    parallel_lambdas: list[tuple[int, int, object]] = []

    def find_parallel_lambdas(cursor) -> None:
        for c in cursor.walk_preorder():
            if not in_this_file(c):
                continue
            if c.kind == CursorKind.CALL_EXPR and c.spelling in (
                    "parallel_for", "submit"):
                for sub in c.walk_preorder():
                    # A named task (`auto body = [&](...) {...};` passed as
                    # `body`) reaches the call as a reference to its VarDecl.
                    ref = sub.referenced if sub.kind == CursorKind.DECL_REF_EXPR \
                        else None
                    lams = ref.walk_preorder() if ref is not None \
                        and ref.kind == CursorKind.VAR_DECL else [sub]
                    for lam in lams:
                        if lam.kind == CursorKind.LAMBDA_EXPR \
                                and in_this_file(lam):
                            s, e = extent_range(lam)
                            parallel_lambdas.append((s, e, lam))

    find_parallel_lambdas(tu.cursor)

    def in_parallel_lambda(cursor) -> tuple[int, int] | None:
        s, e = extent_range(cursor)
        for ls, le, _ in parallel_lambdas:
            if ls <= s and e <= le:
                return ls, le
        return None

    def ref_decl_outside(cursor, span: tuple[int, int]):
        """Referenced declaration of a DECL_REF/MEMBER_REF, if it lies
        outside `span` (i.e. shared state from the lambda's viewpoint)."""
        ref = cursor.referenced
        if ref is None:
            return None
        loc = ref.location
        if loc.file is None:
            return ref  # member of another TU: definitely outside
        if str(Path(loc.file.name).resolve()) != want_file:
            return ref
        off = loc.offset
        if span[0] <= off <= span[1]:
            return None
        return ref

    locks_before: dict[tuple[int, int], int] = {}
    for ls, le, lam in parallel_lambdas:
        first = None
        for c in lam.walk_preorder():
            if c.kind == CursorKind.VAR_DECL and any(
                    lt in _canonical(c.type) for lt in LOCK_TYPES):
                off = c.location.offset
                if first is None or off < first:
                    first = off
        if first is not None:
            locks_before[(ls, le)] = first

    for c in tu.cursor.walk_preorder():
        if not in_this_file(c):
            continue
        kind = c.kind

        # ---- D1 ----------------------------------------------------------
        if kind == CursorKind.CXX_FOR_RANGE_STMT:
            children = list(c.get_children())
            if children:
                rng = children[-2] if len(children) >= 2 else children[0]
                ts = _canonical(rng.type)
                if _is_unordered(ts):
                    add("D1", c, f"of type '{ts[:80]}' (range-for)")
        elif kind == CursorKind.CXX_MEMBER_CALL_EXPR \
                and c.spelling in ITER_METHODS:
            children = list(c.get_children())
            if children:
                base_t = _canonical(children[0].type)
                if _is_unordered(base_t):
                    add("D1", c, f"of type '{base_t[:80]}' (.{c.spelling}())")

        # ---- D2 ----------------------------------------------------------
        elif kind in (CursorKind.VAR_DECL, CursorKind.FIELD_DECL):
            ts = _canonical(c.type)
            if "atomic<" in ts and ("double" in ts or "float" in ts):
                add("D2", c, f"(std::atomic over '{ts[:60]}')")
        elif kind == CursorKind.CALL_EXPR and c.spelling in (
                "reduce", "transform_reduce"):
            add("D2", c, f"(std::{c.spelling}: unspecified operand order)")
        elif kind == CursorKind.CALL_EXPR and c.spelling == "accumulate":
            for a in c.get_arguments():
                if _is_fp(_canonical(a.type)):
                    add("D2", c, "(std::accumulate over floating point)")
                    break
        elif kind in (CursorKind.COMPOUND_ASSIGNMENT_OPERATOR,
                      CursorKind.UNARY_OPERATOR):
            span = in_parallel_lambda(c)
            if span is not None:
                toks = tokens_text(c)
                if kind == CursorKind.UNARY_OPERATOR \
                        and not any(t in ("++", "--") for t in toks):
                    span = None  # deref/negation etc.: not a write
            if span is not None:
                children = list(c.get_children())
                lhs = children[0] if children else None
                subscripted = lhs is not None and any(
                    s.kind == CursorKind.ARRAY_SUBSCRIPT_EXPR
                    for s in [lhs] + list(lhs.walk_preorder()))
                target = None
                if lhs is not None and not subscripted:
                    for sub in [lhs] + list(lhs.walk_preorder()):
                        if sub.kind in (CursorKind.DECL_REF_EXPR,
                                        CursorKind.MEMBER_REF_EXPR):
                            target = sub
                            break
                if target is not None:
                    ref = ref_decl_outside(target, span)
                    if ref is not None and "atomic" not in _canonical(ref.type):
                        op = next((t for t in toks if t in
                                   ("+=", "-=", "*=", "/=", "++", "--")), "?=")
                        lock = locks_before.get(span)
                        locked = lock is not None and c.location.offset >= lock
                        if op in ("+=", "-=") \
                                and _is_fp(_canonical(target.type)):
                            # A lock serializes but does not order the adds;
                            # D2 applies even under a mutex.
                            add("D2", c, f"('{target.spelling}' {op})")
                        elif not locked:
                            add("D4", c, f"'{target.spelling}'")

        # ---- D3 ----------------------------------------------------------
        elif kind == CursorKind.DECL_REF_EXPR and not rng_home \
                and c.spelling in BANNED_RNG_DECLS:
            add("D3", c, f"'{c.spelling}'")
        elif kind == CursorKind.CALL_EXPR and not rng_home \
                and c.spelling in ("time", "clock"):
            add("D3", c, f"'{c.spelling}()' (wall clock)")
        elif kind == CursorKind.CALL_EXPR and c.spelling == "now":
            parent_t = ""
            ref = c.referenced
            if ref is not None and ref.semantic_parent is not None:
                parent_t = ref.semantic_parent.spelling
            if parent_t.lower().endswith("clock"):
                add("D3", c, f"'{parent_t}::now()' (wall clock)")
        elif kind in (CursorKind.VAR_DECL, CursorKind.FIELD_DECL):
            pass  # handled above for atomic; map<T*> below via type check
        if kind in (CursorKind.VAR_DECL, CursorKind.FIELD_DECL):
            # Sugared spelling: canonicalization would lose the typedef name
            # (std::mt19937 -> mersenne_twister_engine<...>).
            sugar = c.type.spelling
            if not rng_home:
                for banned in BANNED_RNG_DECLS:
                    if sugar == f"std::{banned}" \
                            or sugar.startswith(f"std::{banned}<") \
                            or sugar == banned:
                        add("D3", c, f"'{banned}'")
                        break
            ts = _canonical(c.type)
            for assoc in ("std::map<", "std::set<",
                          "std::multimap<", "std::multiset<"):
                if ts.startswith(assoc):
                    first_arg = ts[len(assoc):].split(",", 1)[0].strip()
                    if first_arg.endswith("*"):
                        add("D3", c,
                            f"({assoc[:-1]} keyed on '{first_arg}': "
                            "address order)")
            if "std::hash<" in ts:
                add("D3", c, "'std::hash' (implementation-defined order)")

        # ---- D4 ----------------------------------------------------------
        if kind == CursorKind.BINARY_OPERATOR:
            span = in_parallel_lambda(c)
            if span is not None:
                toks = tokens_text(c)
                if "=" in toks:
                    children = list(c.get_children())
                    if children:
                        lhs = children[0]
                        # Skip subscripted slot writes entirely: the internal
                        # front end applies the finer slot-index test; here
                        # the AST gives us cheap conservatism.
                        sub = any(s.kind == CursorKind.ARRAY_SUBSCRIPT_EXPR
                                  for s in [lhs] + list(lhs.walk_preorder()))
                        if not sub:
                            target = None
                            for s in [lhs] + list(lhs.walk_preorder()):
                                if s.kind in (CursorKind.DECL_REF_EXPR,
                                              CursorKind.MEMBER_REF_EXPR):
                                    target = s
                                    break
                            if target is not None:
                                ref = ref_decl_outside(target, span)
                                if ref is not None \
                                        and "atomic" not in _canonical(ref.type):
                                    lock = locks_before.get(span)
                                    if lock is None or c.location.offset < lock:
                                        add("D4", c, f"'{target.spelling}'")
        elif kind == CursorKind.CXX_MEMBER_CALL_EXPR \
                and c.spelling in WRITE_METHODS:
            span = in_parallel_lambda(c)
            if span is not None:
                children = list(c.get_children())
                if children:
                    target = None
                    for s in [children[0]] + list(children[0].walk_preorder()):
                        if s.kind in (CursorKind.DECL_REF_EXPR,
                                      CursorKind.MEMBER_REF_EXPR):
                            target = s
                            break
                    if target is not None:
                        ref = ref_decl_outside(target, span)
                        if ref is not None \
                                and "atomic" not in _canonical(ref.type):
                            lock = locks_before.get(span)
                            if lock is None or c.location.offset < lock:
                                add("D4", c,
                                    f"'{target.spelling}.{c.spelling}()'")

    return findings
