"""Internal (dependency-free) front end: rule traversals over FileModel.

Resolution is deliberately conservative: a finding requires the iterated /
written name to *resolve* — to an in-scope declaration, a categorized
alias, or an unambiguous repo-index entry. Unresolvable names produce no
finding (a silent miss is recoverable by TSan;
a false positive erodes trust in the gate).
"""

from __future__ import annotations

from cpp_model import (BANNED_RNG, FP_TYPES, FileModel, Lambda, ORDERED_ASSOC,
                       RepoIndex)
from lexer import Token, is_fp_literal
from rules import Finding

# begin-family only: `.end()`/`.cend()` appear alone in find()-compare
# idioms, which are lookups, not walks; a real iterator walk always
# touches .begin().
ITER_METHODS = {"begin", "cbegin", "rbegin", "crbegin"}
WRITE_METHODS = {"push_back", "emplace_back", "insert", "emplace", "clear",
                 "resize", "erase", "pop_back", "append"}
COMPOUND_OPS = {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
# rand-like names that are only suspicious when called.
CALL_ONLY_RNG = {"rand", "srand", "rand_r", "drand48", "lrand48"}


def _prev(tokens: list[Token], i: int) -> Token | None:
    return tokens[i - 1] if i > 0 else None


def _nxt(tokens: list[Token], i: int) -> Token | None:
    return tokens[i + 1] if i + 1 < len(tokens) else None


def _is_member_access(tokens: list[Token], i: int) -> bool:
    p = _prev(tokens, i)
    return p is not None and p.kind == "punct" and p.text in (".", "->")


def _is_qualified_std(tokens: list[Token], i: int) -> bool:
    """tokens[i] is an ident; True when written as std::ident (possibly
    std :: with whitespace, which the lexer already collapsed)."""
    if i >= 2 and tokens[i - 1].text == "::" and tokens[i - 2].text == "std":
        return True
    return False


def _base_name(tokens: list[Token], i: int) -> tuple[str, int] | None:
    """For an expression ending at ident tokens[i], returns the last path
    component name and its index: `obj.map_` -> ('map_', i), `*p` -> name.
    Returns None for calls/temporaries we cannot name."""
    t = tokens[i]
    if t.kind != "ident":
        return None
    return t.text, i


def _target_of_range_for(m: FileModel, open_paren: int) -> tuple[str, int] | None:
    """Range-for target: `for ( decl : TARGET )` -> last ident of TARGET."""
    close = m.match.get(open_paren)
    if close is None:
        return None
    # Find the top-level ':' inside the parens ('::' is a single token).
    depth_ok_colon = None
    j = open_paren + 1
    while j < close:
        t = m.tokens[j]
        if t.kind == "punct":
            if t.text in ("(", "[", "{"):
                j = m.match.get(j, j)
            elif t.text == ":":
                depth_ok_colon = j
                break
            elif t.text == "?":  # ternary — not a range-for
                return None
        j += 1
    if depth_ok_colon is None:
        return None
    # Last identifier of the target expression, skipping a trailing call.
    k = close - 1
    while k > depth_ok_colon:
        t = m.tokens[k]
        if t.kind == "ident":
            # `foo()` — a call result; only resolvable via decl of foo.
            return t.text, k
        if t.kind == "punct" and t.text in (")", "]"):
            k = m.rmatch.get(k, k)
        k -= 1
    return None


def _resolve_cat(m: FileModel, repo: RepoIndex | None, name: str,
                 idx: int) -> str | None:
    return m.category_of(name, idx, repo)


def _subscript_is_slot(m: FileModel, lam: Lambda, open_br: int) -> bool:
    """True when the subscript expression `[...]` mentions a lambda
    parameter or a name declared inside the lambda body — the sanctioned
    per-index slot pattern."""
    close = m.match.get(open_br)
    if close is None:
        return True  # be permissive on unparsable code
    for j in range(open_br + 1, close):
        t = m.tokens[j]
        if t.kind != "ident":
            continue
        if t.text in lam.params:
            return True
        d = m.decl_for(t.text, j)
        if d is not None and lam.body_open <= d.tok <= lam.body_close:
            return True
    return False


def analyze_model(m: FileModel, repo: RepoIndex | None,
                  rng_home: bool = False) -> list[Finding]:
    tokens = m.tokens
    n = len(tokens)
    findings: list[Finding] = []

    def add(rule: str, tok: Token, detail: str) -> None:
        findings.append(Finding(m.path, tok.line, tok.col, rule, detail))

    # ---- D1: unordered iteration -----------------------------------------
    for i, t in enumerate(tokens):
        if t.kind == "ident" and t.text == "for" and _nxt(tokens, i) is not None \
                and tokens[i + 1].text == "(":
            tgt = _target_of_range_for(m, i + 1)
            if tgt is not None:
                name, idx = tgt
                if _resolve_cat(m, repo, name, idx) == "unordered":
                    add("D1", tokens[idx], f"'{name}' (range-for)")
        elif t.kind == "ident" and t.text in ITER_METHODS \
                and _is_member_access(tokens, i) \
                and _nxt(tokens, i) is not None and tokens[i + 1].text == "(":
            base_i = i - 2
            if base_i >= 0 and tokens[base_i].kind == "ident":
                name = tokens[base_i].text
                if _resolve_cat(m, repo, name, base_i) == "unordered":
                    add("D1", tokens[base_i], f"'{name}' (.{t.text}())")

    # ---- D2: shared FP accumulation --------------------------------------
    # Context-free parts: atomic<float/double>, parallel STL.
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if t.text == "atomic" and _nxt(tokens, i) is not None \
                and tokens[i + 1].text == "<":
            j = i + 2
            while j < n and tokens[j].text not in (">", ";"):
                if tokens[j].kind == "ident" and tokens[j].text in FP_TYPES:
                    add("D2", t, f"(std::atomic<{tokens[j].text}>)")
                    break
                j += 1
        elif t.text in ("reduce", "transform_reduce") and _is_qualified_std(tokens, i):
            add("D2", t, f"(std::{t.text}: unspecified operand order)")
        elif t.text == "execution" and _is_qualified_std(tokens, i):
            add("D2", t, "(std::execution parallel policy)")
        elif t.text == "accumulate" and _is_qualified_std(tokens, i) \
                and _nxt(tokens, i) is not None and tokens[i + 1].text == "(":
            close = m.match.get(i + 1)
            if close is not None:
                for j in range(i + 2, close):
                    tj = tokens[j]
                    fp = is_fp_literal(tj) or (
                        tj.kind == "ident"
                        and _resolve_cat(m, repo, tj.text, j) == "fp")
                    if fp:
                        add("D2", t, "(std::accumulate over floating point)")
                        break

    # Parallel-lambda traversal (shared with D4).
    for lam in m.lambdas:
        if not lam.parallel:
            continue
        # A lock covers a write only while its declaration is visible: from
        # the guard to the end of the block that declares it.
        lock_spans = [(d.tok, d.vis_end) for d in m.decls
                      if d.category == "lock"
                      and lam.body_open <= d.tok <= lam.body_close]

        j = lam.body_open + 1
        while j < lam.body_close:
            t = tokens[j]
            if t.kind != "ident":
                j += 1
                continue
            name = t.text
            nxt = _nxt(tokens, j)

            # Written-through-subscript slot pattern: NAME [ idx ] op
            op_idx = j + 1
            subscripted = False
            if nxt is not None and nxt.text == "[":
                close = m.match.get(j + 1)
                if close == j + 2:
                    # `T name[] = {...}`: an array declarator, not a write.
                    j += 1
                    continue
                if close is not None:
                    subscripted = True
                    slot = _subscript_is_slot(m, lam, j + 1)
                    op_idx = close + 1
                else:
                    j += 1
                    continue

            op = tokens[op_idx].text if op_idx < n else ""
            is_compound = op in COMPOUND_OPS
            is_assign = op == "=" and (op_idx + 1 >= n or tokens[op_idx + 1].text != "=")
            is_incdec = op in ("++", "--") or (
                _prev(tokens, j) is not None and tokens[j - 1].text in ("++", "--"))
            is_method_write = (not subscripted and nxt is not None
                               and nxt.text in (".", "->")
                               and j + 2 < n and tokens[j + 2].kind == "ident"
                               and tokens[j + 2].text in WRITE_METHODS
                               and j + 3 < n and tokens[j + 3].text == "(")

            if not (is_compound or is_assign or is_incdec or is_method_write):
                j += 1
                continue
            if name in lam.params:
                j += 1
                continue
            d = m.decl_for(name, j)
            declared_inside = d is not None and lam.body_open <= d.tok <= lam.body_close
            # `obj.member` written through a task-local object (or a
            # parameter) writes that object, whatever `member` names elsewhere.
            root = m.member_root(j)
            if root is not None:
                root_name = tokens[root].text
                rd = m.decl_for(root_name, root)
                declared_inside = root_name in lam.params or (
                    rd is not None
                    and lam.body_open <= rd.tok <= lam.body_close)
            if declared_inside:
                j += 1
                continue
            cat = d.category if d is not None else (
                m.aliases.get(name) or (repo.category(name) if repo else None))
            if cat is not None and cat.startswith("same:"):
                cat = m.category_of(name, j, repo)
            if cat in ("atomic", "lock"):
                j += 1
                continue
            if subscripted:
                if slot:
                    j += 1
                    continue
                # Subscripted write with a loop-invariant index: treat as a
                # shared write, not a slot.
            if d is None and cat is None and not name.endswith("_"):
                # Unresolvable non-member name: skip (conservative).
                j += 1
                continue

            locked = any(tok < j <= end for tok, end in lock_spans)
            if is_compound and op in ("+=", "-=") and cat == "fp":
                # A lock serializes the adds but does not fix their ORDER —
                # the sum is still scheduling-dependent, so D2 applies even
                # under a mutex.
                add("D2", t, f"('{name}' {op})")
            elif not locked:
                what = f"'{name}'"
                if is_method_write:
                    what = f"'{name}.{tokens[j + 2].text}()'"
                add("D4", t, what)
            j += 1

    # ---- D3: banned nondeterminism sources -------------------------------
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if _is_member_access(tokens, i):
            continue
        name = t.text
        called = _nxt(tokens, i) is not None and tokens[i + 1].text == "("
        if name in BANNED_RNG and not rng_home:
            if name in CALL_ONLY_RNG and not called:
                continue
            # A declared variable that merely *shadows* a banned name is
            # still suspicious only when the type itself is banned — the
            # names in BANNED_RNG minus CALL_ONLY_RNG are all type names.
            add("D3", t, f"'{name}'")
        elif name in ("time", "clock") and called and not rng_home:
            # Only call sites: `void time(int)` / `Scheduler::time(...)` are
            # declarations. A call is preceded by punctuation or `std::`.
            p = _prev(tokens, i)
            decl_like = p is not None and (
                p.kind == "ident"
                or (p.text == "::" and not _is_qualified_std(tokens, i)))
            if not decl_like:
                add("D3", t, f"'{name}()' (wall clock)")
        elif name == "now" and called and i >= 2 \
                and tokens[i - 1].text == "::" \
                and tokens[i - 2].kind == "ident" \
                and tokens[i - 2].text.lower().endswith("clock"):
            add("D3", t, f"'{tokens[i - 2].text}::now()' (wall clock)")
        elif name == "hash" and _is_qualified_std(tokens, i):
            add("D3", t, "'std::hash' (implementation-defined order)")
        elif name in ORDERED_ASSOC and _is_qualified_std(tokens, i) \
                and _nxt(tokens, i) is not None and tokens[i + 1].text == "<":
            # Pointer-keyed ordered container: first template arg ends in '*'.
            j = i + 2
            depth = 1
            last = None
            while j < n and depth > 0:
                tx = tokens[j].text
                if tx == "<":
                    depth += 1
                elif tx in (">", ">>"):
                    depth -= 2 if tx == ">>" else 1
                elif tx == "," and depth == 1:
                    break
                elif tx == ";":
                    break
                elif tokens[j].kind in ("ident", "punct"):
                    last = tx
                j += 1
            if last == "*":
                add("D3", t,
                    f"(std::{name} keyed on a pointer: address order)")

    return findings
