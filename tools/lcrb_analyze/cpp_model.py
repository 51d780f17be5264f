"""Per-file semantic model + repo-wide declaration index.

The internal front end is not a C++ parser; it is a scope- and
type-tracking token analyzer. What it actually resolves:

  * brace scopes (file / class / function / lambda / block) with exact
    token extents, via a bracket-matching prepass;
  * declarations whose type matters to the rules, categorized as
    'unordered' (std::unordered_map/set, through `using`/`typedef`
    aliases), 'fp' (float/double scalars), 'atomic' (std::atomic<...>),
    'lock' (lock_guard/unique_lock/scoped_lock), 'container' (vector etc.
    — used to recognize mutation targets), each with its visibility extent;
  * `using X = ...` / `typedef ... X` aliases, expanded when categorizing;
  * lambda expressions: capture list, body extent, parameter names, and
    whether the lambda is an argument of ThreadPool::parallel_for/submit
    (the "parallel region" property rules D2/D4 key on);
  * range-for targets and .begin()/.end() iterator walks;
  * member-access roots (`block.words` starts from `block`), so a write
    through a task-local object resolves to that object;
  * a repo-wide index of class members and file-scope globals, consulted
    when a name (conventionally `foo_`) has no in-file declaration.

Unlike a same-file regex heuristic, a member declared `std::unordered_map`
in one header and iterated in another file resolves correctly, as does
`auto& m = map_;` followed by `for (auto& kv : m)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lexer import Token, lex, is_fp_literal

# Identifier sets -----------------------------------------------------------

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
FP_TYPES = {"double", "float"}
LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}
ORDERED_ASSOC = {"map", "set", "multimap", "multiset"}
MUTABLE_CONTAINERS = {"vector", "deque", "string", "list", "array"}

BANNED_RNG = {"rand", "srand", "rand_r", "random_device", "mt19937",
              "mt19937_64", "minstd_rand", "minstd_rand0",
              "default_random_engine", "random_shuffle", "drand48",
              "lrand48"}

NOT_A_DECL_NAME = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "new", "delete", "this",
    "true", "false", "nullptr", "sizeof", "alignof", "operator", "const",
    "constexpr", "static", "mutable", "volatile", "inline", "virtual",
    "override", "final", "noexcept", "public", "private", "protected",
    "class", "struct", "enum", "union", "namespace", "template",
    "typename", "using", "typedef", "friend", "explicit", "co_return",
    "co_await", "co_yield", "throw", "try", "catch", "auto", "void",
    "requires", "concept", "static_assert", "decltype", "extern",
}

TYPE_PRECEDING = {"const", "constexpr", "static", "mutable", "volatile",
                  "inline", "typename", "unsigned", "signed", "long",
                  "short", "thread_local"}


@dataclass
class Decl:
    name: str
    category: str       # 'unordered' | 'fp' | 'atomic' | 'lock' | 'other'
    tok: int            # token index of the declared name
    vis_end: int        # last token index where the decl is visible
    in_class: str | None  # enclosing class name if a member, else None
    type_text: str = ""


@dataclass
class Lambda:
    intro: int          # token index of '['
    body_open: int      # token index of '{'
    body_close: int
    by_ref: bool        # captures anything by reference ('&' in capture list)
    captures: set[str] = field(default_factory=set)  # explicitly named
    params: set[str] = field(default_factory=set)
    parallel: bool = False  # argument of parallel_for(...) / submit(...),
                            # inline or bound to a name passed there
    line: int = 0
    col: int = 0


@dataclass
class FileModel:
    path: str
    tokens: list[Token]
    comments: list          # lexer.Comment
    match: dict[int, int]   # open bracket token idx -> close idx (()/{}/[])
    rmatch: dict[int, int]  # close -> open
    decls: list[Decl]
    aliases: dict[str, str]  # alias name -> categorized base ('unordered'...)
    lambdas: list[Lambda]
    class_extents: list[tuple[int, int, str]]  # (open, close, name)

    # ---- resolution -------------------------------------------------------

    def decl_for(self, name: str, use_idx: int) -> Decl | None:
        """Innermost visible declaration of `name` at token index use_idx."""
        best: Decl | None = None
        for d in self.decls:
            if d.name != name:
                continue
            if d.tok <= use_idx <= d.vis_end:
                if best is None or d.tok > best.tok:
                    best = d
        return best

    def member_root(self, idx: int) -> int | None:
        """For a member access ending at ident tokens[idx] (`a.b.c`,
        `a[i].b`), the token index of the object the chain starts from
        (`a`); None when tokens[idx] is not a `.` access or the chain starts
        from a call, `this` or a pointer (`p->b` writes the pointee, which
        the model cannot place)."""
        root = None
        while idx >= 2 and self.tokens[idx - 1].text == ".":
            k = idx - 2
            while self.tokens[k].text == "]" and k in self.rmatch:
                k = self.rmatch[k] - 1
            if k < 0 or self.tokens[k].kind != "ident" \
                    or self.tokens[k].text == "this":
                return None
            idx = root = k
        return root

    def category_of(self, name: str, use_idx: int,
                    repo: "RepoIndex | None") -> str | None:
        # `auto& m = map_;` records category 'same:map_' — chase the chain.
        for _ in range(5):
            d = self.decl_for(name, use_idx)
            if d is not None:
                if d.category.startswith("same:"):
                    name, use_idx = d.category[5:], d.tok - 1
                    continue
                return d.category
            if name in self.aliases:
                return self.aliases[name]
            if repo is not None:
                return repo.category(name)
            return None
        return None


class RepoIndex:
    """name -> category for class members and file-scope globals, across the
    whole analyzed tree. A name is resolvable only when every recorded
    declaration agrees on its category — ambiguous names stay unresolved
    (conservative: no finding beats a false finding)."""

    def __init__(self) -> None:
        self._cats: dict[str, set[str]] = {}

    def add_model(self, m: FileModel) -> None:
        for d in m.decls:
            if d.in_class is not None or d.vis_end == len(m.tokens) - 1:
                self._cats.setdefault(d.name, set()).add(d.category)

    def category(self, name: str) -> str | None:
        cats = self._cats.get(name)
        if cats is not None and len(cats) == 1:
            return next(iter(cats))
        return None


# ---------------------------------------------------------------------------


def _match_brackets(tokens: list[Token]) -> tuple[dict[int, int], dict[int, int]]:
    pairs = {"(": ")", "{": "}", "[": "]"}
    closes = {")": "(", "}": "{", "]": "["}
    stack: list[tuple[str, int]] = []
    match: dict[int, int] = {}
    rmatch: dict[int, int] = {}
    for i, t in enumerate(tokens):
        if t.kind != "punct":
            continue
        if t.text in pairs:
            stack.append((t.text, i))
        elif t.text in closes:
            # Pop until the matching opener kind (tolerates imbalance).
            while stack:
                kind, j = stack.pop()
                if kind == closes[t.text]:
                    match[j] = i
                    rmatch[i] = j
                    break
    return match, rmatch


def _skip_template_args(tokens: list[Token], i: int,
                        match: dict[int, int]) -> int:
    """tokens[i] == '<'; returns index just past the matching '>', or i+1 if
    it does not look like template args (statement-terminating ';' hit)."""
    depth = 0
    j = i
    n = len(tokens)
    while j < n:
        t = tokens[j]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text in (">", ">>"):
                depth -= 2 if t.text == ">>" else 1
                if depth <= 0:
                    return j + 1
            elif t.text == ";":
                return i + 1
            elif t.text in ("(", "[", "{"):
                j = match.get(j, j)
        j += 1
    return i + 1


def _enclosing_brace_end(brace_stack: list[tuple[int, int]], ntokens: int) -> int:
    return brace_stack[-1][1] if brace_stack else ntokens - 1


def _looks_like_lambda_intro(tokens: list[Token], i: int) -> bool:
    """tokens[i] == '['. Distinguish lambda intro from subscript/attribute."""
    if i + 1 < len(tokens) and tokens[i + 1].text == "[":  # [[attr]]
        return False
    if i == 0:
        return True
    prev = tokens[i - 1]
    if prev.kind in ("ident", "number", "string"):
        return False
    if prev.kind == "punct" and prev.text in (")", "]", "}"):
        return False
    return True


def build_model(path: str, text: str) -> FileModel:
    tokens, comments = lex(text)
    match, rmatch = _match_brackets(tokens)
    n = len(tokens)

    decls: list[Decl] = []
    aliases: dict[str, str] = {}
    lambdas: list[Lambda] = []
    class_extents: list[tuple[int, int, str]] = []

    # -- pass 1: class extents ---------------------------------------------
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "ident" and t.text in ("class", "struct"):
            j = i + 1
            # Skip attributes and export macros; find the name.
            name = None
            while j < n and tokens[j].kind == "ident":
                name = tokens[j].text
                j += 1
                if j < n and tokens[j].text == "<":  # templated specialization
                    j = _skip_template_args(tokens, j, match)
            # Skip base-clause up to '{' or stop at ';' (fwd decl) / '(' (fn).
            while j < n and tokens[j].text not in ("{", ";", "(", ")", "}"):
                j += 1
            if j < n and tokens[j].text == "{" and name is not None:
                close = match.get(j, n - 1)
                class_extents.append((j, close, name))
        i += 1

    def enclosing_class(idx: int) -> str | None:
        best = None
        for open_, close, name in class_extents:
            if open_ < idx <= close:
                if best is None or open_ > best[0]:
                    best = (open_, name)
        return best[1] if best else None

    def param_vis_end(name_idx: int) -> int:
        """Visibility for a parameter-looking decl (followed by ',' or ')'):
        the body brace that follows the parameter list, not the enclosing
        scope. A ';' before any '{' means a bodiless declaration — the
        parameter name is visible nowhere."""
        j = name_idx + 1
        while j < n:
            tx = tokens[j].text
            if tx == "{":
                return match.get(j, n - 1)
            if tx == ";":
                return name_idx
            if tx in ("(", "["):
                j = match.get(j, j)
            j += 1
        return name_idx

    def categorize_type_ident(idx: int) -> str | None:
        """Category for the type whose head identifier is tokens[idx]."""
        word = tokens[idx].text
        if word in UNORDERED_TYPES:
            return "unordered"
        if word in FP_TYPES:
            return "fp"
        if word == "atomic":
            return "atomic"
        if word in LOCK_TYPES:
            return "lock"
        if word in aliases:
            return aliases[word]
        return None

    # -- pass 2: aliases (so later decls through them categorize) ----------
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "ident" and t.text == "using" and i + 2 < n \
                and tokens[i + 1].kind == "ident" and tokens[i + 2].text == "=":
            alias = tokens[i + 1].text
            j = i + 3
            cat = None
            while j < n and tokens[j].text != ";":
                if tokens[j].kind == "ident":
                    c = categorize_type_ident(j)
                    if c is not None:
                        cat = c
                        break
                j += 1
            if cat is not None:
                aliases[alias] = cat
        elif t.kind == "ident" and t.text == "typedef":
            # typedef <type...> NAME ;
            j = i + 1
            cat = None
            last_ident = None
            while j < n and tokens[j].text != ";":
                if tokens[j].kind == "ident":
                    c = categorize_type_ident(j)
                    if c is not None:
                        cat = c
                    last_ident = tokens[j].text
                if tokens[j].text == "<":
                    j = _skip_template_args(tokens, j, match)
                    continue
                j += 1
            if cat is not None and last_ident is not None:
                aliases[last_ident] = cat
        i += 1

    # -- pass 3: declarations ----------------------------------------------
    # Walk tokens with a brace stack so each decl knows its visibility end.
    brace_stack: list[tuple[int, int]] = []  # (open idx, close idx)
    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "{":
                brace_stack.append((i, match.get(i, n - 1)))
            elif t.text == "}" and brace_stack:
                brace_stack.pop()
            i += 1
            continue
        if t.kind != "ident":
            i += 1
            continue

        cat = categorize_type_ident(i)
        if cat is not None:
            # Type head like unordered_map / double / atomic / lock_guard.
            type_start = i
            j = i + 1
            if j < n and tokens[j].text == "<":
                j = _skip_template_args(tokens, j, match)
            # Pointer-to-unordered or reference declarators.
            while j < n and tokens[j].kind == "punct" and tokens[j].text in ("&", "*", "&&"):
                j += 1
            if j < n and tokens[j].kind == "ident" \
                    and tokens[j].text not in NOT_A_DECL_NAME:
                after = tokens[j + 1].text if j + 1 < n else ";"
                if after in (";", "=", "{", "(", ",", ":", ")"):
                    # ':' covers range-for decls; ')'/',' parameters.
                    decls.append(Decl(
                        name=tokens[j].text,
                        category=cat,
                        tok=j,
                        vis_end=(param_vis_end(j) if after in (",", ")")
                                 else _enclosing_brace_end(brace_stack, n)),
                        in_class=enclosing_class(i),
                        type_text=" ".join(
                            tokens[k].text for k in range(type_start, min(j, type_start + 12))),
                    ))
                    i = j + 1
                    continue
            i = max(j, i + 1)
            continue

        # `auto& m = map_;` — alias decl carrying its initializer's category
        # (resolved lazily through category_of's 'same:' chain).
        if t.text == "auto":
            j = i + 1
            while j < n and ((tokens[j].kind == "punct"
                              and tokens[j].text in ("&", "*", "&&"))
                             or tokens[j].text == "const"):
                j += 1
            if j + 3 < n and tokens[j].kind == "ident" \
                    and tokens[j].text not in NOT_A_DECL_NAME \
                    and tokens[j + 1].text == "=" \
                    and tokens[j + 2].kind == "ident" \
                    and tokens[j + 3].text == ";":
                decls.append(Decl(
                    name=tokens[j].text,
                    category=f"same:{tokens[j + 2].text}",
                    tok=j,
                    vis_end=_enclosing_brace_end(brace_stack, n),
                    in_class=enclosing_class(i),
                    type_text="auto",
                ))
                i = j + 1
                continue
            # `auto x = f(...);` — a local whose type the model does not
            # track; recorded so writes to it read as task-private.
            if j + 1 < n and tokens[j].kind == "ident" \
                    and tokens[j].text not in NOT_A_DECL_NAME \
                    and tokens[j + 1].text in ("=", "{"):
                decls.append(Decl(
                    name=tokens[j].text,
                    category="other",
                    tok=j,
                    vis_end=_enclosing_brace_end(brace_stack, n),
                    in_class=enclosing_class(i),
                    type_text="auto",
                ))
                i = j + 1
                continue
            i += 1
            continue

        # Pointer and reference declarators with an initializer:
        # `T* x = ...`, `T& x = ...` (also `T&& x`, `T* const x`), and the
        # same behind template arguments: `std::vector<int>& x = ...`.
        decl_j = i + 1
        if t.text not in NOT_A_DECL_NAME and decl_j < n \
                and tokens[decl_j].text == "<":
            decl_j = _skip_template_args(tokens, decl_j, match)
        if t.text not in NOT_A_DECL_NAME and decl_j < n \
                and tokens[decl_j].kind == "punct" \
                and tokens[decl_j].text in ("&", "*", "&&"):
            j = decl_j
            while j < n and ((tokens[j].kind == "punct"
                              and tokens[j].text in ("&", "*", "&&"))
                             or tokens[j].text == "const"):
                j += 1
            prev = tokens[i - 1] if i > 0 else None
            prev_ok = prev is None or (
                prev.kind == "punct"
                and prev.text in ("{", "}", ";", "(", "::")
            ) or (prev.kind == "ident" and prev.text in TYPE_PRECEDING)
            if prev_ok and j + 1 < n and tokens[j].kind == "ident" \
                    and tokens[j].text not in NOT_A_DECL_NAME \
                    and tokens[j + 1].text == "=":
                decls.append(Decl(
                    name=tokens[j].text,
                    category="other",
                    tok=j,
                    vis_end=_enclosing_brace_end(brace_stack, n),
                    in_class=enclosing_class(i),
                    type_text=t.text,
                ))
                i = j + 1
                continue

        # Generic declaration heuristic: IDENT IDENT <term>, used only to
        # know that a name is locally declared (never to assign a category).
        if t.text not in NOT_A_DECL_NAME and i + 1 < n \
                and tokens[i + 1].kind == "ident" \
                and tokens[i + 1].text not in NOT_A_DECL_NAME:
            name_idx = i + 1
            after = tokens[name_idx + 1].text if name_idx + 1 < n else ";"
            prev = tokens[i - 1] if i > 0 else None
            prev_ok = prev is None or (
                prev.kind == "punct" and prev.text in
                ("{", "}", ";", "(", ",", "<", ">", "&", "*", ":", "::")
            ) or (prev.kind == "ident" and prev.text in TYPE_PRECEDING)
            if prev_ok and after in (";", "=", "{", ",", ")", ":"):
                decls.append(Decl(
                    name=tokens[name_idx].text,
                    category="other",
                    tok=name_idx,
                    vis_end=(param_vis_end(name_idx) if after in (",", ")")
                             else _enclosing_brace_end(brace_stack, n)),
                    in_class=enclosing_class(i),
                    type_text=t.text,
                ))
                i = name_idx + 1
                continue
        i += 1

    # -- pass 4: lambdas and parallel regions ------------------------------
    # Parallel call extents: parallel_for( ... ) / submit( ... ).
    parallel_spans: list[tuple[int, int]] = []
    for i, t in enumerate(tokens):
        if t.kind == "ident" and t.text in ("parallel_for", "submit"):
            if i + 1 < n and tokens[i + 1].text == "(":
                close = match.get(i + 1)
                if close is not None:
                    parallel_spans.append((i + 1, close))

    i = 0
    while i < n:
        t = tokens[i]
        if t.kind == "punct" and t.text == "[" and _looks_like_lambda_intro(tokens, i):
            intro_close = match.get(i)
            if intro_close is None:
                i += 1
                continue
            by_ref = False
            captures: set[str] = set()
            j = i + 1
            while j < intro_close:
                tk = tokens[j]
                if tk.kind == "punct" and tk.text == "&":
                    by_ref = True
                    if j + 1 < intro_close and tokens[j + 1].kind == "ident":
                        captures.add(tokens[j + 1].text)
                        j += 1
                elif tk.kind == "ident":
                    captures.add(tk.text)
                j += 1
            # Optional parameter list.
            j = intro_close + 1
            params: set[str] = set()
            if j < n and tokens[j].text == "(":
                pclose = match.get(j, j)
                k = j + 1
                while k < pclose:
                    # Parameter names: idents directly before ',' or ')'.
                    if tokens[k].kind == "ident" and k + 1 <= pclose \
                            and tokens[k + 1].text in (",", ")") \
                            and tokens[k].text not in NOT_A_DECL_NAME:
                        params.add(tokens[k].text)
                    if tokens[k].text in ("(", "[", "{"):
                        k = match.get(k, k)
                    k += 1
                j = pclose + 1
            # Specifiers / trailing return, then body.
            body_open = None
            k = j
            while k < n and k < j + 24:
                if tokens[k].text == "{":
                    body_open = k
                    break
                if tokens[k].text in (";", ")", ","):
                    break
                if tokens[k].text == "(":  # noexcept(...) etc.
                    k = match.get(k, k)
                k += 1
            if body_open is None:
                i += 1
                continue
            body_close = match.get(body_open, n - 1)
            par = any(open_ < i < close for open_, close in parallel_spans)
            # A named task: `auto body = [&](...) {...};` later handed to
            # parallel_for(n, body) / submit(body) by name.
            if not par and i >= 2 and tokens[i - 1].text == "=" \
                    and tokens[i - 2].kind == "ident":
                bound = tokens[i - 2].text
                par = any(tokens[k].kind == "ident" and tokens[k].text == bound
                          for open_, close in parallel_spans
                          if open_ > body_close
                          for k in range(open_ + 1, close))
            lambdas.append(Lambda(
                intro=i, body_open=body_open, body_close=body_close,
                by_ref=by_ref, captures=captures, params=params,
                parallel=par, line=t.line, col=t.col))
            i += 1
            continue
        i += 1

    return FileModel(path=path, tokens=tokens, comments=comments,
                     match=match, rmatch=rmatch, decls=decls,
                     aliases=aliases, lambdas=lambdas,
                     class_extents=class_extents)
