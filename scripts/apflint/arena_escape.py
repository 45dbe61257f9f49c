"""Arena-lifetime analyzer (apf-lint: arena).

Enforces the escape rule in tensor/arena.h: memory bump-allocated under
an ArenaScope is reclaimed (and reused) when the scope closes, so any
tensor leaving the scope must be deep-copied to heap ownership under an
ArenaPauseGuard first. InferenceEngine::forward is the canonical
compliant shape:

    ArenaScope arena;
    Var logits = model_.forward(batch, rng);
    ArenaPauseGuard heap;          // allocation falls back to the heap
    return logits.val().clone();   // OK: the clone is heap-owned

The analysis is brace-aware and purely lexical: an ArenaScope declared
in an inner block stops being live at that block's close (the
nn/conv.cpp column-buffer pattern), and lambda bodies start a fresh
region (their execution context is unknown). Two rules:

  arena-escape  a value `return` lexically inside a live ArenaScope
                region with no live ArenaPauseGuard declared before it.
                Trivial returns (void, bool/nullptr/numeric literals,
                empty braces) never count. A returned scalar the
                analysis cannot see through is a false positive — waive
                it, stating the type.
  arena-store   an assignment that parks a fresh tensor (`.clone()`,
                `Tensor(...)`, `Tensor::factory(...)`) into a member
                (`name_ = ...` / `this->name = ...`) under a live scope
                without a pause guard: the member outlives the scope,
                the storage does not.

Waivers: // arena-ok(<rule>): <why> (see apflint.base). The runtime
backstop for what this analysis cannot see is APF_ARENA_POISON
(tensor/arena.h): generation-stamped allocations that make a stale
tensor read throw deterministically.
Fixture coverage: tests/test_lint_arena.py.
"""

import re

from . import base

NAME = "arena"

SCOPE_RE = re.compile(r"\bArenaScope\s+\w+\s*;?\s*$")
PAUSE_RE = re.compile(r"\bArenaPauseGuard\s+\w+\s*;?\s*$")
RETURN_RE = re.compile(r"^return\b\s*(?P<expr>.*)$")
TRIVIAL_RETURN_RE = re.compile(
    r"^(?:|true|false|nullptr|\{\s*\}|[-+]?[0-9][0-9a-fA-FxX.'uUlLfF]*)$")
LAMBDA_TAIL_RE = re.compile(
    r"\[[^\]]*\]\s*(?:\([^)]*\))?\s*(?:mutable\b|noexcept\b"
    r"|->\s*[\w:<>&*]+|\s)*$")
MEMBER_STORE_RE = re.compile(
    r"^(?:(?P<this>this\s*->\s*\w+)|(?P<member>\w+_))\s*=[^=]"
    r"(?P<rhs>.*)$")
TENSOR_RHS_RE = re.compile(r"\.clone\s*\(|\bTensor\s*(?:\(|::)")


class _Frame:
    def __init__(self, boundary):
        self.boundary = boundary  # True: lambda — fresh region
        self.scopes = 0
        self.pauses = 0


def scan_source_text(relpath, text):
    """arena-escape / arena-store violations for one file."""
    checker = base.Checker(NAME, relpath, text)
    frames = [_Frame(boundary=True)]  # file level: nothing live

    def region():
        """(live_scopes, live_pauses) in the current lexical region."""
        scopes = pauses = 0
        for frame in reversed(frames):
            scopes += frame.scopes
            pauses += frame.pauses
            if frame.boundary:
                break
        return scopes, pauses

    def statement(stmt, lineno):
        stmt = stmt.strip()
        if not stmt:
            return
        if SCOPE_RE.search(stmt):
            frames[-1].scopes += 1
            return
        if PAUSE_RE.search(stmt):
            frames[-1].pauses += 1
            return
        scopes, pauses = region()
        if not scopes or pauses:
            return
        m = RETURN_RE.match(stmt)
        if m and not TRIVIAL_RETURN_RE.match(m.group("expr").strip()):
            checker.check(
                lineno, "arena-escape",
                "returning a value out of a live ArenaScope without an "
                "ArenaPauseGuard: the storage is reclaimed when the scope "
                "closes (pause, then clone() — see tensor/arena.h)")
            return
        m = MEMBER_STORE_RE.match(stmt)
        if m and TENSOR_RHS_RE.search(m.group("rhs")):
            checker.check(
                lineno, "arena-store",
                "storing a fresh tensor into a member under a live "
                "ArenaScope without an ArenaPauseGuard: the member "
                "outlives the scope, its storage does not")

    pending = []
    stmt_line = 1
    in_macro = False
    init_depth = 0  # inside a brace initializer: braces are data, not scopes
    for idx, raw in enumerate(checker.code_lines):
        lineno = idx + 1
        stripped = raw.lstrip()
        if in_macro or stripped.startswith("#"):
            in_macro = raw.rstrip().endswith("\\")
            continue
        for c in raw:
            if init_depth:
                pending.append(c)
                if c == "{":
                    init_depth += 1
                elif c == "}":
                    init_depth -= 1
                continue
            if c == "{":
                head = "".join(pending)
                if (head.count("(") > head.count(")")
                        or re.search(r"(?:=|\(|,|\breturn)\s*$", head)):
                    init_depth = 1
                    pending.append(c)
                    continue
                head = "".join(pending).strip()
                frames.append(_Frame(
                    boundary=bool(LAMBDA_TAIL_RE.search(head))))
                pending = []
                stmt_line = lineno
            elif c == "}":
                if len(frames) > 1:
                    frames.pop()
                pending = []
                stmt_line = lineno
            elif c == ";":
                statement("".join(pending), stmt_line)
                pending = []
                stmt_line = lineno
            else:
                if not pending:
                    stmt_line = lineno
                if not (c in " \t" and not pending):
                    pending.append(c)
        if pending:
            pending.append("\n")
    return checker.violations


def scan_sources(root, files=None):
    if files is None:
        files = list(base.iter_source_files(root))
    violations = []
    for relpath, text in files:
        violations.extend(scan_source_text(relpath, text))
    return violations


def run(root, entries=None):
    del entries  # arena analysis needs no compile_commands
    return scan_sources(root)
