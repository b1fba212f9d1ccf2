"""Project-wide model: the cross-file facts the semantic rules need.

Single-file pattern rules only need tokens; the project rules
(stat-conservation, config-plumbing, error-boundary) need to relate
declarations in one file to uses in another. This module builds those
relations once per run:

  - the analyzed file set (from compile_commands.json when available,
    else a tree walk);
  - struct member extraction (SimConfig, SimResults, EpochRecord...);
  - method names declared `virtual` anywhere under src/ headers;
  - a name-keyed call graph with a can-throw fixed point, used to ask
    whether a sweep worker can reach a panic()/throw outside an error
    boundary.
"""

import json
import os

from . import scopes as scp
from . import tokenizer as tok
from .source import SourceFile

SOURCE_SUFFIXES = (".cc", ".cpp", ".hh", ".h")
# Directories holding simulator code that must stay deterministic and
# reproducible. bench/ and tools/ are excluded by design: harness
# timing and report timestamps live there.
SIM_DIRS = (
    "src/core", "src/cache", "src/branch", "src/adaptive", "src/trace",
    "src/workload", "src/isa", "src/check", "src/stats", "src/util",
    "src/report", "src/obs", "src/fault",
)
# Directories whose code runs on parallel sweep worker threads.
WORKER_DIRS = (
    "src/core", "src/cache", "src/branch", "src/adaptive", "src/trace",
    "src/workload", "src/isa", "src/check", "src/stats", "src/util",
    "src/obs", "src/fault",
)
# The per-instruction hot path (loop-alloc / loop-virtual scope).
HOT_DIRS = ("src/core",)

_CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "alignof", "decltype", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "static_assert", "assert",
    "defined", "new", "delete", "throw", "co_await", "co_return",
))


def _norm(path):
    return path.replace(os.sep, "/")


class FunctionInfo:
    __slots__ = ("name", "qualname", "rel_path", "scope", "calls",
                 "can_throw", "throw_reason")

    def __init__(self, name, qualname, rel_path, scope):
        self.name = name
        self.qualname = qualname
        self.rel_path = rel_path
        self.scope = scope
        self.calls = []  # [(name, token_index, line)]
        self.can_throw = False
        self.throw_reason = ""


def discover_files(root, build_dir):
    """Relative paths of the sources to analyze.

    Primary source of truth is the CMake-exported compile_commands.json
    (every translation unit the build actually compiles), augmented
    with the headers under src/; when no database exists we fall back
    to walking the tree. Returns (rel_paths, used_database)."""
    rels = set()
    used_db = False
    db_path = os.path.join(root, build_dir, "compile_commands.json")
    if os.path.isfile(db_path):
        try:
            with open(db_path, encoding="utf-8") as handle:
                entries = json.load(handle)
        except (OSError, json.JSONDecodeError):
            entries = []
        for entry in entries:
            path = entry.get("file", "")
            if not os.path.isabs(path):
                path = os.path.join(entry.get("directory", root), path)
            path = os.path.realpath(path)
            rel = _norm(os.path.relpath(path, os.path.realpath(root)))
            if rel.startswith("src/") and rel.endswith(SOURCE_SUFFIXES):
                rels.add(rel)
                used_db = True
    # Headers never appear in the database; tests and tools are out of
    # scope for the simulator rules. Walk src/ for anything the
    # database missed (or everything, without a database).
    base = os.path.join(root, "src")
    for dirpath, _, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(SOURCE_SUFFIXES):
                rels.add(_norm(os.path.relpath(
                    os.path.join(dirpath, name), root)))
    return sorted(rels), used_db


class Project:
    def __init__(self, root, build_dir="build", rel_paths=None):
        self.root = os.path.abspath(root)
        self.build_dir = build_dir
        if rel_paths is None:
            rel_paths, self.used_database = \
                discover_files(self.root, build_dir)
        else:
            self.used_database = False
        self.rel_paths = rel_paths
        self._files = {}
        self._virtual_names = None
        self._functions = None
        self._reference_idents = {}

    # ------------------------------------------------------------------
    # Files

    def file(self, rel_path):
        """The SourceFile for @p rel_path, or None when unreadable."""
        rel_path = _norm(rel_path)
        if rel_path not in self._files:
            path = os.path.join(self.root, rel_path)
            try:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                self._files[rel_path] = None
            else:
                self._files[rel_path] = SourceFile(path, rel_path, text)
        return self._files[rel_path]

    def files(self, dirs=None, suffixes=SOURCE_SUFFIXES):
        """SourceFiles under @p dirs (prefix match), sorted by path."""
        out = []
        for rel in self.rel_paths:
            if not rel.endswith(suffixes):
                continue
            if dirs is not None and not any(
                    rel.startswith(d + "/") or rel == d for d in dirs):
                continue
            source = self.file(rel)
            if source is not None:
                out.append(source)
        return out

    def reference_idents(self, *dirs):
        """Every identifier appearing under the given directories
        (which need not be part of the analyzed file set — bench/ and
        examples/ serve as reference corpora for plumbing rules)."""
        key = tuple(dirs)
        if key not in self._reference_idents:
            idents = set()
            for d in dirs:
                base = os.path.join(self.root, d)
                if not os.path.isdir(base):
                    continue
                for dirpath, _, names in os.walk(base):
                    for name in sorted(names):
                        if not name.endswith(SOURCE_SUFFIXES):
                            continue
                        rel = _norm(os.path.relpath(
                            os.path.join(dirpath, name), self.root))
                        source = self.file(rel)
                        if source is not None:
                            idents |= source.idents()
            self._reference_idents[key] = idents
        return self._reference_idents[key]

    # ------------------------------------------------------------------
    # Declarations

    def struct_fields(self, rel_path, struct_name):
        """Data members of @p struct_name declared in @p rel_path, as
        (name, type_text, line, has_initializer). Member functions,
        using-declarations and access specifiers are skipped."""
        source = self.file(rel_path)
        if source is None:
            return []
        ctoks = source.ctoks
        body = None
        for scope in source.scopes.walk():
            if scope.kind == scp.CLASS and scope.name == struct_name:
                body = scope
                break
        if body is None:
            return []

        fields = []
        decl = []  # tokens of the declaration being accumulated
        skip_ranges = sorted((c.open, c.close) for c in body.children)
        i = body.open + 1
        end = body.close - 1
        while i < end:
            # Child scopes (member function bodies, default-initializer
            # lambdas, init braces) contribute nothing to declarations.
            skipped = False
            for lo, hi in skip_ranges:
                if lo <= i < hi:
                    i = hi
                    skipped = True
                    break
            if skipped:
                # A member function body ends its declaration.
                if decl and not any(
                        t.kind == tok.PUNCT and t.text == "="
                        for t in decl):
                    decl = []
                continue
            t = ctoks[i]
            if t.kind == tok.PUNCT and t.text == ";":
                field = self._parse_member(decl)
                if field is not None:
                    fields.append(field)
                decl = []
            elif t.kind == tok.PUNCT and t.text == ":" and len(decl) == 1 \
                    and decl[0].text in ("public", "private", "protected"):
                decl = []
            else:
                decl.append(t)
            i += 1
        return fields

    @staticmethod
    def _parse_member(decl):
        if not decl:
            return None
        texts = [t.text for t in decl]
        if texts[0] in ("using", "typedef", "friend", "template",
                        "static_assert", "enum", "class", "struct"):
            return None
        # Split off a default initializer.
        if "=" in texts:
            head = decl[:texts.index("=")]
            has_init = True
        else:
            head = decl
            has_init = False
        head_texts = [t.text for t in head]
        # A parameter list before any '=' marks a member function.
        if "(" in head_texts:
            return None
        # Array members: name precedes the '['.
        if "[" in head_texts:
            head = head[:head_texts.index("[")]
        if not head or head[-1].kind != tok.IDENT:
            return None
        name_tok = head[-1]
        type_text = " ".join(t.text for t in head[:-1])
        if not type_text:
            return None
        return (name_tok.text, type_text, name_tok.line, has_init)

    @property
    def virtual_names(self):
        """Method names declared `virtual` in any analyzed header."""
        if self._virtual_names is None:
            names = set()
            for source in self.files(suffixes=(".hh", ".h")):
                ctoks = source.ctoks
                for i, t in enumerate(ctoks):
                    if t.kind != tok.IDENT or t.text != "virtual":
                        continue
                    # virtual <ret-type tokens> name '(' — the name is
                    # the last ident before the first '(' after it.
                    for j in range(i + 1, min(i + 24, len(ctoks))):
                        if ctoks[j].kind == tok.PUNCT \
                                and ctoks[j].text in ("(", ";", "{", "}"):
                            if ctoks[j].text == "(" and j > i + 1 \
                                    and ctoks[j - 1].kind == tok.IDENT \
                                    and ctoks[j - 2].text != "~" \
                                    and not ctoks[j - 1].text.startswith(
                                        "operator"):
                                names.add(ctoks[j - 1].text)
                            break
            self._virtual_names = names
        return self._virtual_names

    # ------------------------------------------------------------------
    # Call graph / throw analysis

    @staticmethod
    def calls_in(source, start, end):
        """Call sites in ctoks[start:end) as (name, index, line):
        identifiers directly followed by '(' (or by a short template
        argument list then '('), keywords excluded."""
        ctoks = source.ctoks
        out = []
        for i in range(start, min(end, len(ctoks))):
            t = ctoks[i]
            if t.kind != tok.IDENT or t.text in _CALL_KEYWORDS:
                continue
            j = i + 1
            if j < len(ctoks) and ctoks[j].kind == tok.PUNCT \
                    and ctoks[j].text == "<":
                # Possible template arguments: accept a short balanced
                # <...> run with no statement punctuation inside.
                depth = 0
                for k in range(j, min(j + 32, len(ctoks))):
                    text = ctoks[k].text
                    if ctoks[k].kind == tok.PUNCT and text == "<":
                        depth += 1
                    elif ctoks[k].kind == tok.PUNCT and text == ">":
                        depth -= 1
                        if depth == 0:
                            j = k + 1
                            break
                    elif text in (";", "{", "}"):
                        break
                else:
                    continue
                if depth != 0:
                    continue
            if j < len(ctoks) and ctoks[j].kind == tok.PUNCT \
                    and ctoks[j].text == "(":
                out.append((t.text, i, t.line))
        return out

    def functions(self, dirs=WORKER_DIRS):
        """FunctionInfo for every function under @p dirs, with the
        can-throw fixed point computed; returns {bare name: [infos]}."""
        if self._functions is not None:
            return self._functions
        infos = []
        for source in self.files(dirs=dirs):
            for scope in scp.functions(source.scopes):
                if scope.kind != scp.FUNCTION:
                    continue  # lambdas belong to their enclosing fn
                info = FunctionInfo(scope.name, scope.qualname,
                                    source.rel_path, scope)
                info.calls = self.calls_in(source, scope.open + 1,
                                           scope.close - 1)
                infos.append(info)
        by_name = {}
        for info in infos:
            by_name.setdefault(info.name, []).append(info)

        # Direct throwers: a `throw` expression or a panic()/fatal()
        # call in the body, not absorbed by an enclosing try block.
        for info in infos:
            source = self.file(info.rel_path)
            reason = self._unguarded_throw(source, info.scope)
            if reason:
                info.can_throw = True
                info.throw_reason = reason

        # Propagate: calling a can-throw function outside a try block
        # makes the caller can-throw.
        changed = True
        while changed:
            changed = False
            for info in infos:
                if info.can_throw:
                    continue
                source = self.file(info.rel_path)
                for name, index, line in info.calls:
                    callees = by_name.get(name, ())
                    if not any(c.can_throw for c in callees):
                        continue
                    if self._index_guarded(source, info.scope, index):
                        continue
                    info.can_throw = True
                    info.throw_reason = (f"calls {name}() "
                                         f"({info.rel_path}:{line})")
                    changed = True
                    break
        self._functions = by_name
        return by_name

    @staticmethod
    def _index_guarded(source, fn_scope, index):
        """True when ctoks[index] inside @p fn_scope sits under a try
        block or after a ScopedThrowOnError declaration in scope."""
        scope = scp.innermost(source.scopes, index)
        while scope is not None and scope is not fn_scope.parent:
            if scope.kind == scp.TRY:
                return True
            for i in range(scope.open, index):
                t = source.ctoks[i]
                if t.kind == tok.IDENT and t.text == "ScopedThrowOnError":
                    return True
            scope = scope.parent
        return False

    @classmethod
    def _unguarded_throw(cls, source, fn_scope):
        """Reason string when @p fn_scope contains a throw/panic/fatal
        not absorbed by a try block, else ''."""
        ctoks = source.ctoks
        for i in range(fn_scope.open + 1, fn_scope.close - 1):
            t = ctoks[i]
            if t.kind != tok.IDENT:
                continue
            is_throw = t.text == "throw"
            is_panic = t.text in ("panic", "fatal", "panic_if",
                                  "fatal_if") and i + 1 < len(ctoks) \
                and ctoks[i + 1].kind == tok.PUNCT \
                and ctoks[i + 1].text == "("
            if not (is_throw or is_panic):
                continue
            if cls._index_guarded(source, fn_scope, i):
                continue
            kind = "throw" if is_throw else t.text + "()"
            return f"{kind} at {source.rel_path}:{t.line}"
        return ""
