"""Error boundaries: code running on parallel sweep workers must not
be able to abort the process.

The fault-tolerance layer (src/fault) converts panics into per-run
quarantine records, but only when the panic surfaces inside an error
boundary — a ScopedThrowOnError in scope or an enclosing try. A
panic() reached from a worker lambda outside any boundary takes the
whole sweep down with it, checkpoints and all.

Worker roots are found lexically: every lambda passed to
parallelFor(...) and every lambda assigned to an `onRunComplete`
member. For each root, two checks run against the name-keyed call
graph with its can-throw fixed point (see project.functions):

  - a throw / panic / fatal directly in the lambda body, outside any
    try and before any ScopedThrowOnError declaration;
  - a call to a function whose can-throw bit is set, at a call site
    that is not itself guarded.

Sweeps that *intend* to abort on panic (the plain, non-guarded
runSweep contract) carry SPECFETCH-ALLOW(error-boundary) with that
reason at the call site. A waiver on the lambda's opening line (or
the line above it) waives the whole worker root — one reasoned allow
per intentional-abort sweep instead of one per reachable panic.
"""

from .. import scopes as scp
from .. import tokenizer as tok
from ..engine import Finding
from ..project import WORKER_DIRS
from . import Rule

_PANIC_IDENTS = frozenset(("panic", "fatal", "panic_if", "fatal_if"))
_WORKER_CALLS = frozenset(("parallelFor",))
_WORKER_ASSIGNS = frozenset(("onRunComplete",))


def _match_fwd(ctoks, open_index):
    depth = 0
    for j in range(open_index, len(ctoks)):
        if ctoks[j].kind != tok.PUNCT:
            continue
        if ctoks[j].text == "(":
            depth += 1
        elif ctoks[j].text == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(ctoks)


def _statement_end(ctoks, index):
    depth = 0
    for j in range(index, len(ctoks)):
        if ctoks[j].kind != tok.PUNCT:
            continue
        text = ctoks[j].text
        if text in ("(", "[", "{"):
            depth += 1
        elif text in (")", "]", "}"):
            depth -= 1
        elif text == ";" and depth <= 0:
            return j
    return len(ctoks)


def worker_roots(source):
    """Lambda scopes in @p source that run on sweep worker threads."""
    ctoks = source.ctoks
    spans = []
    for i, t in enumerate(ctoks):
        if t.kind != tok.IDENT:
            continue
        if t.text in _WORKER_CALLS and i + 1 < len(ctoks) \
                and ctoks[i + 1].text == "(":
            spans.append((i + 1, _match_fwd(ctoks, i + 1)))
        elif t.text in _WORKER_ASSIGNS and i + 1 < len(ctoks) \
                and ctoks[i + 1].text == "=":
            spans.append((i + 1, _statement_end(ctoks, i + 1)))
    roots = []
    for scope in source.scopes.walk():
        if scope.kind != scp.LAMBDA:
            continue
        if any(lo < scope.open < hi for lo, hi in spans):
            # Nested lambdas are covered by walking their root.
            if not any(r.contains(scope.open) for r in roots):
                roots.append(scope)
    return roots


class ErrorBoundary(Rule):
    rule_id = "error-boundary"
    description = ("panic/fatal/throw reachable from a parallel sweep "
                   "worker without passing through ScopedThrowOnError "
                   "or an enclosing try; one bad run would abort the "
                   "whole sweep instead of being quarantined.")

    def run(self, project):
        functions = project.functions()
        findings = []
        for source in project.files(dirs=WORKER_DIRS,
                                    suffixes=(".cc", ".cpp")):
            for root in worker_roots(source):
                findings.extend(
                    self._check_root(project, functions, source, root))
        return findings

    def _check_root(self, project, functions, source, root):
        ctoks = source.ctoks
        # An allow on the lambda's opening line waives the whole root:
        # the decision "this sweep aborts on panic" is per-sweep, not
        # per-panic-site.
        if root.open < len(ctoks) \
                and source.suppressed(self.rule_id,
                                      ctoks[root.open].line):
            return []
        findings = []
        seen_lines = set()

        def report(line, message):
            if line not in seen_lines:
                seen_lines.add(line)
                findings.append(Finding(self.rule_id, source.rel_path,
                                        line, message))

        for i in range(root.open + 1, min(root.close - 1, len(ctoks))):
            t = ctoks[i]
            if t.kind != tok.IDENT:
                continue
            direct = t.text == "throw" or (
                t.text in _PANIC_IDENTS and i + 1 < len(ctoks)
                and ctoks[i + 1].text == "(")
            if direct and not project._index_guarded(source, root, i):
                what = "throw" if t.text == "throw" else t.text + "()"
                report(t.line,
                       f"{what} in a parallel sweep worker without an "
                       f"error boundary (declare ScopedThrowOnError or "
                       f"route through runSweepGuarded)")
        for name, index, line in project.calls_in(
                source, root.open + 1, root.close - 1):
            callees = [c for c in functions.get(name, ())
                       if c.can_throw]
            if not callees:
                continue
            if project._index_guarded(source, root, index):
                continue
            report(line,
                   f"calls {name}(), which can abort "
                   f"({callees[0].throw_reason}), from a parallel "
                   f"sweep worker without an error boundary")
        return findings


RULES = (ErrorBoundary(),)
