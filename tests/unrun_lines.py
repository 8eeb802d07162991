"""Run tier-1 under a line tracer and fail on a statement of src/ that no
test runs, unless the gap list names it.

    python tests/unrun_lines.py

runs every test in this process under the ci hypothesis profile, with
sys.settrace and threading.settrace recording the lines of src/milnork
that run. A statement is run when a line of it runs; a compound
statement (if, for, try, def, ...) also when its first statement does,
as a try: or a while True: has no code of its own. The gap list,
unrun_lines.json beside this file, names each accepted unrun statement
by its file, its enclosing function and the text of its first line (no
line number, so an edit elsewhere does not move it), with the reason it
stays unrun. The gate fails on an unrun statement that the list does not
name, on an entry whose statement is run or gone, and on an entry with
no reason. It needs only the standard library and the test extra.
"""

import ast
import collections
import json
import os
import pathlib
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "milnork"
GAPS = pathlib.Path(__file__).with_name("unrun_lines.json")

# the statements with a block, which src/ uses
_COMPOUND = (ast.If, ast.For, ast.While, ast.With, ast.Try, ast.FunctionDef,
             ast.ClassDef)


def run_tests():
    """Run tier-1 under the tracer; return pytest's exit code and, per file
    of src/milnork, the set of line numbers that ran."""
    import pytest

    hits = {str(path): set() for path in SRC.glob("*.py")}
    local = {name: _line_tracer(lines) for name, lines in hits.items()}

    def tracer(frame, event, arg):
        return local.get(frame.f_code.co_filename)

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["HYPOTHESIS_PROFILE"] = "ci"
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = pathlib.Path(sys.modules["milnork"].__file__).resolve().parent
    if loaded != SRC:
        sys.exit("traced milnork from %s, not %s" % (loaded, SRC))
    return code, hits


def _line_tracer(lines):
    def trace(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    return trace


def unrun_statements(path, lines_run):
    """The (file, function, text) of each statement of one module that has
    no line in lines_run, with its line number."""
    source = path.read_text()
    text = source.splitlines()
    name = path.relative_to(ROOT).as_posix()
    unrun = []

    def visit(body, where):
        """Walk one block; return whether its first statement ran."""
        first = None
        for stmt in body:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)):
                continue    # docstrings and declarations compile to nothing
            ran = _visit_stmt(stmt, where)
            if not ran:
                unrun.append(((name, where, text[stmt.lineno - 1].strip()),
                              stmt.lineno))
            if first is None:
                first = ran
        return bool(first)

    def _visit_stmt(stmt, where):
        if not isinstance(stmt, _COMPOUND):
            return any(n in lines_run
                       for n in range(stmt.lineno, stmt.end_lineno + 1))
        start = min([stmt.lineno] + [d.lineno for d in
                                     getattr(stmt, "decorator_list", ())])
        head = range(start, max(stmt.lineno, stmt.body[0].lineno - 1) + 1)
        inner = where
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            inner = stmt.name if where == "<module>" else where + "." + stmt.name
        ran = visit(stmt.body, inner)
        for block in (getattr(stmt, "orelse", []),
                      getattr(stmt, "finalbody", [])):
            visit(block, where)
        for handler in getattr(stmt, "handlers", ()):
            visit(handler.body, where)
        return ran or any(n in lines_run for n in head)

    visit(ast.parse(source, str(path)).body, "<module>")
    return unrun


def _key(entry):
    return entry["file"], entry["function"], entry["line"]


def main():
    started = time.perf_counter()
    code, hits = run_tests()
    if code != 0:
        sys.exit("tier-1 failed under the tracer (pytest exit %d)" % code)
    found = [stmt for path in sorted(SRC.glob("*.py"))
             for stmt in unrun_statements(path, hits[str(path)])]
    unrun = collections.Counter(key for key, _ in found)
    gaps = json.loads(GAPS.read_text())
    listed = collections.Counter(_key(entry) for entry in gaps)
    problems = []
    new = unrun - listed
    for key, line in found:
        if new[key]:
            new[key] -= 1
            problems.append("unrun, not in the gap list: %s:%d %s: %s\n  %s"
                            % (key[0], line, key[1], key[2], json.dumps(dict(
                                zip(("file", "function", "line"), key),
                                reason=""))))
    for key in sorted((listed - unrun).elements()):
        problems.append("in the gap list, but run or gone: %s %s: %s" % key)
    for entry in gaps:
        if not str(entry.get("reason", "")).strip():
            problems.append("gap entry without a reason: %s %s: %s"
                            % _key(entry))
    print("%d unrun statements of src/, %d gap entries, %.0f s"
          % (sum(unrun.values()), len(gaps), time.perf_counter() - started))
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
