"""Function-body statements of ``src/chitomo`` that a pytest run never
executes, found without a coverage package.

Usage, from the repository root:

    python tools/uncovered.py [PYTEST_ARGS...]

pytest runs in this process under the standard library's ``trace`` line
counter, limited to the package's files.  Then each statement or ``except``
clause in a function body none of whose own lines ran is printed as
``file:line: source``; the lines of the blocks nested in it are not its
own.  A statement that compiles to no code, as a docstring does, is never
listed.  The exit code is 1 when any listed statement is a ``raise``, and
pytest's otherwise.

A test whose recursion reaches the interpreter's limit can make the trace
function's own call fail, and CPython then unsets it: every later line
would count as unexecuted.  So the tracer is checked after each test, and
if it is gone the run names the first test after which it was gone,
lists nothing and exits 1.
"""

from __future__ import annotations

import ast
import os
import sys
import trace
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "chitomo"
sys.path.insert(0, str(ROOT / "src"))

_ITEMS = (ast.stmt, ast.excepthandler)
_SCOPES = (ast.FunctionDef, ast.ClassDef)


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that code and the code objects nested in it hold
    instructions for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _children(node: ast.AST):
    """The statements and except clauses of node's own blocks."""
    return (child for child in ast.iter_child_nodes(node) if isinstance(child, _ITEMS))


def _items(node: ast.AST):
    """The statements and except clauses in node's blocks, nested ones
    included, except those in the body of a nested function or class."""
    for child in _children(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _items(child)


def _span(node: ast.AST) -> set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def unexecuted(path: Path, executed: set[int]) -> list[ast.AST]:
    """The statements and except clauses in the function bodies of the file
    at path that have code on their own lines but none of it executed."""
    text = path.read_text()
    code_lines, tree = _code_lines(compile(text, str(path), "exec")), ast.parse(text)
    missed = []
    for scope in ast.walk(tree):
        if isinstance(scope, ast.FunctionDef):
            for item in _items(scope):
                own = _span(item).difference(*map(_span, _children(item))) & code_lines
                if own and not own & executed:
                    missed.append(item)
    return sorted(missed, key=lambda item: (item.lineno, item.col_offset))


class _TracerWatch:
    """A pytest plugin that notes the first test after which no trace
    function is set."""

    lost_after: str | None = None

    def pytest_runtest_logfinish(self, nodeid: str) -> None:
        if self.lost_after is None and sys.gettrace() is None:
            self.lost_after = nodeid


def run_traced(pytest_args: list[str],
               source: Path) -> tuple[int, dict[str, set[int]], str | None]:
    """pytest's exit code, the lines it executed, by real path, in the files
    under source, and the first test after which the tracer was gone, if any."""
    prefix = os.path.realpath(source) + os.sep
    tracer, watch = trace.Trace(count=1, trace=0), _TracerWatch()
    # trace.Ignore keeps one verdict per file base name, so another package's
    # cli.py, run first, would hide this one's: decide by path instead.
    tracer.ignore.names = lambda filename, modulename: not filename.startswith(prefix)
    code = tracer.runfunc(pytest.main, pytest_args, plugins=[watch])
    lines = {}
    for filename, line in tracer.results().counts:
        lines.setdefault(os.path.realpath(filename), set()).add(line)
    return int(code), lines, watch.lost_after


def main(argv: list[str] | None = None, source: Path = SOURCE) -> int:
    code, lines, lost_after = run_traced(sys.argv[1:] if argv is None else argv, source)
    if lost_after is not None:
        print(f"the line tracer was gone after {lost_after}; no statement is listed")
        return 1
    listed = raises = 0
    for path in sorted(source.rglob("*.py")):
        text = path.read_text().splitlines()
        for item in unexecuted(path, lines.get(os.path.realpath(path), set())):
            listed, raises = listed + 1, raises + isinstance(item, ast.Raise)
            print(f"{os.path.relpath(path)}:{item.lineno}: {text[item.lineno - 1].strip()}")
    print(f"{listed} unexecuted statements, {raises} of them raise")
    return 1 if raises else code


if __name__ == "__main__":
    sys.exit(main())
