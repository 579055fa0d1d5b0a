"""Which functions and statements of the package no CLI run and no benchmark round reaches.

    python3 tools/reach.py

Traces ``src/padicradial`` with ``sys.settrace`` over two sets of runs, in one process:

(a) every ``padic-radial`` invocation of ``tools/output_digest.py``, and one round of each
    workload that ``bench/workloads.py`` builds (seed 1), each operation run once;
(b) the tier-1 suite, ``pytest`` run in-process on the whole checkout, with no hypothesis
    deadline (tracing slows every test).

Then prints each function that (a) never calls and each statement that (a) never executes,
one line each (``file:line``, the function or the statement's text, and whether (b) reaches
it), functions first.  Statements outside every function run at import and are not listed.
Exits 1 if some function is dead code, called by neither (a) nor (b): a function line that
ends in ``tests: no``; else 0.
Run it from any directory; it takes about a minute.  Standard library only, apart from
``pytest`` and ``hypothesis`` for (b), which the suite needs anyway.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padicradial"


def _code_lines(code) -> set:
    """The lines that carry bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def sites(path: Path) -> tuple:
    """(functions, statements) of a module: {first line: qualified name} of each def (its
    first decorator's line, where ``co_firstlineno`` points), and {line: (enclosing
    function, text)} of each statement inside a function that carries bytecode."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    with_code = _code_lines(compile(source, str(path), "exec"))
    functions, statements = {}, {}

    def visit(node, scope: str, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[first] = name
                if inside and child.lineno in with_code:
                    statements[child.lineno] = (scope, lines[child.lineno - 1].strip())
                visit(child, name, inside or not isinstance(child, ast.ClassDef))
                continue
            if inside and isinstance(child, ast.stmt) and child.lineno in with_code:
                statements.setdefault(child.lineno, (scope, lines[child.lineno - 1].strip()))
            visit(child, scope, inside)

    visit(tree, "", False)
    return functions, statements


class Reach:
    """The calls and lines executed in ``files`` while the tracer is on (a ``with`` block)."""

    def __init__(self, files):
        self.files = {str(Path(f).resolve()) for f in files}
        self.calls, self.lines = set(), set()

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            return None
        self.calls.add((filename, frame.f_code.co_firstlineno))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)
        return False


def unreached(files, a: Reach, b: Reach) -> list:
    """One line per function that ``a`` never calls, then one per statement it never
    executes, each ending in whether ``b`` reaches it."""
    rows, statement_rows = [], []
    for path in map(Path, files):
        key = str(path.resolve())
        functions, statements = sites(path)
        for line, name in sorted(functions.items()):
            if (key, line) not in a.calls:
                seen = "yes" if (key, line) in b.calls else "no"
                rows.append(f"{path.name}:{line} function {name}  tests: {seen}")
        for line, (scope, text) in sorted(statements.items()):
            if (key, line) not in a.lines:
                seen = "yes" if (key, line) in b.lines else "no"
                statement_rows.append(f"{path.name}:{line} in {scope}: {text}  tests: {seen}")
    return rows + statement_rows


def exit_code(rows) -> int:
    """1 if a row of :func:`unreached` names a function that neither set of runs calls, else 0."""
    return int(any(row.split()[1] == "function" and row.endswith("tests: no") for row in rows))


def _load(path: Path):
    """The module at ``path``, registered under its file's stem as an import would be."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli_and_workloads() -> None:
    """(a): the digest's invocations, their output discarded, and one round per workload."""
    from padicradial import cli
    import padicradial

    digest = _load(ROOT / "tools" / "output_digest.py")
    with tempfile.TemporaryDirectory() as name:
        for argv in digest.invocations(Path(name)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except Exception:  # the digest counts an escaped exception as exit code 1
                    pass
    workloads = _load(ROOT / "bench" / "workloads.py")
    for workload in workloads.WORKLOADS:
        for op in workloads.build_round(padicradial, workload, 1):
            try:
                op.run()
            except Exception:
                if not op.expect_failure:  # only the known failing cell may fail
                    raise


def run_tests() -> int:
    """(b): the tier-1 suite in this process."""
    import pytest
    from hypothesis import settings

    settings.register_profile("reach", deadline=None)
    with contextlib.redirect_stdout(sys.stderr):  # stdout is the report's
        return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-profile", "reach", str(ROOT)])


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    files = sorted(PACKAGE.glob("*.py"))
    with Reach(files) as a:
        run_cli_and_workloads()
    with Reach(files) as b:
        code = run_tests()
    if code != 0:
        print(f"note: the tier-1 suite exited {code} under tracing", file=sys.stderr)
    rows = unreached(files, a, b)
    print("\n".join(rows))
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
