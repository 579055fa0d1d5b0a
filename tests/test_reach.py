"""The tracer and the report of tools/reach.py, on a two-function module (no package runs)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = '''"""Two functions."""


def sign(x):
    """+1 or -1."""
    if x > 0:
        return 1
    return -1


@staticmethod
def two():
    return 2
'''


def _module(tmp_path):
    path = tmp_path / "two.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("two", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_sites_are_the_defs_and_the_statements_inside_them(tmp_path):
    path, _ = _module(tmp_path)
    functions, statements = reach.sites(path)
    # a decorated def starts at its decorator, as its code object does; docstrings carry no code
    assert functions == {4: "sign", 11: "two"}
    assert statements == {6: ("sign", "if x > 0:"), 7: ("sign", "return 1"),
                          8: ("sign", "return -1"), 13: ("two", "return 2")}


def test_unreached_names_what_the_first_runs_miss_and_whether_the_second_reach_it(tmp_path):
    path, module = _module(tmp_path)
    with reach.Reach([path]) as a:
        module.sign(1)
    with reach.Reach([path]) as b:
        module.two()
    assert a.calls == {(str(path), 4)} and b.calls == {(str(path), 11)}
    rows = reach.unreached([path], a, b)
    assert rows == [
        "two.py:11 function two  tests: yes",
        "two.py:8 in sign: return -1  tests: no",
        "two.py:13 in two: return 2  tests: yes",
    ]
    # a statement that neither set runs is not dead code: every function is called
    assert reach.exit_code(rows) == 0
    # with both runs in the first set, nothing is left
    with reach.Reach([path]) as both:
        module.sign(-1), module.sign(1), module.two()
    assert reach.unreached([path], both, b) == [] and reach.exit_code([]) == 0


def test_a_function_that_neither_set_of_runs_calls_fails_the_tool(tmp_path):
    path, module = _module(tmp_path)
    with reach.Reach([path]) as a:
        module.sign(1)
    with reach.Reach([path]) as b:
        module.sign(-1)
    rows = reach.unreached([path], a, b)
    assert rows[0] == "two.py:11 function two  tests: no"
    assert reach.exit_code(rows) == 1
