"""No `hypothesis` test runs under a blanket warnings-as-errors filter.

When a property fails, hypothesis's failure report imports modules that emit
a DeprecationWarning of their own; under `filterwarnings("error")` that
warning is raised inside the report, and pytest shows an INTERNALERROR that
names no test in place of the shrunk example. Property tests filter by
category instead, such as `error::RuntimeWarning`.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _name(node) -> str:
    """The last dotted part of a decorator's callee (`given`, `filterwarnings`)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_blanket(spec: str) -> bool:
    """An "error" filter with no category: "error", "error:some message", "error::"."""
    fields = spec.split(":")
    return fields[0].strip() == "error" and (len(fields) < 3 or not fields[2].strip())


def blanket_property_tests(source: str) -> list[tuple[int, str]]:
    """(line, name) of each `@given` function that a blanket "error"
    `filterwarnings` mark reaches, on the function or on its class."""
    found = []

    def visit(node, inherited: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            specs = [
                a.value
                for d in child.decorator_list
                if isinstance(d, ast.Call) and _name(d) == "filterwarnings"
                for a in d.args
                if isinstance(a, ast.Constant) and isinstance(a.value, str)
            ]
            blanket = inherited or any(map(_is_blanket, specs))
            if isinstance(child, ast.ClassDef):
                visit(child, blanket)
            elif blanket and any(_name(d) == "given" for d in child.decorator_list):
                found.append((child.lineno, child.name))

    visit(ast.parse(source), False)
    return found


def test_no_property_test_errors_on_every_warning():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(TESTS.glob("*.py"))
        for line, name in blanket_property_tests(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_checker_sees_blanket_filters_only():
    source = "\n".join(
        [
            "import pytest",
            "from hypothesis import given, strategies as st",
            "@pytest.mark.filterwarnings('error')",
            "@given(st.integers())",
            "def test_blanket(x): pass",
            "@pytest.mark.filterwarnings('error::RuntimeWarning')",
            "@given(st.integers())",
            "def test_by_category(x): pass",
            "@pytest.mark.filterwarnings('error')",
            "def test_not_a_property(): pass",
            "@pytest.mark.filterwarnings('error:overflow')",
            "class TestOuter:",
            "    @given(st.integers())",
            "    def test_in_a_blanket_class(self, x): pass",
            "@pytest.mark.filterwarnings('ignore::DeprecationWarning', 'error::')",
            "@given(st.integers())",
            "def test_second_argument(x): pass",
        ]
    )
    assert blanket_property_tests(source) == [
        (5, "test_blanket"),
        (14, "test_in_a_blanket_class"),
        (17, "test_second_argument"),
    ]
