import ast
from pathlib import Path

import newtonsing

SOURCES = sorted(Path(newtonsing.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """`python -O` strips assert statements, so no check may be one."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_nested_function_refers_to_itself():
    """A nested function that calls itself holds itself in a closure cell:
    a reference cycle that keeps whatever it closes over alive until the
    cyclic collector runs.  Recursion goes through explicit stacks."""
    found = []
    for path in SOURCES:
        for outer in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                    found.append(f"{path.name}:{inner.lineno} {inner.name}")
    assert found == []
