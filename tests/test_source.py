import ast
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import newtonsing
from newtonsing.sequences import SequenceContext, SequenceResult

SOURCES = sorted(Path(newtonsing.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(newtonsing.__file__).parents[2] / "perfbench").glob("*.py"))


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


def _read_names(tree):
    """(name, line) of every name and attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_referenced():
    """Every function, class and method of the package is named somewhere in
    the package outside its own body, or by the benchmark (as a name, or as
    a part of a dotted string such as a traced layer).  Code that only the
    tests call lives in the tests.  `__init__.py` re-exports names and does
    not count; dunder methods are called by the language."""
    assert BENCHMARK
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in SOURCES
        if path.name != "__init__.py"
    }
    reads = [(name, module, line) for module, tree in trees.items() for name, line in _read_names(tree)]
    benchmark = set()
    for path in BENCHMARK:
        tree = ast.parse(path.read_text(), filename=str(path))
        benchmark.update(name for name, _ in _read_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                benchmark.update(node.value.split("."))
    unreferenced = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in benchmark:
                continue
            if not any(
                read == name and not (where == module and node.lineno <= line <= node.end_lineno)
                for read, where, line in reads
            ):
                unreferenced.append(f"{module}:{node.lineno} {name}")
    assert unreferenced == []


def test_chain_fills_stay_in_the_sequences_module():
    """`fill_cycle` is called only inside `sequences.py` (the reached cycle
    and the kind-III target): the readers of a sequence compare its cycles
    at the nodes, so no step's full cycle is filled elsewhere."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "fill_cycle" or getattr(node.func, "attr", None) == "fill_cycle")
    ]
    assert calls and all(call.startswith("sequences.py:") for call in calls), calls


def test_sequences_keep_their_steps_as_columns():
    """`sequences.py` never names `Fraction` and defines no class besides the
    context and the result: a sequence's steps are two integer columns, with
    no object per step, and each node's ratio is one integer key over the
    lcm of the node denominators."""
    path = Path(newtonsing.__file__).parent / "sequences.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {name for name, _ in _read_names(tree)}
    names.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert "Fraction" not in names
    classes = sorted(node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
    assert classes == ["SequenceContext", "SequenceResult"]


def test_sequence_context_hands_over_the_result_node_columns():
    """A context holds the ratio data as the two node columns under the
    names the result reads them by, so `run_sequence` copies nothing."""
    context = [field.name for field in fields(SequenceContext)]
    assert context == ["kind", "graph", "target", "offsets", "denominators"]
    assert set(context) <= {field.name for field in fields(SequenceResult)}


def test_test_extra_lists_the_third_party_imports():
    """The `test` extra in pyproject.toml names exactly the third-party
    modules that `tests/` and `perfbench/` import: neither the standard
    library nor the repo's own modules."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(newtonsing.__file__).parents[2]
    own = {"newtonsing", "tests", "perfbench"} | {path.stem for path in BENCHMARK}
    imported = set()
    for path in sorted((root / "tests").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - own
    extra = tomllib.loads((root / "pyproject.toml").read_text())["project"]["optional-dependencies"]["test"]
    assert third_party == set(extra)


def test_counting_walk_reads_the_node_table():
    """`series.py` names no `arms`: the counting walk reads
    `PlumbingGraph.node_chains`, the per-node table the sequences read, and
    never a chain vertex."""
    path = Path(newtonsing.__file__).parent / "series.py"
    names = {name for name, _ in _read_names(ast.parse(path.read_text(), filename=str(path)))}
    assert "node_chains" in names and "arms" not in names


def test_dual_rows_are_built_one_by_one_on_trees():
    """No module names `scaled_duals`, and `graph._bareiss` eliminates the
    form alone, with no identity block beside it (no `i == j` test and no
    row concatenation): a tree's dual rows are built one by one where they
    are read, and the dense pass certifies the form and keeps |det| only."""
    assert not [path.name for path in SOURCES if "scaled_duals" in path.read_text()]
    path = Path(newtonsing.__file__).parent / "graph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (bareiss,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_bareiss"]
    equalities = [
        node
        for node in ast.walk(bareiss)
        if isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops)
    ]
    concatenations = [
        node
        for node in ast.walk(bareiss)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and any(isinstance(side, (ast.List, ast.ListComp)) for side in (node.left, node.right))
    ]
    assert "intersection_matrix" in {name for name, _ in _read_names(bareiss)}
    assert equalities == [] and concatenations == []


def test_edge_incidence_has_one_producer():
    """`NewtonPolyhedron.edges` is the one list of which faces meet at which
    edge: no module defines `_diagram_edges`, `t_between` or `all_faces`
    (as a function, class, field or assigned name), and none reads an
    attribute named `adjacency`."""
    defined, reads = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    defined.add(node.attr)
                elif node.attr == "adjacency":
                    reads.append(f"{path.name}:{node.lineno}")
    assert defined & {"_diagram_edges", "t_between", "all_faces"} == set()
    assert reads == []


def test_readme_names_every_budget():
    """Every module-level integer constant that a function raising
    `BudgetExceeded` reads is a budget, and the README's budget paragraph
    names it as `module.NAME`."""
    readme = (Path(newtonsing.__file__).parents[2] / "README.md").read_text()
    (paragraph,) = [block for block in readme.split("\n\n") if block.startswith("Budgets.")]
    budgets = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = {
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Constant, ast.BinOp))
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper() and not target.id.startswith("_")
        }
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            raises = [
                node
                for node in ast.walk(function)
                if isinstance(node, ast.Raise) and "BudgetExceeded" in {name for name, _ in _read_names(node)}
            ]
            if raises:
                names = {name for name, _ in _read_names(function)}
                budgets.update(f"{path.stem}.{name}" for name in constants & names)
    assert len(budgets) >= 6, budgets
    assert sorted(name for name in budgets if f"`{name}`" not in paragraph) == []
