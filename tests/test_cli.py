import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from newtonsing import cli, graph, invariants, kernels
from newtonsing.cli import main
from newtonsing.invariants import SingularityModel
from newtonsing.lattice import cross, vec_sub
from newtonsing.newton import Support, make_convenient, newton_polyhedron
from newtonsing.sequences import fill_cycle
from newtonsing.series import counting_q, zeta_coefficient_convolution
from tests.conftest import FRONT_PAGE, ZETA_HEAVY, corpus_supports, curved_support, paraboloid_grid
from tests.oracles import cycles, from_payload
from tests.test_newton import random_supports


def write_doc(tmp_path, monomials, name=None):
    doc = {"monomials": [list(p) for p in monomials]}
    if name:
        doc["name"] = name
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pg_brieskorn_237(tmp_path, capsys):
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
    code, out = run_cli(capsys, path, "pg")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["pg"] == 1
    assert all(report["oracles"].values())


def test_graph_front_page(tmp_path, capsys):
    path = write_doc(tmp_path, FRONT_PAGE, name="front-page")
    code, out = run_cli(capsys, path, "graph")
    assert code == 0
    report = json.loads(out)
    verts = report["result"]["vertices"]
    leg = [v for v in verts if v.get("functional") == [2, 1, 1]]
    assert len(leg) == 1 and leg[0]["b"] == 13
    assert from_payload(report["result"]).nv == len(verts)


def test_graph_minimal_and_dot(tmp_path, capsys):
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    code, out = run_cli(capsys, path, "graph", "--minimal", "--format", "dot")
    assert code == 0
    payload, dot = out.split("\n", 1)
    report = json.loads(payload)
    assert len(report["result"]["vertices"]) == 8  # the E8 star
    assert 'v0 [label="v0 [b=2, g=0]"]' in dot


@pytest.mark.parametrize("minimal", [[], ["--minimal"]], ids=["raw", "minimal"])
@pytest.mark.parametrize("monomials", [FRONT_PAGE, [(2, 0, 0), (0, 3, 0), (0, 0, 5)]], ids=["front-page", "235"])
def test_graph_text_lists_the_payload(tmp_path, capsys, monomials, minimal):
    """`--format text` prints the JSON report, then the vertex count, one
    line per vertex in id order with its functional on the raw graph only,
    and the edge list, each read back against the report's payload."""
    path = write_doc(tmp_path, monomials)
    code, out = run_cli(capsys, path, "graph", *minimal, "--format", "text")
    report, *lines = out.rstrip("\n").split("\n")
    assert code == 0 and (0, report + "\n") == run_cli(capsys, path, "graph", *minimal)
    payload = json.loads(report)["result"]
    vertices = payload["vertices"]
    assert lines[0] == f"vertices: {len(vertices)}" and len(lines) == len(vertices) + 2
    for rec, line in zip(vertices, lines[1:-1]):
        m = re.fullmatch(r"  v(\d+): b=(\d+) g=(\d+)(?: l=\((\d+), (\d+), (\d+)\))?", line)
        assert m and [int(x) for x in m.groups()[:3]] == [rec["id"], rec["b"], rec["genus"]], line
        functional = [int(x) for x in m.groups()[3:]] if m.group(4) else None
        assert functional == rec.get("functional") and (functional is None) == bool(minimal), line
    assert lines[-1] == "edges: " + " ".join(f"({u},{v})" for u, v in payload["edges"])


def test_sw_brieskorn_235(tmp_path, capsys):
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    code, out = run_cli(capsys, path, "sw")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] == 0
    assert report["result"]["zk_sq"] == 0
    assert report["result"]["vertex_count"] == 8


def test_pg_and_sw_on_long_legs(tmp_path, capsys):
    # x^9 + y^9 + z^9 + x^5 y^3: a 56-vertex minimal graph whose legs fold
    # into their nodes' factors, so the counting oracle tries 505 node values
    path = write_doc(tmp_path, [(0, 0, 9), (0, 9, 0), (5, 3, 0), (9, 0, 0)])
    for command in ("pg", "sw"):
        start = time.perf_counter()
        code, out = run_cli(capsys, path, command)
        assert code == 0 and time.perf_counter() - start < 2
        report = json.loads(out)
        assert report["oracles"] and all(report["oracles"].values())
        assert report["result"]["pg" if command == "pg" else "value"] == 56


def test_spectrum_and_poincare(tmp_path, capsys):
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
    code, out = run_cli(capsys, path, "spectrum")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["spectrum"] == [["-1/42", 1]]
    assert report["oracles"]["saito_agrees"]
    code, out = run_cli(capsys, path, "poincare", "--max-exponent", "1")
    report = json.loads(out)
    assert code == 0
    assert ["0/1", 1] in report["result"]["terms"]
    assert ["41/42", 1] in report["result"]["terms"]
    assert report["oracles"]["newton_filtration_agrees"]


@pytest.mark.parametrize("bound", ["1e6", "1e999", "200", "1000"])
def test_huge_poincare_bound_fails_fast(tmp_path, capsys, monkeypatch, bound):
    def no_work(*args, **kwargs):
        raise RuntimeError("a Poincare path started work past the budget")

    # the budget check runs before either path starts
    monkeypatch.setattr(invariants, "run_sequence", no_work)
    monkeypatch.setattr(invariants, "poincare_newton", no_work)
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "poincare", "--max-exponent", bound)
    assert time.perf_counter() - started < 2.0
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded"
    assert "weight box budget" in report["message"]


def test_a_bound_of_the_most_digits_echoes(tmp_path, capsys):
    """1e-4299 has a denominator of 4,300 digits, the most that str() prints
    at the default limit: it answers, and the report echoes it."""
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    code, out = run_cli(capsys, path, "poincare", "--max-exponent", "1e-4299")
    report = json.loads(out)
    assert code == 0 and report["result"] == {"max_exponent": "1/1" + "0" * 4299, "terms": [["0/1", 1]]}


def test_poincare_bound_within_the_budget(tmp_path, capsys):
    path = write_doc(tmp_path, FRONT_PAGE)
    code, out = run_cli(capsys, path, "poincare", "--max-exponent", "50")
    assert code == 0
    assert json.loads(out)["oracles"]["newton_filtration_agrees"]


def test_one_face_poincare_counts_without_visiting_points(tmp_path, capsys, monkeypatch):
    # x^2 + y^3 + z^5 has one compact face: 5.1 million points have weight
    # at most 100, and the histogram is counted from the face's form
    def no_scan(*args):
        raise RuntimeError("a one-face histogram scanned the box")

    monkeypatch.setattr(kernels, "min_histogram", no_scan)
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "poincare", "--max-exponent", "100")
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out)["oracles"]["newton_filtration_agrees"]


def test_curved_support_of_radius_8_answers(tmp_path, capsys):
    # 4,228 monomials, on which the candidate-plane scan took 62.8 s
    path = write_doc(tmp_path, curved_support(8))
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "diagram")
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert sum(face["compact"] for face in json.loads(out)["result"]["faces"]) == 9


def test_polyhedron_budget_fails_fast(tmp_path, capsys):
    # the grid of side 45 has 2,116 compact faces, and its wrap would read
    # about 9e6 support points
    path = write_doc(tmp_path, paraboloid_grid(45))
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "diagram")
    assert time.perf_counter() - started < 5.0
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded"
    assert "polyhedron budget" in report["message"]


# x^2 + y^3 + z^(10^8) would have about 1.7e7 Oka vertices, and
# x^(10^30) + y^2 + z^3 one chain of 1.7e29
GIANT_GRAPHS = [[(2, 0, 0), (0, 3, 0), (0, 0, 10**8)], [(10**30, 0, 0), (0, 2, 0), (0, 0, 3)]]


@pytest.mark.parametrize("points", GIANT_GRAPHS, ids=["chain-1.7e7", "chain-1.7e29"])
def test_oka_graph_budget_fails_fast(tmp_path, capsys, points):
    path = write_doc(tmp_path, points)
    for command in ("graph", "pg"):
        started = time.perf_counter()
        code, out = run_cli(capsys, path, command)
        assert time.perf_counter() - started < 1.0
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "BudgetExceeded"
        assert "Oka graph budget" in report["message"]
    code, out = run_cli(capsys, path, "diagram")
    assert code == 0 and json.loads(out)["result"]["isolated"]


@pytest.mark.parametrize("points", ZETA_HEAVY[:2])
def test_zeta_budget_fails_fast(tmp_path, capsys, points):
    path = write_doc(tmp_path, points)
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "verify")
    assert time.perf_counter() - started < 5.0
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded"
    assert "zeta budget" in report["message"]


def test_verify_passes_where_the_product_fits_its_budget(tmp_path, capsys):
    # the product forms about 47,000 terms here; only an exponent search
    # would have run past the budget
    path = write_doc(tmp_path, ZETA_HEAVY[2])
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "verify")
    assert time.perf_counter() - started < 5.0
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] and all(report["oracles"].values())


# x^7 + y^11 + z^1000003: a graph of 12,997 vertices, and 59,000,101 kind-I steps
LONG_SEQUENCE = [(7, 0, 0), (0, 11, 0), (0, 0, 1000003)]


def test_sequence_step_budget_fails_fast(tmp_path, capsys):
    path = write_doc(tmp_path, LONG_SEQUENCE)
    started = time.perf_counter()
    code, out = run_cli(capsys, path, "pg")
    assert time.perf_counter() - started < 5.0
    assert code == 1
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["error"] == "BudgetExceeded"
    assert "sequence step budget" in report["message"]


def test_closed_stdout_exits_quietly(tmp_path):
    path = write_doc(tmp_path, LONG_SEQUENCE)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "newtonsing", path, "graph"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader goes away before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


@st.composite
def supports_up_to_nine(draw):
    """Convenient supports with every exponent at most 9."""
    axes = [draw(st.integers(2, 9)) for _ in range(3)]
    points = [tuple(a if k == c else 0 for k in range(3)) for c, a in enumerate(axes)]
    extra = st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9))
    return points + draw(st.lists(extra.filter(any), max_size=5))


@given(supports_up_to_nine())
@example(ZETA_HEAVY[0])
@example(ZETA_HEAVY[1])
@example(ZETA_HEAVY[2])
@settings(max_examples=40)
def test_verify_and_pg_keep_the_report_contract(points):
    """One JSON report on stdout, exit 0 or 1, and no internal error; a
    report without an error exits 0 with every oracle in agreement."""
    for command in ("verify", "pg"):
        code, report = _contract_report(points, command)
        if "error" not in report:
            assert code == 0 and all(report["oracles"].values()), report


def _contract_report(points, command):
    """(exit code, report) of `command` on the support read from stdin,
    checked to be one JSON report, exit 0 or 1, and no internal error."""
    doc = json.dumps({"monomials": [list(p) for p in points]})
    out = io.StringIO()
    with (
        patch("sys.stdin", io.StringIO(doc)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        code = main(["-", command])
    assert out.getvalue().count("\n") == 1
    report = json.loads(out.getvalue())
    assert code in (0, 1) and report["command"] == command
    assert report.get("error") != "InternalError", report
    return code, report


@st.composite
def large_supports(draw):
    """Up to 60 monomials with exponents at most 24; per axis an axis
    point, a point at distance one from the axis, or neither."""
    exponent = st.integers(0, 24)
    size = draw(st.integers(0, 57))
    points = draw(st.lists(st.tuples(exponent, exponent, exponent).filter(any), min_size=size, max_size=size))
    for c in range(3):
        kind = draw(st.integers(0, 5))
        if kind:
            p = [0, 0, 0]
            p[c] = draw(st.integers(1, 24))
            if kind == 1:
                p[draw(st.sampled_from([k for k in range(3) if k != c]))] = 1
            points.append(tuple(p))
    return points or [(0, 0, 1)]


@given(large_supports())
@settings(max_examples=30)
def test_large_supports_keep_the_report_contract(points):
    """`diagram`, `graph` and `pg` on supports of up to 60 monomials, out of
    reach of the candidate-plane scan's budget."""
    for command in ("diagram", "graph", "pg"):
        _contract_report(points, command)


# Exponents stay at 24 or below, which keeps each draw cheap.  `pg`'s
# sequences and counting walk branch on node values and read dual rows at
# the nodes only, so larger exponents cost little more; exponents of 3000
# are run by `test_large_exponents_answer_in_closed_form`.
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 24)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_exponents = st.integers(0, 24)
_monomials = st.one_of(
    st.lists(_exponents, min_size=3, max_size=3),
    st.lists(_exponents, max_size=5),
    st.lists(_exponents | _json_scalars, min_size=3, max_size=3),
    _json_values,
)


@st.composite
def _documents(draw):
    """Any JSON value; or a "monomials" list of anything; or a convenient
    support, now and then with one more monomial of any kind and a name."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_json_values)
    if kind == 1:
        return {"monomials": draw(st.lists(_monomials, max_size=6) | _json_values)}
    monomials = [list(p) for p in draw(supports_up_to_nine())]
    doc = {"monomials": monomials + draw(st.lists(_monomials, max_size=1))}
    if draw(st.booleans()):
        doc["name"] = draw(st.text(max_size=4) | _json_values)
    return doc


@given(_documents())
@settings(max_examples=150, deadline=None)
def test_any_json_document_gets_one_report(doc):
    """Exit 0, 1 or 2 with exactly one JSON object on stdout, whatever the
    document; exit 2 exactly for an InputError, and never an internal error."""
    raw = json.dumps(doc)
    for command in ("diagram", "graph", "pg"):
        out = io.StringIO()
        with (
            patch("sys.stdin", io.StringIO(raw)),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(io.StringIO()),
        ):
            code = main(["-", command])
        assert out.getvalue().count("\n") == 1
        report = json.loads(out.getvalue())
        assert isinstance(report, dict) and code in (0, 1, 2)
        assert (code == 2) == (report.get("error") == "InputError"), report
        assert report.get("error") != "InternalError", report


@pytest.mark.parametrize("command", ["diagram", "graph"])
def test_large_exponents_answer_in_closed_form(command):
    """Face lattice points are counted from the vertices (Pick's theorem),
    so exponents of 3000 cost no scan of the face's 4.5 * 10^6 lattice points."""
    doc = json.dumps({"monomials": [[3000, 0, 0], [0, 3000, 0], [0, 0, 3000]]})
    out = io.StringIO()
    started = time.perf_counter()
    with (
        patch("sys.stdin", io.StringIO(doc)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        code = main(["-", command])
    assert time.perf_counter() - started < 2
    assert code == 0 and out.getvalue().count("\n") == 1
    assert json.loads(out.getvalue())["command"] == command


def test_determinism(tmp_path, capsys):
    path = write_doc(tmp_path, FRONT_PAGE)
    _, out1 = run_cli(capsys, path, "diagram")
    _, out2 = run_cli(capsys, path, "diagram")
    assert out1 == out2


def test_diagram_payload(tmp_path, capsys):
    path = write_doc(tmp_path, FRONT_PAGE)
    code, out = run_cli(capsys, path, "diagram")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["convenient"] and report["result"]["rhs"]
    normals = {tuple(f["normal"]) for f in report["result"]["faces"] if f["compact"]}
    assert normals == {(11, 5, 7), (6, 3, 4), (32, 12, 21), (15, 8, 6)}
    assert report["result"]["anatomy"]["central_face"] == [11, 5, 7]


def _diagram_anatomy(tmp_path, capsys, monomials):
    code, out = run_cli(capsys, write_doc(tmp_path, monomials), "diagram")
    assert code == 0
    result = json.loads(out)["result"]
    return result["anatomy"], {tuple(f["normal"]): f["vertices"] for f in result["faces"]}


def _meet(poly, a, b):
    return any({normal, other} == {a, b} for _, _, normal, other, _ in poly.edges)


def test_diagram_anatomy_of_a_trapezoid(tmp_path, capsys):
    monomials = [(0, 0, 4), (0, 2, 0), (3, 0, 2), (3, 1, 0), (14, 0, 0)]
    anatomy, vertices = _diagram_anatomy(tmp_path, capsys, monomials)
    assert anatomy == {
        "kind": "central_face",
        "central_face": [2, 6, 3],
        "central_shape": "trapezoid",
        "central_edge_count": 0,
        "arms": {"1": [[2, 22, 11]], "2": [], "3": []},
        "degenerate_arms": [2, 3],
    }
    # the central face has four vertices, and two opposite sides are parallel
    corners = vertices[2, 6, 3]
    sides = [vec_sub(corners[(i + 1) % 4], corners[i]) for i in range(4)]
    assert len(corners) == 4
    assert any(cross(sides[i], sides[i + 2]) == (0, 0, 0) for i in range(2))


def test_diagram_arm_starts_at_the_central_face(tmp_path, capsys):
    monomials = [(0, 0, 5), (0, 1, 2), (0, 6, 0), (4, 2, 0), (5, 0, 2), (7, 0, 1), (13, 0, 0), (16, 0, 1)]
    anatomy, _ = _diagram_anatomy(tmp_path, capsys, monomials)
    assert anatomy["central_face"] == [3, 10, 11] and anatomy["central_shape"] == "triangle"
    assert anatomy["arms"] == {"1": [[2, 9, 12]], "2": [[2, 2, 5]], "3": [[1, 5, 2], [3, 15, 5]]}
    # the arm runs center outward: its first face meets the central face,
    # its second meets the first and not the central face
    poly = newton_polyhedron(Support(monomials))
    assert _meet(poly, (1, 5, 2), (3, 10, 11)) and _meet(poly, (1, 5, 2), (3, 15, 5))
    assert not _meet(poly, (3, 15, 5), (3, 10, 11))


def test_domain_error_exit_code(tmp_path, capsys):
    path = write_doc(tmp_path, [(2, 0, 0)])  # not isolated
    code, out = run_cli(capsys, path, "pg")
    assert code == 1
    assert json.loads(out)["error"] == "NotIsolated"


@pytest.mark.parametrize("command", [["graph", "--minimal"], ["verify"], ["pg"]])
def test_cycle_in_the_raw_oka_graph_is_not_rhs(tmp_path, capsys, command):
    """Making this non-convenient support convenient blows down its raw Oka
    graph, whose cycle 0-1-5-6-2 would close into a loop edge; every
    subcommand reports the same typed error."""
    path = write_doc(tmp_path, [(0, 0, 6), (0, 5, 0), (1, 1, 2), (2, 0, 1)])
    code, out = run_cli(capsys, path, *command)
    assert code == 1
    assert json.loads(out)["error"] == "NotRationalHomologySphere"


def test_usage_errors(tmp_path, capsys):
    code, _ = run_cli(capsys, str(tmp_path / "missing.json"), "pg")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, str(bad), "pg")
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"monomials": []}))
    code, _ = run_cli(capsys, str(empty), "pg")
    assert code == 2


@pytest.mark.parametrize("argv", [["--help"], ["in.json", "pg", "--help"]])
def test_help_prints_argparse_help(capsys, argv):
    parser = cli.build_parser()
    expected = (parser if len(argv) == 1 else parser.commands[argv[1]]).format_help()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.out == expected and captured.err == ""


@pytest.mark.parametrize(
    "argv, command, message",
    [
        (["-", "bogus"], None, "argument command: invalid choice: 'bogus'"),
        (["-", "graph", "--format", "png"], "graph", "argument --format: invalid choice: 'png'"),
        (["-", "poincare", "--max-exponent", "0"], "poincare", "exponent bound must be positive"),
        (["-"], None, "the following arguments are required: command"),
        (["-", "pg", "extra"], None, "unrecognized arguments: extra"),
        # Fraction would compute 10**(10**7) before the budget saw the bound
        (["-", "poincare", "--max-exponent", "1e10000000"], "poincare", "decimal exponent out of range"),
        # the report would echo a denominator of 4,301 and 4,304 digits, past
        # what str() prints at the default sys.get_int_max_str_digits()
        (["-", "poincare", "--max-exponent", "1e-4300"], "poincare", "numerator or denominator past"),
        (["-", "poincare", "--max-exponent", "0.0001e-4299"], "poincare", "numerator or denominator past"),
    ],
)
def test_usage_errors_get_one_input_error_report(capsys, argv, command, message):
    """Exit 2 within a second with one InputError report on stdout that
    carries argparse's message, and argparse's usage and error lines on
    stderr."""
    started = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert report == {"error": "InputError", "message": report["message"]}
    assert message in report["message"]
    parser = cli.build_parser()
    parser = parser if command is None else parser.commands[command]
    assert captured.err == f"{parser.format_usage()}{parser.prog}: error: {report['message']}\n"


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["graph", "--min"], ["graph", "--minimal"]),
        (["poincare", "--max", "5/2"], ["poincare", "--max-exponent", "5/2"]),
        (["poincare", "--max-exponent=5/2"], ["poincare", "--max-exponent", "5/2"]),
        (["graph", "--format=dot"], ["graph", "--format", "dot"]),
    ],
)
def test_abbreviations_and_joined_values_still_parse(tmp_path, capsys, argv, plain):
    """argparse reads these, and they answer as their plain forms do."""
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
    code, out = run_cli(capsys, path, *argv)
    assert code == 0 and (code, out) == run_cli(capsys, path, *plain)


def test_handlers_and_parser_name_the_same_commands():
    assert set(cli._HANDLERS) == set(cli.build_parser().commands)


def _plain_shapes():
    """Each subcommand with its long options by their exact names, each value
    its own token, as the README's usage lines write them."""
    yield from ([command] for command in cli._HANDLERS)
    for fmt in ("json", "text", "dot"):
        yield ["graph", "--format", fmt]
        yield ["graph", "--minimal", "--format", fmt]
        yield ["graph", "--format", fmt, "--minimal"]
    yield ["graph", "--minimal"]
    yield from (["verify", "--suite", suite] for suite in ("all", "points", "sequences", "series"))
    yield from (["poincare", "--max-exponent", bound] for bound in ("1", "8", "5/2", "0.5", "1e3"))


@pytest.mark.parametrize("source", ["-", "input.json"])
def test_plain_shapes_read_as_argparse_reads_them(source):
    """The parser keeps, per argument list, the Namespace a fresh
    `parse_args` builds, and hands the same one back on a repeat."""
    parser = cli.build_parser()
    for shape in _plain_shapes():
        argv = (source, *shape)
        args = parser.parse(argv)
        assert parser.parse(argv) is args and vars(args) == vars(parser.parse_args(list(argv))), argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h"],
        ["in.json", "pg", "--help"],
        ["in.json", "graph", "-h"],
        ["-in.json", "pg"],
        ["--", "pg"],
        ["in.json", "bogus"],
        ["in.json", "pg", "extra"],
        ["in.json", "graph", "--format"],
        ["in.json", "graph", "--format", "png"],
        ["in.json", "graph", "--format", "--minimal"],
        ["in.json", "poincare", "--max-exponent", "0"],
        ["in.json", "poincare", "--max-exponent", "-1"],
        ["in.json", "poincare", "--max-exponent", "x"],
        ["in.json", "verify", "--minimal"],
        ["in.json", "pg"],
        ["in.json", "graph", "--min", "--format=dot"],
        ["in.json", "poincare", "--max", "5/2"],
        ["in.json", "verify", "--suite", "series"],
    ],
)
def test_other_argument_lists_go_to_argparse(capsys, monkeypatch, argv):
    """Help, usage errors, abbreviations and joined values go to argparse as
    the plain shapes do.  Two runs of one list print the same bytes and exit
    alike.  argparse reads a list that parses on the first run only, and one
    that does not on both, each of which prints its usage error or help;
    the lists that parse name a missing input, whose InputError report
    prints no timing line."""
    parser = cli.build_parser()
    try:
        parser.parse_args(argv)
        parses = True
    except SystemExit:
        parses = False
    capsys.readouterr()
    parser.parse.cache_clear()
    # each parse_args call reads its list through one parse_known_args call
    calls = []
    real = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", lambda *args: calls.append(args) or real(*args))
    runs = []
    for _ in range(2):
        code = main(argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    assert runs[0] == runs[1] and runs[0][0] in (0, 2)
    assert len(calls) == (1 if parses else 2)


def test_a_report_too_large_to_encode_is_one_internal_error(capsys, monkeypatch):
    """x^a + y^b + z^c with a, b and c near 10^1500 reads fine, but its face
    value abc has about 4,500 digits, more than `int` turns into text
    (`sys.get_int_max_str_digits()`): the report that cannot be encoded
    leaves as one InternalError report, with no traceback."""
    n = 10**1500
    doc = json.dumps({"monomials": [[n + 1, 0, 0], [0, n + 3, 0], [0, 0, n + 7]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code = main(["-", "diagram"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert report["error"] == "InternalError" and report["command"] == "diagram"
    assert report["message"].startswith("ValueError: Exceeds the limit")
    assert "result" not in report and report["input"]["monomials"] == [[0, 0, n + 7], [0, n + 3, 0], [n + 1, 0, 0]]
    assert captured.err.startswith("elapsed_seconds=") and captured.err.count("\n") == 1


@pytest.mark.parametrize("exponent", ["1e400", "2.7", '"2"', "true"])
def test_non_integer_exponent_is_input_error(tmp_path, capsys, exponent):
    path = tmp_path / "input.json"
    path.write_text('{"monomials": [[%s, 0, 0], [0, 3, 0], [0, 0, 7]]}' % exponent)
    code = main([str(path), "pg"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == "InputError"
    assert "Traceback" not in captured.err


def assert_input_error_on_stdin_and_file(tmp_path, capsys, monkeypatch, raw: bytes):
    import io

    path = tmp_path / "input.json"
    path.write_bytes(raw)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    for source in ("-", str(path)):
        code = main([source, "pg"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "InputError"
        assert "Traceback" not in captured.err


def test_deeply_nested_input_is_input_error(tmp_path, capsys, monkeypatch):
    # json.loads raises RecursionError long before the nesting ends
    raw = b'{"monomials": ' + b"[" * 100_000
    assert_input_error_on_stdin_and_file(tmp_path, capsys, monkeypatch, raw)


def test_non_utf8_input_is_input_error(tmp_path, capsys, monkeypatch):
    assert_input_error_on_stdin_and_file(tmp_path, capsys, monkeypatch, b"\xff\xfe")


def test_stdin_input(capsys, monkeypatch):
    import io

    doc = json.dumps({"name": "front-page", "monomials": [list(p) for p in FRONT_PAGE]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out = run_cli(capsys, "-", "pg")
    assert code == 0
    assert json.loads(out)["result"]["pg"] == 14


def test_verify_all(tmp_path, capsys):
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
    code, out = run_cli(capsys, path, "verify", "--suite", "all")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["passed"]
    assert all(report["result"]["checks"].values())


@pytest.mark.parametrize(
    "error",
    [
        AssertionError("broken invariant"),
        RecursionError("too deep"),
        IndexError("list index out of range"),
        ZeroDivisionError("division by zero"),
    ],
)
def test_internal_errors_are_json_reports(tmp_path, capsys, monkeypatch, error):
    def broken(model, args):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "pg", broken)
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
    code = main([path, "pg"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["error"] == "InternalError"
    assert report["message"] == f"{type(error).__name__}: {error}"
    assert report["command"] == "pg"
    assert "Traceback" not in captured.err


def test_zk_off_the_adjunction_equalities_is_internal_error(tmp_path, capsys, monkeypatch):
    from newtonsing import invariants

    original = invariants.merle_teissier_ZK

    def shifted(og):
        zk = list(original(og))
        zk[0] += 1
        return tuple(zk)

    monkeypatch.setattr(invariants, "merle_teissier_ZK", shifted)
    path = write_doc(tmp_path, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
    code = main([path, "pg"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["error"] == "InternalError"
    assert report["message"].startswith("AssertionError: adjunction equalities fail at vertices [0,")
    assert "Traceback" not in captured.err


def test_verify_series_runs_one_counting_walk_and_one_product(tmp_path, capsys, monkeypatch):
    q_calls, zeta_calls = [], []

    def counted_q(g, lps):
        q_calls.append([tuple(lp) for lp in lps])
        return counting_q(g, lps)

    def counted_zeta(g, lps):
        zeta_calls.append([tuple(lp) for lp in lps])
        return zeta_coefficient_convolution(g, lps)

    monkeypatch.setattr(cli, "counting_q", counted_q)
    monkeypatch.setattr(cli, "zeta_coefficient_convolution", counted_zeta)
    path = write_doc(tmp_path, FRONT_PAGE)
    code, out = run_cli(capsys, path, "verify", "--suite", "series")
    assert code == 0
    assert json.loads(out)["result"]["passed"]
    m = SingularityModel(Support(FRONT_PAGE))
    zk, nodes = m.zk_minimal, m.minimal.nodes
    # kind I's node values before each step, then Z_K's: the fills of the
    # chain's targets are kind I's cycles
    chain = m.sequence("I").node_values() + [tuple(zk[n] for n in nodes)]
    assert len(chain) > 2 and chain[0] == (0,) * len(nodes) and 0 < len(nodes) < len(zk)
    assert q_calls == [chain]
    assert [fill_cycle(m.minimal, z) for z in chain] == cycles(m.sequence("I"))
    assert zeta_calls == [[(0,) * len(zk), zk, tuple(x + 1 for x in zk)]]


class _Unreadable:
    """Stands in for a support's points once the polyhedron is built."""

    def __iter__(self):
        raise AssertionError("a stage after the polyhedron read the monomials")


def test_verify_builds_each_context_once_and_reads_no_monomial_after_the_polyhedron(tmp_path, capsys, monkeypatch):
    # both tie-breaks of `pg` share the model's kind I and III contexts
    calls = Counter()
    for name in ("kind1_context", "kind2_context", "kind3_context"):
        real = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    path = write_doc(tmp_path, FRONT_PAGE)
    code, out = run_cli(capsys, path, "verify")
    assert code == 0 and json.loads(out)["result"]["passed"]
    assert calls == {"kind1_context": 1, "kind2_context": 1, "kind3_context": 1}
    # the Oka graph, Z_K and every sequence are functions of the polyhedron:
    # once it (and the convenience test) has read the support, nothing does
    m = SingularityModel(Support(FRONT_PAGE))
    m.polyhedron, m.oka
    m.support.points = _Unreadable()
    m.pg(), m.sw(), m.spectrum(), m.saito_spectrum(), m.pg_lattice_count()
    m.poincare_via_sequence(3), m.poincare_newton(3)
    checks = {}
    for verify in (cli._verify_points, cli._verify_sequences, cli._verify_series):
        verify(m, checks)
    assert checks and all(checks.values())


def test_graph_minimal_blows_a_completion_down_once(tmp_path, capsys, monkeypatch):
    # not convenient (no z-axis monomial), and its Oka graphs are no trees
    support = [(0, 1, 4), (0, 5, 0), (1, 1, 1), (2, 0, 0), (5, 2, 5)]
    real = graph.minimal_model
    calls = []

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graph, "minimal_model", counted)
    monkeypatch.setattr(invariants, "minimal_model", counted)
    path = write_doc(tmp_path, support)
    code, out = run_cli(capsys, path, "graph", "--minimal")
    assert code == 0
    # one blow-down for the support's own graph, one for the completion
    assert len(calls) == 2
    monkeypatch.undo()
    og, _ = make_convenient(newton_polyhedron(Support(support)))
    assert json.loads(out)["result"] == real(og.graph)[0].to_payload(None)


def test_production_path_never_runs_the_laufer_walk(tmp_path, capsys, monkeypatch):
    # chains are filled from node values; the walk is only the tests' oracle
    def walk(*args):
        raise RuntimeError("the Laufer walk ran on the production path")

    monkeypatch.setattr(kernels, "laufer_complete", walk)
    for support in corpus_supports():
        path = write_doc(tmp_path, support.points)
        for command in ("pg", "spectrum", "poincare", "sw", "verify"):
            code, out = run_cli(capsys, path, command)
            assert code == 0, (support.points, command, out)


def dominated(points, count, spread, seed):
    """`points` and `count` more, each s + (1, 1, 1) + r for a support point
    s and 0 <= r < spread: strictly inside every face's halfspace."""
    rng = random.Random(seed)
    out = set(points)
    while len(out) < len(points) + count:
        out.add(tuple(x + 1 + rng.randrange(spread) for x in rng.choice(points)))
    return sorted(out)


def test_dominated_monomials_change_no_report(tmp_path, capsys):
    """Metamorphic: monomials strictly above the diagram leave every report
    of a convenient support unchanged (the exit code, the result and the
    oracles; only the input echo differs).  Past the polyhedron no stage
    reads the support, which 20,000 of them above (2,3,1001) exercise."""

    def reports(points, commands):
        path = write_doc(tmp_path, points)
        out = []
        for command in commands:
            code, text = run_cli(capsys, path, *command.split())
            report = json.loads(text)
            out.append((code, report.get("result"), report.get("oracles")))
        return out

    every = ("diagram", "graph", "graph --minimal", "pg", "sw", "spectrum", "poincare", "verify")
    for n, support in enumerate(corpus_supports()):
        expected = reports(support.points, every)
        assert all(code == 0 for code, _, _ in expected), support
        assert reports(dominated(support.points, 30, 4, n), every) == expected, support
    base = [(2, 0, 0), (0, 3, 0), (0, 0, 1001)]
    large = reports(dominated(base, 20000, 40, 1001), ("pg", "sw", "verify"))
    assert large == reports(base, ("pg", "sw", "verify"))


def test_permuting_coordinates_keeps_every_report(tmp_path, capsys):
    """Metamorphic: renaming x, y and z leaves pg, spectrum, poincare, sw
    and verify unchanged (the exit code, the result, the oracles and the
    error type; only the input echo and the error message, which prints
    the support, differ).  This checks the polyhedron and the Oka front end
    against themselves, on generated supports of every outcome."""

    def reports(points):
        path = write_doc(tmp_path, points)
        out = []
        for command in ("pg", "spectrum", "poincare", "sw", "verify"):
            code, text = run_cli(capsys, path, command)
            report = json.loads(text)
            out.append((code, report.get("result"), report.get("oracles"), report.get("error")))
        return out

    outcomes = set()
    for support in random_supports(53, 40):
        expected = reports(support.points)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert reports([tuple(p[i] for i in perm) for p in support.points]) == expected, (support, perm)
        outcomes.add(expected[0][3])
    assert {None, "NotTree", "NoCompactFace", "NotIsolated", "NotRationalHomologySphere"} <= outcomes
