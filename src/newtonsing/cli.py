"""Command line front end.

Reads a JSON input document {"monomials": [[a,b,c], ...], "name": ...} from
a file or standard input, dispatches one subcommand and prints a JSON
report on stdout.  Reports are byte-identical across runs: keys are sorted,
rationals render as "p/q", and timing goes to stderr.

argparse reads every argument list, and the parser keeps its Namespace per
distinct list, so a repeated request is parsed once.

Exit codes: 0 success, 1 domain or internal error, 2 usage or input error.
A usage error prints argparse's usage and message on stderr and an
InputError report with that message on stdout.  Any other exception of a
subcommand (a broken invariant check, exhausted recursion) is reported as
an InternalError, never as a traceback, and so is a report too large to
encode: a subcommand's report is encoded before it is printed, once.  When
the reader of stdout has gone (`newtonsing ... | head`), the run exits 1
quietly.
"""

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from math import gcd

from .errors import InputError, InternalError, NewtonsingError
from .invariants import SingularityModel
from .newton import Support, classify_diagram, is_convenient
from .sequences import kind1_context, run_sequence
from .series import counting_q, enumerate_P, zeta_coefficient, zeta_coefficient_convolution

# the bytes of json.dumps(obj, sort_keys=True), without a new encoder per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _poly_pairs(poly):
    """[[_rat(e), c] for e, c in poly.terms()], read off the integer numerators."""
    den = poly.denominator
    pairs = []
    for k, c in sorted(poly.numerators.items()):
        g = gcd(k, den)
        pairs.append([f"{k // g}/{den // g}", c])
    return pairs


def _spectrum_pairs(counter):
    return [[_rat(e), m] for e, m in sorted(counter.items())]


def read_document(path):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSON or UTF-8
        raise InputError(f"cannot read input document: {exc}") from exc
    if not isinstance(doc, dict) or "monomials" not in doc:
        raise InputError('input document needs a "monomials" key')
    monomials = doc["monomials"]
    if not isinstance(monomials, list) or not monomials:
        raise InputError('"monomials" must be a nonempty list')
    if any(isinstance(x, bool) for m in monomials if isinstance(m, list) for x in m):
        raise InputError("exponents must be integers, not booleans")
    try:
        support = Support(monomials)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError('"name" must be a string')
    return support, name


def _cmd_diagram(model, args):
    poly = model.polyhedron
    faces = []
    for f in poly.compact_faces + poly.noncompact_faces:
        faces.append(
            {
                "compact": f.compact,
                "normal": list(f.normal),
                "value": f.value,
                "vertices": [list(v) for v in f.vertices],
            }
        )
    adjacency = sorted([sorted([list(a), list(b)]), t] for _, _, a, b, t in poly.edges)
    result = {
        "faces": faces,
        "adjacency": adjacency,
        "convenient": is_convenient(model.support),
        "isolated": True,
        "rhs": model.is_rhs,
    }
    if model.is_rhs and poly.compact_faces:
        report = classify_diagram(poly)
        result["anatomy"] = {
            "kind": report.kind,
            "central_face": list(report.central_face.normal) if report.central_face else None,
            "central_shape": report.central_shape,
            "central_edge_count": report.central_edge_count,
            "arms": {str(axis + 1): [list(n) for n in chain] for axis, chain in report.arms.items()},
            "degenerate_arms": [a + 1 for a in report.degenerate_arms],
        }
    return result, {}


def _cmd_graph(model, args):
    if args.minimal:
        graph, ell = model.minimal, None
    else:
        og = model.oka_raw
        graph, ell = og.graph, og.ell
    payload = graph.to_payload(ell)
    if args.format == "dot":
        return payload, {}, graph.to_dot()
    if args.format == "text":
        lines = [f"vertices: {graph.nv}"]
        for rec in payload["vertices"]:
            extra = f" l={tuple(rec['functional'])}" if "functional" in rec else ""
            lines.append(f"  v{rec['id']}: b={rec['b']} g={rec['genus']}{extra}")
        lines.append("edges: " + " ".join(f"({u},{v})" for u, v in payload["edges"]))
        return payload, {}, "\n".join(lines)
    return payload, {}


def _zk_nodes(model):
    """Z_K's node values on the minimal model; Z_K is their fill (kind I's end)."""
    return [model.zk_minimal[n] for n in model.minimal.nodes]


def _cmd_pg(model, args):
    res = model.pg()
    count = model.pg_lattice_count()
    q = counting_q(model.minimal, [_zk_nodes(model)])[0]
    oracles = {
        "lattice_count_agrees": count == res.value,
        "counting_function_agrees": q == res.value,
    }
    return {"pg": res.value, "via_minimal": res.via_minimal, "via_diagram": res.via_diagram}, oracles


def _cmd_spectrum(model, args):
    spec = model.spectrum()
    saito = model.saito_spectrum()
    return {"spectrum": _spectrum_pairs(spec)}, {"saito_agrees": spec == saito}


def _cmd_poincare(model, args):
    bound = args.max_exponent
    via_seq = model.poincare_via_sequence(bound)
    direct = model.poincare_newton(bound)
    return (
        {"max_exponent": _rat(bound), "terms": _poly_pairs(via_seq)},
        {"newton_filtration_agrees": via_seq == direct},
    )


def _cmd_sw(model, args):
    res = model.sw()
    q = counting_q(model.minimal, [_zk_nodes(model)])[0]
    return (
        {
            "value": res.value,
            "zk_sq": res.zk_sq,
            "vertex_count": res.vertex_count,
            "sw_canonical": _rat(res.sw_canonical),
        },
        {"counting_function_agrees": q == res.value},
    )


def _verify_points(model, checks):
    og = model.oka
    seq3 = model.sequence("III")
    rep3 = enumerate_P(og, seq3)
    checks["points/kind3_sizes"] = all(rep3.sizes_match)
    checks["points/kind3_partition"] = (
        set().union(*rep3.point_sets) == rep3.outside_points if rep3.point_sets else not rep3.outside_points
    )
    rep2 = enumerate_P(og, model.sequence("II"))
    checks["points/kind2_prefix_sizes"] = all(rep2.sizes_match)
    seq1 = run_sequence(kind1_context(og.graph, model.zk_oka))
    rep1 = enumerate_P(og, seq1)
    checks["points/kind1_total"] = sum(len(s) for s in rep1.point_sets) == seq1.total
    checks["points/lattice_count"] = model.pg_lattice_count() == model.pg().value


def _verify_sequences(model, checks):
    res = model.pg()
    checks["sequences/kind1_equals_kind3"] = res.via_minimal == res.via_diagram
    checks["sequences/spectrum_saito"] = model.spectrum() == model.saito_spectrum()
    checks["sequences/poincare"] = model.poincare_via_sequence(3) == model.poincare_newton(3)
    for kind in ("I", "III"):
        # integer numerators over one denominator compare as the ratios do
        ratios = list(model.sequence(kind).numerators())
        checks[f"sequences/kind{kind}_ratios_monotone"] = all(
            a <= b for a, b in zip(ratios, ratios[1:])
        )
    checks["sequences/tie_break_invariance"] = model.pg().value == model.pg(tie_break="reversed").value


def _verify_series(model, checks):
    g = model.minimal
    zk = model.zk_minimal
    seq = model.sequence("I")
    # kind I's node values run from 0 to those of Z_K (`SingularityModel.sequence`)
    q = counting_q(g, seq.node_values() + [_zk_nodes(model)])
    checks["series/q_zero"] = q[0] == 0
    checks["series/q_zk_equals_pg"] = q[-1] == model.pg().value
    checks["series/q_stepwise"] = all(
        after - before == a for a, before, after in zip(seq.increments(), q, q[1:])
    )
    points = ([0] * g.nv, zk, [x + 1 for x in zk])
    checks["series/zeta_two_paths"] = all(
        zeta_coefficient(g, c) == z for c, z in zip(points, zeta_coefficient_convolution(g, points))
    )


def _cmd_verify(model, args):
    checks = {}
    if args.suite in ("all", "points"):
        _verify_points(model, checks)
    if args.suite in ("all", "sequences"):
        _verify_sequences(model, checks)
    if args.suite in ("all", "series"):
        _verify_series(model, checks)
    return {"suite": args.suite, "checks": checks, "passed": all(checks.values())}, checks


def _positive_fraction(text):
    # Fraction computes 10**exponent for "1e<exponent>", and the report echoes
    # p/q: bound the exponent, p and q as int() bounds the digits of a number
    limit = sys.get_int_max_str_digits()
    _, e, exponent = text.upper().partition("E")
    try:
        if e and 0 < limit < abs(int(exponent)):
            raise argparse.ArgumentTypeError(f"decimal exponent out of range: {text!r}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("exponent bound must be positive")
    if limit and max(value.numerator, value.denominator) >= 10**limit:
        raise argparse.ArgumentTypeError(f"numerator or denominator past {limit} digits: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors also print one InputError
    report on stdout; the subcommands' parsers are of this class too."""

    def error(self, message):
        print(_encode({"error": "InputError", "message": message}))
        super().error(message)


@functools.cache
def build_parser():
    """The parser, with `commands` (subcommand -> its parser) and `parse`:
    `parse_args` kept per argv tuple, so argparse reads each distinct
    argument list once, and every run of a list shares its Namespace, which
    the handlers only read.  A list that fails to parse raises SystemExit
    and is not kept, so its usage error is printed on every run."""
    parser = _Parser(
        prog="newtonsing",
        description="Invariants of Newton nondegenerate surface singularities",
    )
    parser.add_argument("input", help="input JSON document, or - for stdin")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("diagram", help="faces, convenience, RHS flag and anatomy")
    g = sub.add_parser("graph", help="resolution graph from Oka's algorithm")
    g.add_argument("--minimal", action="store_true", help="blow down to the minimal model")
    g.add_argument("--format", choices=("json", "text", "dot"), default="json")
    sub.add_parser("pg", help="geometric genus")
    sub.add_parser("spectrum", help="spectrum part in (-1, 0]")
    p = sub.add_parser("poincare", help="Poincare series of the Newton filtration")
    p.add_argument(
        "--max-exponent",
        type=_positive_fraction,
        default=Fraction(3),
        help="truncation exponent (rational, e.g. 5/2)",
    )
    sub.add_parser("sw", help="normalized Seiberg-Witten invariant")
    v = sub.add_parser("verify", help="run the oracle cross-checks on this input")
    v.add_argument("--suite", choices=("all", "points", "sequences", "series"), default="all")
    parser.commands = sub.choices
    parser.parse = functools.lru_cache(parser.parse_args)
    return parser


_HANDLERS = {
    "diagram": _cmd_diagram,
    "graph": _cmd_graph,
    "pg": _cmd_pg,
    "spectrum": _cmd_spectrum,
    "poincare": _cmd_poincare,
    "sw": _cmd_sw,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at the null device, so that the interpreter's own
        # flush at exit does not fail on the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse(tuple(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    started = time.perf_counter()
    try:
        support, name = read_document(args.input)
    except InputError as exc:
        print(_encode({"error": "InputError", "message": str(exc)}))
        return 2
    report = {
        "command": args.command,
        "input": {"monomials": [list(p) for p in support.points], "name": name},
    }
    try:
        # the report is encoded in here, so one that cannot be (an int past
        # sys.get_int_max_str_digits()) is an InternalError too
        result, oracles, *text = _HANDLERS[args.command](SingularityModel(support), args)
        done = dict(report, result=result)
        if oracles:
            done["oracles"] = oracles
        lines = [_encode(done), *text]
        code = 1 if args.command == "verify" and not result["passed"] else 0
    except Exception as exc:
        if not isinstance(exc, NewtonsingError):
            exc = InternalError(f"{type(exc).__name__}: {exc}")
        lines = [_encode(dict(report, error=type(exc).__name__, message=str(exc)))]
        code = 1
    print(*lines, sep="\n")
    print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
