"""Command line front end.

Reads a JSON input document {"monomials": [[a,b,c], ...], "name": ...} from
a file or standard input, dispatches one subcommand and prints a JSON
report on stdout.  Reports are byte-identical across runs: keys are sorted,
rationals render as "p/q", and timing goes to stderr.

Exit codes: 0 success, 1 domain error, 2 usage or input error.
"""

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from .errors import InputError, NewtonsingError
from .invariants import SingularityModel
from .newton import Support, classify_diagram, is_convenient
from .sequences import kind1_context, run_sequence
from .series import counting_q, enumerate_P, zeta_coefficient, zeta_coefficient_convolution


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _poly_pairs(poly):
    return [[_rat(e), c] for e, c in poly.terms()]


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
    except (OSError, json.JSONDecodeError) as exc:
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
    adjacency = [
        [sorted(list(n) for n in key), t]
        for key, t in sorted(poly.adjacency.items(), key=lambda kv: sorted(kv[0]))
    ]
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


def _cmd_pg(model, args):
    res = model.pg()
    count = model.pg_lattice_count()
    q = counting_q(model.minimal.data, model.minimal, model.zk_minimal)
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
    q = counting_q(model.minimal.data, model.minimal, model.zk_minimal)
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
    seq2 = model.sequence("II", max_ratio=1)
    rep2 = enumerate_P(og, seq2, prefix_only=True)
    checks["points/kind2_prefix_sizes"] = all(rep2.sizes_match)
    ctx1 = kind1_context(og.graph, og)
    seq1 = run_sequence(ctx1)
    rep1 = enumerate_P(og, seq1)
    checks["points/kind1_total"] = sum(len(s) for s in rep1.point_sets) == seq1.total
    checks["points/lattice_count"] = model.pg_lattice_count() == model.pg().value


def _verify_sequences(model, checks):
    res = model.pg()
    checks["sequences/kind1_equals_kind3"] = res.via_minimal == res.via_diagram
    checks["sequences/spectrum_saito"] = model.spectrum() == model.saito_spectrum()
    checks["sequences/poincare"] = model.poincare_via_sequence(3) == model.poincare_newton(3)
    for kind in ("I", "III"):
        seq = model.sequence(kind)
        ratios = [s.r for s in seq.steps]
        checks[f"sequences/kind{kind}_ratios_monotone"] = all(
            a <= b for a, b in zip(ratios, ratios[1:])
        )
    checks["sequences/tie_break_invariance"] = model.pg().value == model.pg(tie_break="reversed").value


def _verify_series(model, checks):
    g = model.minimal
    data = g.data
    zk = model.zk_minimal
    checks["series/q_zero"] = counting_q(data, g, (0,) * g.nv) == 0
    checks["series/q_zk_equals_pg"] = counting_q(data, g, zk) == model.pg().value
    seq = model.sequence("I")
    ok = True
    for i, step in enumerate(seq.steps):
        nxt = seq.steps[i + 1].Z if i + 1 < len(seq.steps) else seq.reached
        if counting_q(data, g, nxt) - counting_q(data, g, step.Z) != step.a:
            ok = False
            break
    checks["series/q_stepwise"] = ok
    zok = all(
        zeta_coefficient(data, g, c) == zeta_coefficient_convolution(data, g, c)
        for c in ([0] * g.nv, zk, [x + 1 for x in zk])
    )
    checks["series/zeta_two_paths"] = zok


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
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("exponent bound must be positive")
    return value


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    started = time.perf_counter()
    try:
        support, name = read_document(args.input)
    except InputError as exc:
        print(json.dumps({"error": "InputError", "message": str(exc)}, sort_keys=True))
        return 2
    model = SingularityModel(support)
    report = {
        "command": args.command,
        "input": {"monomials": [list(p) for p in support.points], "name": name},
    }
    try:
        out = _HANDLERS[args.command](model, args)
    except NewtonsingError as exc:
        report["error"] = type(exc).__name__
        report["message"] = str(exc)
        print(json.dumps(report, sort_keys=True))
        print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
        return 1
    result, oracles = out[0], out[1]
    report["result"] = result
    if oracles:
        report["oracles"] = oracles
    print(json.dumps(report, sort_keys=True))
    if len(out) > 2:
        print(out[2])
    print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    if args.command == "verify" and not result["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
