"""Command-line front end: eval, demo, diagram and check commands.

Exit codes: 0 on success (a truth-value gap is a result, not an error),
1 on validation errors, 2 on I/O errors. Tolerance precedence: scenario
eps field, then --eps, then the QPROP_EPS environment variable, then the
built-in default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .composition import induced_bivalence
from .errors import QpropError
from .hasse import DiagramOptions, annotate, build_graph, emit_dot, merge_graphs
from .lattices import (
    LatticeCollection,
    check_distributivity,
    lattice_of,  # unused; bench/test_bench.py checks that its tracer patches this name
    paste_sublattice,
)
from .scenario import Scenario, check_scenario, parse_scenario
from .subspaces import (
    Subspace,
    commutator,
    contains_vector,
    equal_to,
    meet,
    projector_of,
    resolve_tol,
    subspaces_commute,
)
from .valuation import (
    Proposition,
    TruthValue,
    evaluate_disjunction_with_negation,
    truth_table,
)

DEMO_SCENARIOS = {
    "intro": "intro_qubit.json",
    "environment": "env_two_qubit.json",
    "classical-limit": "classical_limit.json",
}


def _bundled_text(filename: str) -> str:
    return resources.files("qprop").joinpath("scenarios", filename).read_text("utf-8")


def _cli_eps(args) -> float | None:
    """The --eps or QPROP_EPS override, checked against the tolerance contract."""
    if args.eps is not None:
        source, eps = "--eps", args.eps
    else:
        env = os.environ.get("QPROP_EPS")
        if not env:
            return None
        try:
            source, eps = "QPROP_EPS", float(env)
        except ValueError as exc:
            raise QpropError(f"QPROP_EPS is not a number: {env!r}") from exc
    try:
        resolve_tol(eps)
    except ValueError as exc:
        raise QpropError(f"{source}: {exc}") from exc
    return eps


def _load(path: str) -> tuple[str, str]:
    """Read a scenario file; returns (name, text)."""
    p = Path(path)
    return p.stem, p.read_text("utf-8")


def _json(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def _rows_json(rows) -> list[dict]:
    return [
        {
            "name": name,
            "value": value.json_value,
            "status": value.value,
            "rendered": value.rendered,
        }
        for name, value in rows
    ]


def _names_by_dim(sc: Scenario) -> dict[int, list[tuple[str, Subspace]]]:
    """The scenario's propositions grouped by dimension, in declaration order."""
    groups: dict[int, list[tuple[str, Subspace]]] = {}
    for name, prop in sc.propositions.items():
        groups.setdefault(prop.subspace.dim, []).append((name, prop.subspace))
    return groups


def _name_of(names, s: Subspace, eps: float) -> str | None:
    """Name of the first proposition equal to s, or None.

    ``names`` comes from :func:`_names_by_dim`; only propositions of the
    dimension of s are compared, all in one :func:`equal_to`.
    """
    group = names.get(s.dim, ())
    hits = np.flatnonzero(equal_to(s, [sub for _, sub in group], eps))
    return group[hits[0]][0] if hits.size else None


def _input(text: str, eps_override: float | None):
    """Parse a scenario and assemble its valuation input: (sc, eps, inp).

    Rejects scenarios without an evaluation block or without contexts.
    """
    sc = parse_scenario(text)
    eps = sc.effective_eps(eps_override)
    return sc, eps, sc.valuation_input(eps)


def _evaluated(text: str, eps_override: float | None):
    """Parse a scenario and value its evaluation block: (sc, eps, inp, rows)."""
    sc, eps, inp = _input(text, eps_override)
    props = [sc.propositions[n] for n in sc.evaluation.propositions]
    return sc, eps, inp, truth_table(inp, props, eps)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def run_eval(name: str, text: str, eps_override: float | None, as_json: bool) -> str:
    sc, eps, _, rows = _evaluated(text, eps_override)
    if as_json:
        return _json({
            "report": "eval",
            "scenario": name,
            "dimension": sc.dimension,
            "eps": eps,
            "state": sc.evaluation.state,
            "rows": _rows_json(rows),
        })
    lines = [
        f"scenario: {name} (dimension {sc.dimension}, eps {eps!r})",
        f"state: {sc.evaluation.state}",
    ]
    lines += [f"{name_}: {value.rendered}" for name_, value in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------


def _demo_intro(name: str, text: str, eps_override: float | None, as_json: bool) -> str:
    sc, eps, inp, rows = _evaluated(text, eps_override)
    disj = evaluate_disjunction_with_negation(inp, sc.propositions["P_x+"], eps)

    pasted = paste_sublattice(inp.collection, eps)
    a = sc.propositions["P_z+"].subspace
    b = sc.propositions["P_x+"].subspace
    c = sc.propositions["P_x-"].subspace
    report = check_distributivity(pasted, a, b, c, eps)
    lhs_true = contains_vector(report.lhs, inp.state, eps)
    rhs_true = contains_vector(report.rhs, inp.state, eps)

    if as_json:
        return _json({
            "report": "demo-intro",
            "scenario": name,
            "rows": _rows_json(rows),
            "disjunction": _rows_json([("P_x+ ∨ ¬P_x+", disj)])[0],
            "distributivity": {
                "lhs_dim": report.lhs.dim,
                "rhs_dim": report.rhs.dim,
                "lhs_true": bool(lhs_true),
                "rhs_true": bool(rhs_true),
                "equal": report.equal,
            },
        })

    lines = [
        "== intro demo: one qubit, incompatible spin propositions ==",
        f"scenario: {name} (dimension {sc.dimension}, eps {eps!r})",
        f"state: {sc.evaluation.state}",
        "truth values:",
    ]
    lines += [f"  {n}: {v.rendered}" for n, v in rows]
    lines.append(f"  P_x+ ∨ ¬P_x+: {disj.rendered}  (true although both disjuncts are gaps)")
    lines += [
        "distributivity of ∧ over ∨ in the pasted sublattice, a=P_z+, b=P_x+, c=P_x-:",
        f"  a ∧ (b ∨ c) has dimension {report.lhs.dim}; contains the state: "
        f"{'yes' if lhs_true else 'no'}",
        f"  (a ∧ b) ∨ (a ∧ c) has dimension {report.rhs.dim}; contains the state: "
        f"{'yes' if rhs_true else 'no'}",
        f"  sides equal: {'yes' if report.equal else 'no -> the distributive law fails'}",
    ]
    return "\n".join(lines) + "\n"


def _demo_environment(
    name: str, text: str, eps_override: float | None, as_json: bool
) -> str:
    sc, eps, _, rows = _evaluated(text, eps_override)
    prop_q = sc.factors["S"].propositions["P_Sx+"]
    env_prop = sc.factors["E1"].propositions["E1z+"]
    report = induced_bivalence(sc, prop_q, env_prop, eps)

    if as_json:
        return _json({
            "report": "demo-environment",
            "scenario": name,
            "rows": _rows_json(rows),
            "bivalence": report.to_json(),
        })

    lines = [
        "== environment demo: qubit plus one environment qubit ==",
        f"scenario: {name} (dimension {sc.dimension}, eps {eps!r})",
        f"composite state: {sc.evaluation.state}",
        "composite truth values:",
    ]
    lines += [f"  {n}: {v.rendered}" for n, v in rows]
    lines += [
        f"bivalence inference for {report.proposition}:",
        f"  isolated-system value: {report.pre_value.rendered}",
        f"  companion environment proposition {report.companion_env_prop}: "
        f"{report.companion_value.rendered}",
        f"  conjunction {report.proposition} ∧ {report.companion_env_prop}: "
        f"{report.conjunction_value.rendered}",
        f"  witness lattice: {report.witness_lattice}",
        f"  post status: {report.post_status}",
    ]
    return "\n".join(lines) + "\n"


def _demo_classical_limit(
    name: str, text: str, eps_override: float | None, as_json: bool
) -> str:
    sc, eps, inp = _input(text, eps_override)
    pasted = paste_sublattice(inp.collection, eps)

    names = _names_by_dim(sc)
    labels = []
    for e in pasted.elements:
        label = _name_of(names, e, eps)
        if label is None:
            label = "{0}" if e.is_zero else ("H" if e.is_full else f"dim-{e.dim}")
        labels.append(label)

    # In the pasted structure every meet exists, so every proposition is
    # decided by plain membership of the state in the meet.
    values = []
    for e, label in zip(pasted.elements, labels):
        m = meet(inp.home, e, eps)
        v = TruthValue.TRUE if contains_vector(m, inp.state, eps) else TruthValue.FALSE
        values.append((label, v))

    elements = pasted.elements
    n = len(elements)
    projectors = [projector_of(e) for e in elements]
    blocks = [set(pasted.blocks_of(i)) for i in range(n)]
    trivial = [e.is_zero or e.is_full for e in elements]
    matrix_rows = []
    agree = 0
    within_block_ok = True
    cross_block_fail = True
    for i in range(n):
        row = ""
        for j in range(n):
            lattice_side = subspaces_commute(elements[i], elements[j], eps)
            comm = commutator(projectors[i], projectors[j])
            operator_side = float(abs(comm).max()) <= eps
            if lattice_side == operator_side:
                agree += 1
            row += "1" if lattice_side else "."
            shared = blocks[i] & blocks[j]
            if shared and not lattice_side:
                within_block_ok = False
            if not shared and not (trivial[i] or trivial[j]) and lattice_side:
                cross_block_fail = False
        matrix_rows.append(row)

    if as_json:
        return _json({
            "report": "demo-classical-limit",
            "scenario": name,
            "elements": labels,
            "rows": _rows_json(values),
            "commute_matrix": matrix_rows,
            "pairs_agreeing_with_commutator": agree,
            "total_pairs": n * n,
            "within_block_all_commute": within_block_ok,
            "cross_block_nontrivial_all_fail": cross_block_fail,
        })

    lines = [
        "== classical-limit demo: pasted sublattice of the z, x, y blocks ==",
        f"scenario: {name} (dimension {sc.dimension}, eps {eps!r})",
        f"pasted sublattice: {n} elements from blocks "
        + ", ".join(sc.contexts.keys()),
        "inside the pasted structure every meet exists; values in the state:",
    ]
    lines += [f"  {label}: {v.rendered}" for label, v in values]
    lines.append("subspace commutativity (rows/cols in element order; 1 = commute):")
    lines += [f"  {labels[i]:>6} {matrix_rows[i]}" for i in range(n)]
    lines += [
        f"lattice condition agrees with the commutator criterion on {agree}/{n * n} pairs",
        f"within each block all pairs commute: {'yes' if within_block_ok else 'no'}",
        "every cross-block nontrivial pair fails the condition: "
        + ("yes" if cross_block_fail else "no"),
    ]
    return "\n".join(lines) + "\n"


_DEMOS = {
    "intro": _demo_intro,
    "environment": _demo_environment,
    "classical-limit": _demo_classical_limit,
}


def run_demo(name: str, eps_override: float | None, as_json: bool) -> str:
    if name not in _DEMOS:
        raise QpropError(f"unknown demo {name!r}")
    filename = DEMO_SCENARIOS[name]
    return _DEMOS[name](
        filename.removesuffix(".json"), _bundled_text(filename), eps_override, as_json
    )


# ---------------------------------------------------------------------------
# diagram
# ---------------------------------------------------------------------------


def _annotated_graph(names, inp, elements, blocks, eps: float,
                     include_trivials: bool):
    """Annotated Hasse graph of lattice elements, each with its block labels."""
    kept = [
        i for i, e in enumerate(elements)
        if include_trivials or not (e.is_zero or e.is_full)
    ]
    elements = [elements[i] for i in kept]
    graph = build_graph(
        elements,
        [_name_of(names, e, eps) for e in elements],
        {k: blocks[i] for k, i in enumerate(kept)},
        tol=eps,
    )
    props = [Proposition(v.label, e) for v, e in zip(graph.vertices, elements)]
    return annotate(graph, truth_table(inp, props, eps))


def run_diagram(
    name: str,
    text: str,
    eps_override: float | None,
    include_trivials: bool,
    cluster_blocks: bool,
) -> str:
    sc, eps, inp = _input(text, eps_override)
    selected = inp.collection.lattices
    if sc.evaluation.context is not None:
        selected = (inp.collection.by_label(sc.evaluation.context),)

    if cluster_blocks:
        pasted = paste_sublattice(LatticeCollection(selected), eps)
        parts = [(
            pasted.elements,
            [tuple(sorted(pasted.blocks_of(i))) for i in range(len(pasted))],
        )]
    else:
        parts = [(lat.elements, [(lat.context_label,)] * len(lat)) for lat in selected]
    names = _names_by_dim(sc)
    graph = merge_graphs([
        _annotated_graph(names, inp, elements, blocks, eps, include_trivials)
        for elements, blocks in parts
    ])
    return emit_dot(
        graph,
        DiagramOptions(cluster_blocks=cluster_blocks, graph_name=name.replace("-", "_")),
    )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def run_check(name: str, text: str, as_json: bool) -> tuple[int, str]:
    rows = check_scenario(text)
    ok = all(r[1] for r in rows)
    if as_json:
        out = {
            "report": "check",
            "scenario": name,
            "ok": ok,
            "objects": [
                {"path": path, "ok": good, "reason": reason}
                for path, good, reason in rows
            ],
        }
        return (0 if ok else 1), _json(out)
    lines = [f"scenario: {name}"]
    for path, good, reason in rows:
        lines.append(f"{path}: {'ok' if good else 'FAIL ' + reason}")
    lines.append("result: " + ("all checks passed" if ok else "checks FAILED"))
    return (0 if ok else 1), "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing / dispatch
# ---------------------------------------------------------------------------


def _str2bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprop",
        description="Supervaluational truth values for quantum propositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a scenario's propositions")
    p_eval.add_argument("scenario", help="path to a scenario JSON file")
    p_eval.add_argument("--json", action="store_true", help="machine-readable output")
    p_eval.add_argument("--eps", type=float, default=None, help="tolerance override")

    p_demo = sub.add_parser("demo", help="run a bundled demonstration")
    p_demo.add_argument("name", choices=sorted(DEMO_SCENARIOS))
    p_demo.add_argument("--json", action="store_true")
    p_demo.add_argument("--eps", type=float, default=None)

    p_diag = sub.add_parser("diagram", help="emit an annotated Hasse diagram (DOT)")
    p_diag.add_argument("scenario")
    p_diag.add_argument("--out", default=None, help="output path (default stdout)")
    p_diag.add_argument("--eps", type=float, default=None)
    p_diag.add_argument("--include-trivials", type=_str2bool, default=True,
                        metavar="BOOL")
    p_diag.add_argument("--cluster-blocks", action="store_true")

    p_check = sub.add_parser("check", help="validate a scenario without evaluating")
    p_check.add_argument("scenario")
    p_check.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            name, text = _load(args.scenario)
            sys.stdout.write(run_eval(name, text, _cli_eps(args), args.json))
            return 0
        if args.command == "demo":
            sys.stdout.write(run_demo(args.name, _cli_eps(args), args.json))
            return 0
        if args.command == "diagram":
            name, text = _load(args.scenario)
            dot = run_diagram(
                name, text, _cli_eps(args), args.include_trivials, args.cluster_blocks
            )
            if args.out:
                Path(args.out).write_text(dot, "utf-8")
            else:
                sys.stdout.write(dot)
            return 0
        if args.command == "check":
            name, text = _load(args.scenario)
            code, out = run_check(name, text, args.json)
            sys.stdout.write(out)
            return code
        raise QpropError(f"unknown command {args.command!r}")
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2
    except (QpropError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
