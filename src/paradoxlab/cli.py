"""Command-line front end.

Subcommands: ``gen`` writes graph files, ``centrality`` node tables,
``paradox`` mean comparisons, ``compare`` the neighbour-vs-edge-sampled
decomposition, ``bias`` pooled ensemble bias distributions, ``identities``
the identity/inequality bundle.  Data goes to stdout or ``--output``;
diagnostics go to stderr.  Identical invocations produce identical bytes.

Exit codes: 0 success, 1 usage or parameter problems, 2 inadmissible input,
3 failed convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .centrality import (DEFAULT_MAX_ITERS, DEFAULT_TOL, VALID_KINDS,
                         CentralityParams, CentralityVector, compute,
                         pagerank_centrality, solve_lambda1)
from .errors import (ConvergenceError, GenerationError, InputError,
                     NumericalError, ParameterError, PreconditionError,
                     RangeError, UsageError)
from .formats import (ReportDocument, emit_edge_list, emit_json,
                      emit_matrix_market, emit_report, parse_edge_list,
                      parse_matrix_market)
from .generators import (MODELS, RandomGraphSpec, effective_lcc_extract,
                         generate)
from .graph import Graph
from .paradox import (BILINEAR_TOL, MAX_EAVES_NODES, MAX_FIEDLER_NODES,
                      bias_distribution, compare_averages, eaves_check,
                      fiedler_check, harmonic_mean_check, neighbor_average,
                      pagerank_paradox_check, paradox_report,
                      symmetrization_identity)


def _add_model_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=MODELS,
                        help="generate the input graph from this model")
    parser.add_argument("--n", type=int, help="number of nodes")
    parser.add_argument("--p", type=float, help="edge probability "
                        "(erdos_renyi)")
    parser.add_argument("--k", type=int, help="degree (k_regular)")
    parser.add_argument("--m-attach", type=int,
                        help="edges per new node (preferential_attachment)")
    parser.add_argument("--degree-sequence",
                        help="comma-separated degrees (configuration)")
    parser.add_argument("--lcc", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="keep only the largest connected component")


def _add_measure_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure", choices=VALID_KINDS, required=True)
    parser.add_argument("--ell", type=int, default=2,
                        help="walk length for walk_count (default 2)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="katz decay (default 0.85 / lambda1)")
    parser.add_argument("--beta", type=float, default=0.85,
                        help="pagerank teleport weight (default 0.85)")
    _add_solver_options(parser)


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write to this file instead of "
                        "stdout")


def _spec_from_args(args: argparse.Namespace) -> RandomGraphSpec:
    sequence = None
    if args.degree_sequence is not None:
        try:
            sequence = tuple(int(tok) for tok in
                             args.degree_sequence.split(",") if tok.strip())
        except ValueError:
            raise UsageError(
                f"--degree-sequence must be comma-separated integers, "
                f"got {args.degree_sequence!r}") from None
    n = args.n
    if n is None:
        if sequence is not None:
            n = len(sequence)
        else:
            raise UsageError("--n is required when generating a graph")
    return RandomGraphSpec(model=args.model, n=n, p=args.p, k=args.k,
                           degree_sequence=sequence, m_attach=args.m_attach,
                           seed=args.seed, lcc_extract=args.lcc)


def _load_graph(args: argparse.Namespace) -> tuple[Graph, dict, int | None]:
    """Graph from a file path or an inline model spec, with its metadata."""
    if (args.graph is None) == (args.model is None):
        raise UsageError("provide exactly one input: a graph file or "
                         "--model")
    seed = None
    if args.model is not None:
        spec = _spec_from_args(args)
        graph = generate(spec)
        seed = spec.seed
    else:
        path = Path(args.graph)
        try:
            text = path.read_text()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        if text.lstrip().lower().startswith("%%matrixmarket"):
            graph = parse_matrix_market(text)
        else:
            graph = parse_edge_list(text, directed=args.directed)
    meta = {"n": graph.node_count, "m": graph.edge_count,
            "directed": graph.directed,
            "regular": bool((graph.degree_seq == graph.degree_seq[0]).all())}
    return graph, meta, seed


def _measure_params(args: argparse.Namespace,
                    graph: Graph | None) -> CentralityParams:
    kind = args.measure
    kwargs: dict = {"tol": args.tol, "max_iters": args.max_iters}
    if kind == "walk_count":
        kwargs["ell"] = args.ell
    elif kind == "katz":
        alpha = args.alpha
        if alpha is None:
            if graph is None:
                raise UsageError("--alpha is required for katz over an "
                                 "ensemble; the default 0.85/lambda1 only "
                                 "applies to a single graph")
            lambda1 = solve_lambda1(graph, tol=args.tol,
                                    max_iters=args.max_iters).lambda1
            if lambda1 == 0:
                raise PreconditionError(
                    "the default katz alpha 0.85/lambda1 is undefined on a "
                    "graph without edges (lambda1 = 0); pass --alpha")
            alpha = 0.85 / lambda1
        kwargs["alpha"] = alpha
    elif kind == "pagerank":
        kwargs["beta"] = args.beta
    return CentralityParams(kind=kind, **kwargs)


def _note_promotion(graph: Graph, kind: str) -> None:
    if kind == "pagerank" and not graph.directed:
        print("note: treating the undirected graph as bidirected for "
              "pagerank", file=sys.stderr)


def _node_table(graph: Graph, vector: CentralityVector) -> list[dict]:
    averages = neighbor_average(graph, vector.values)
    return [{"id": i,
             "degree": int(graph.degree_seq[i]),
             "r": float(vector.values[i]),
             "neighbor_avg": float(averages[i]),
             "delta": float(averages[i] - vector.values[i])}
            for i in range(graph.node_count)]


def _cmd_gen(args: argparse.Namespace) -> str:
    if args.model is None:
        raise UsageError("gen requires --model")
    spec = _spec_from_args(args)
    graph = generate(spec)
    if args.file_format == "matrix_market":
        return emit_matrix_market(graph)
    return emit_edge_list(graph)


def _measured(args: argparse.Namespace,
              ) -> tuple[Graph, CentralityVector, dict]:
    """Load the input graph and compute the requested measure on it.

    Returns the graph, the vector and the report fields that the
    single-graph measure commands share.
    """
    graph, meta, seed = _load_graph(args)
    params = _measure_params(args, graph)
    _note_promotion(graph, params.kind)
    vector = compute(graph, params)
    return graph, vector, {"graph_meta": meta, "measure": params,
                           "tool_version": __version__, "seed": seed}


def _cmd_centrality(args: argparse.Namespace) -> str:
    graph, vector, fields = _measured(args)
    doc = ReportDocument(node_table=_node_table(graph, vector), **fields)
    return emit_report(doc, args.format)


def _cmd_paradox(args: argparse.Namespace) -> str:
    graph, vector, fields = _measured(args)
    report = paradox_report(graph, vector)
    stats = {"mu": report.mu, "mu_bar": report.mu_bar,
             "mu_tilde": report.mu_tilde, "slack": report.slack,
             "paradox_holds": report.paradox_holds,
             "is_regular": report.is_regular}
    doc = ReportDocument(stats=stats, node_table=_node_table(graph, vector),
                         **fields)
    return emit_report(doc, args.format)


def _cmd_compare(args: argparse.Namespace) -> str:
    graph, vector, fields = _measured(args)
    deco = compare_averages(graph, vector)
    doc = ReportDocument(
        decomposition={"a": [float(x) for x in deco.a],
                       "b": [float(x) for x in deco.b],
                       "lhs": deco.lhs, "rhs": deco.rhs},
        **fields)
    return emit_report(doc, args.format)


def _cmd_bias(args: argparse.Namespace) -> str:
    if args.model is None:
        raise UsageError("bias requires --model (an ensemble recipe)")
    spec = _spec_from_args(args)
    params = _measure_params(args, None)
    dist = bias_distribution(spec, params, args.graphs, args.seed)
    ensemble = {"model": spec.model, "n": spec.n}
    for key in ("p", "k", "degree_sequence", "m_attach"):
        value = getattr(spec, key)
        if value is not None:
            ensemble[key] = list(value) if isinstance(value, tuple) else value
    ensemble["lcc_extract"] = effective_lcc_extract(spec)
    summary = {"n_graphs": dist.n_graphs,
               "total_samples": int(len(dist.samples)),
               "mean": dist.mean, "stddev": dist.stddev,
               "min": dist.min, "max": dist.max,
               "quantiles": {repr(level): value
                             for level, value in dist.quantiles.items()},
               "fraction_negative": dist.fraction_negative,
               "histogram": [[lo, hi, count]
                             for lo, hi, count in dist.histogram]}
    doc = ReportDocument(graph_meta=ensemble, measure=params,
                         bias_summary=summary, tool_version=__version__,
                         seed=args.seed)
    return emit_report(doc, args.format)


def _cmd_identities(args: argparse.Namespace) -> str:
    graph, meta, _ = _load_graph(args)
    payload: dict = {"graph_meta": meta}
    if not graph.directed:
        lhs, rhs = symmetrization_identity(graph)
        payload["symmetrization"] = {"lhs": lhs, "rhs": rhs}
        spectral = solve_lambda1(graph, tol=args.tol,
                                 max_iters=args.max_iters)
        h_lhs, h_rhs = harmonic_mean_check(graph, spectral)
        payload["harmonic_mean"] = {"lambda1": spectral.lambda1,
                                    "lhs": h_lhs, "rhs": h_rhs}
        if graph.node_count <= MAX_EAVES_NODES:
            e_lhs, e_rhs = eaves_check(graph, args.ell)
            payload["eaves"] = {"ell": args.ell, "lhs": e_lhs, "rhs": e_rhs}
        else:
            print(f"note: skipping the walk-matrix check; the graph has "
                  f"more than {MAX_EAVES_NODES} nodes", file=sys.stderr)
    else:
        print("note: skipping the undirected-only identities on a "
              "directed graph", file=sys.stderr)
    _note_promotion(graph, "pagerank")
    vector = pagerank_centrality(graph, args.beta, tol=args.tol,
                                 max_iters=args.max_iters)
    p_lhs, p_rhs = pagerank_paradox_check(graph, vector)
    payload["pagerank_check"] = {"beta": args.beta, "lhs": p_lhs,
                                 "rhs": p_rhs}
    if graph.node_count <= MAX_FIEDLER_NODES:
        transition = graph.adjacency.toarray() / graph.degree_seq[:, None]
        instances = fiedler_check(transition, args.trials, args.seed)
        margins = [inst.bilinear - inst.lam for inst in instances]
        payload["fiedler"] = {
            "trials": args.trials,
            "lam": instances[0].lam,
            "min_margin": min(margins),
            "violations": sum(1 for m in margins if m < -BILINEAR_TOL)}
    else:
        print(f"note: skipping the bilinear bound; the graph has more "
              f"than {MAX_FIEDLER_NODES} nodes", file=sys.stderr)
    payload["tool_version"] = __version__
    return emit_json(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradox-lab",
        description="Centrality measures and friendship-paradox checks "
                    "on sparse graphs")
    parser.add_argument("--version", action="version",
                        version=f"paradox-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph file")
    _add_model_options(gen)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--file-format",
                     choices=("edge_list", "matrix_market"),
                     default="edge_list")
    gen.add_argument("--output")
    gen.set_defaults(handler=_cmd_gen)

    for name, handler in (("centrality", _cmd_centrality),
                          ("paradox", _cmd_paradox),
                          ("compare", _cmd_compare)):
        cmd = sub.add_parser(name)
        cmd.add_argument("graph", nargs="?",
                         help="edge list or Matrix Market file")
        cmd.add_argument("--directed", action="store_true",
                         help="read a headerless edge list as directed")
        _add_model_options(cmd)
        cmd.add_argument("--seed", type=int, default=0)
        _add_measure_options(cmd)
        _add_output_options(cmd)
        cmd.set_defaults(handler=handler)

    bias = sub.add_parser("bias", help="pooled bias over an ensemble")
    _add_model_options(bias)
    bias.add_argument("--graphs", type=int, default=100,
                      help="ensemble size (default 100)")
    bias.add_argument("--seed", type=int, default=0)
    _add_measure_options(bias)
    _add_output_options(bias)
    bias.set_defaults(handler=_cmd_bias)

    idents = sub.add_parser("identities",
                            help="identity and inequality bundle")
    idents.add_argument("graph", nargs="?")
    idents.add_argument("--directed", action="store_true")
    _add_model_options(idents)
    idents.add_argument("--seed", type=int, default=0)
    idents.add_argument("--ell", type=int, default=2)
    idents.add_argument("--beta", type=float, default=0.85)
    idents.add_argument("--trials", type=int, default=20)
    _add_solver_options(idents)
    idents.add_argument("--output")
    idents.set_defaults(handler=_cmd_identities)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.handler(args)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InputError, PreconditionError, RangeError, GenerationError,
            NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        detail = ""
        if exc.residual is not None:
            detail = (f" (residual {exc.residual:.3e} after "
                      f"{exc.iterations} iterations)")
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 3
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
