"""The three benchmark workloads: seeded inputs, job lists and checks.

Every input is built here from the workload seed with numpy's generator;
``paradoxlab`` only receives the finished inputs.  A job is one public
call (or the CLI's fixed sequence of calls, such as ``solve_lambda1``
before Katz) wrapped in a span named after its layer.  Jobs run in the
order the CLI makes them, at the CLI defaults ``tol=1e-12``,
``max_iters=100000`` and ``beta=0.85``.

Workloads and why they were chosen:

``ensemble``
    ``bias_distribution`` over ER(100, 0.05) with eigenvector and degree,
    and over 2-regular rings with PageRank.  The ``bias`` path: scalar
    PRNG draws, per-member graph building and small solves dominate; the
    rings resample for connectivity several times per member and are
    the equality case.
``large_graph``
    One heavy-tailed (power-law weights, exponent 2.5) edge list of about
    50k nodes and 200k edges, not connected, run through parse, LCC,
    Matrix Market round trip, five measures, paradox reports, identities,
    exact degree statistics and a JSON node-table report.  The
    single-file path: formats and graph work at scale, solvers take few
    iterations of large matvecs.
``iteration_bound``
    Eigenvector and Katz on the path P_300, eigenvector on P_1000 (which
    exhausts its iteration budget today) and closeness/harmonic on a
    ~500-node heavy-tailed LCC.  Many tiny Python-level steps: solver
    choice and per-iteration overhead decide the time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

import paradoxlab
import paradoxlab.generators
from paradoxlab import (CentralityParams, ConvergenceError, RandomGraphSpec,
                        ReportDocument, bias_distribution, build_undirected,
                        compare_averages, compute, derive_seed,
                        eigenvector_centrality, emit_matrix_market,
                        emit_report, exact_degree_stats, extract_lcc,
                        generate, harmonic_mean_check, is_connected,
                        neighbor_average, pagerank_paradox_check,
                        paradox_report, parse_edge_list, parse_matrix_market,
                        solve_lambda1, symmetrization_identity)
from paradoxlab.generators import effective_lcc_extract

import checks
from reference import Reference, scaled

TOL = 1e-12
MAX_ITERS = 100_000
BETA = 0.85
# The CLI's default Katz decay is KATZ_SHARE / lambda1.
KATZ_SHARE = 0.85
WALK_LENGTH = 3
POWER_LAW_EXPONENT = 2.5

SOLVED = "solved"
UNSOLVED = "unsolved"

SIZES = ("full", "smoke")


class Run:
    """Outputs, counts and timings of one pass over a job list."""

    def __init__(self, tracer):
        self.tr = tracer
        self.out: dict[str, object] = {}
        self.status: dict[str, str] = {}
        # Per job: raw wall time, and wall time at the reference speed.
        self.wall_s: dict[str, float] = {}
        self.job_s: dict[str, float] = {}
        self.counts: Counter = Counter()

    def solve(self, layer: str, fn, *args, **kwargs):
        """Call a solver in a span named ``layer``; count the iterations
        it reports, also when it gives up."""
        try:
            with self.tr.span(layer):
                result = fn(*args, **kwargs)
        except ConvergenceError as exc:
            self.counts[f"{layer}_iters"] += exc.iterations
            raise
        vector = result[1] if isinstance(result, tuple) else result
        self.counts[f"{layer}_iters"] += vector.iterations
        return result


@dataclasses.dataclass
class Job:
    name: str
    run: Callable[[Run], object]
    # (the warm-up Run, tracer, counts) -> problems found in its output
    check: Callable[[Run, object, Counter], list[str]]


class Workload:
    """A named job list over fixed inputs."""

    name = ""

    def __init__(self):
        self.jobs: list[Job] = []
        self.sizes: dict[str, int] = {}
        # Centrality computations per pass, the numerator of graphs_per_s.
        self.computations = 0

    def run_jobs(self, tracer, ref: Reference) -> Run:
        """One pass over the job list, each job timed between two runs of
        the reference loop."""
        run = Run(tracer)
        before = ref.seconds()
        for job in self.jobs:
            t0 = time.perf_counter()
            try:
                with tracer.span(f"job.{job.name}"):
                    run.out[job.name] = job.run(run)
                run.status[job.name] = SOLVED
            except ConvergenceError as exc:
                run.out[job.name] = exc
                run.status[job.name] = UNSOLVED
            except Exception as exc:  # a broken job must not stop the list
                run.out[job.name] = None
                run.status[job.name] = f"{type(exc).__name__}: {exc}"
            run.wall_s[job.name] = time.perf_counter() - t0
            after = ref.seconds()
            run.job_s[job.name] = scaled(run.wall_s[job.name], before, after)
            before = after
        return run

    def check(self, run: Run, tracer, counts: Counter) -> dict[str, list[str]]:
        """Problems per job: a solved job must pass its check, an unsolved
        one must report its convergence failure honestly."""
        problems = {}
        for job in self.jobs:
            status = run.status[job.name]
            if status == SOLVED:
                try:
                    problems[job.name] = job.check(run, tracer, counts)
                except Exception as exc:  # a crashing check is a failure
                    problems[job.name] = [f"check raised {exc!r}"]
            elif status == UNSOLVED:
                problems[job.name] = checks.unsolved(run.out[job.name], TOL,
                                                     MAX_ITERS)
            else:
                problems[job.name] = [status]
        return problems


def eigenvector(run: Run, graph):
    return run.solve("centrality.eigenvector", eigenvector_centrality, graph,
                     tol=TOL, max_iters=MAX_ITERS)


def katz_default_alpha(run: Run, graph):
    """Katz as the CLI runs it without ``--alpha``: ``solve_lambda1``
    first, then ``alpha = 0.85 / lambda1``."""
    spectral = run.solve("centrality.solve_lambda1", solve_lambda1, graph,
                         tol=TOL, max_iters=MAX_ITERS)
    params = CentralityParams(kind="katz", alpha=KATZ_SHARE / spectral.lambda1,
                              tol=TOL, max_iters=MAX_ITERS)
    return spectral, run.solve("centrality.katz", compute, graph, params)


# --- inputs -----------------------------------------------------------------

def heavy_tailed_edges(n: int, m: int, rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``m`` distinct undirected pairs on ``n`` nodes, endpoints drawn in
    proportion to fixed power-law weights ``w_i = (i+1)^(-1/(gamma-1))``.

    The weights do not depend on the seed, so the hub sizes, and with them
    lambda1 and the solver iteration counts, move little between seeds.
    """
    weights = (np.arange(n) + 1.0) ** (-1.0 / (POWER_LAW_EXPONENT - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        need = m - len(keys)
        u = np.searchsorted(cdf, rng.random(need), side="right")
        v = np.searchsorted(cdf, rng.random(need), side="right")
        fresh = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
        keys = np.union1d(keys, fresh)
    keys = rng.permutation(keys)[:m]
    return keys // n, keys % n


def largest_component_graph(n: int, u: np.ndarray, v: np.ndarray):
    """The LCC of the pairs, relabelled 0..k-1 and built as a Graph."""
    mat = sparse.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    _, labels = csgraph.connected_components(mat, directed=False)
    keep = labels == np.argmax(np.bincount(labels))
    new_id = np.cumsum(keep) - 1
    inside = keep[u] & keep[v]
    return build_undirected(int(keep.sum()),
                            np.column_stack([new_id[u[inside]],
                                             new_id[v[inside]]]))


def permuted_path(n: int, rng: np.random.Generator):
    order = rng.permutation(n)
    return build_undirected(n, np.column_stack([order[:-1], order[1:]]))


# --- ensemble ---------------------------------------------------------------

# splitmix64 advances its state by GAMMA per word, so the words a stream
# drew are its state advance times the inverse of GAMMA mod 2^64.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_INV = pow(_GAMMA, -1, 1 << 64)
# bias_distribution resamples each member at most this many times.
MAX_CONNECTED_ATTEMPTS = 100


@contextmanager
def watched_streams():
    """Record every SplitMix64 the generators create, to count the words
    drawn without adding work per word."""
    base = paradoxlab.generators.SplitMix64
    streams = []

    class Watched(base):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append((self, seed & _MASK64))

    paradoxlab.generators.SplitMix64 = Watched
    try:
        yield streams
    finally:
        paradoxlab.generators.SplitMix64 = base


def words_drawn(streams) -> int:
    return sum(((stream._state - seed) * _GAMMA_INV) & _MASK64
               for stream, seed in streams)


def replay_members(spec, params, n_graphs, seed, tracer, counts):
    """Yield ``(graph, vector, delta)`` per ensemble member through the
    public calls ``bias_distribution`` makes, in its order."""
    with watched_streams() as streams:
        for index in range(n_graphs):
            with tracer.span("rng.derive_seed"):
                base = derive_seed(seed, index)
            counts["rng.words"] += 1
            for attempt in range(MAX_CONNECTED_ATTEMPTS):
                with tracer.span("rng.derive_seed"):
                    candidate = dataclasses.replace(
                        spec, seed=derive_seed(base, attempt))
                counts["rng.words"] += 1
                with tracer.span("generators.generate"):
                    graph = generate(candidate)
                counts["generators.attempts"] += 1
                if effective_lcc_extract(candidate):
                    break
                with tracer.span("graph.is_connected"):
                    connected = is_connected(graph)
                if connected:
                    break
            else:
                raise RuntimeError(f"member {index}: no connected sample")
            counts["generators.members"] += 1
            with tracer.span(f"centrality.{params.kind}"):
                vector = compute(graph, params)
            if params.kind in ("eigenvector", "katz", "pagerank"):
                counts[f"centrality.{params.kind}_iters"] += vector.iterations
            with tracer.span("paradox.neighbor_average"):
                averages = neighbor_average(graph, vector.values)
            yield graph, vector, averages - vector.values
        counts["rng.words"] += words_drawn(streams)


def member_problems(graph, vector, delta, params) -> list[str]:
    r = np.asarray(vector.values)
    if params.kind == "eigenvector":
        a = checks.adjacency(graph)
        lam = float(r @ (a @ r) / (r @ r))
        problems = (checks.eigen_certificate(graph, lam, r, TOL)
                    + checks.eigenvalue_is(graph, lam, r,
                                           checks.top_eigenvalue(graph),
                                           "eigenvector"))
    elif params.kind == "pagerank":
        problems = checks.pagerank_certificate(graph, params.beta, r, TOL)
    else:
        own = np.asarray(checks.adjacency(graph).sum(axis=1)).ravel()
        problems = ([] if np.array_equal(r, own)
                    else ["degree differs from adjacency row sums"])
    gap = checks.neighbour_average(graph, r).mean() - r.mean()
    problems += checks.at_least(gap, 0.0, TOL, "mu_bar - mu")
    problems += checks.sides_agree(
        float(np.mean(delta)), gap, np.abs(r).max(), len(r), "bias mean")
    return problems


class Ensemble(Workload):
    name = "ensemble"

    def __init__(self, seed: int, size: str):
        super().__init__()
        members = 150 if size == "full" else 4
        rng = np.random.default_rng(seed)
        er_seed, ring_seed = (int(x) for x in rng.integers(0, 2 ** 62, 2))
        er = (RandomGraphSpec(model="erdos_renyi", n=100, p=0.05)
              if size == "full" else
              RandomGraphSpec(model="erdos_renyi", n=30, p=0.15))
        ring = RandomGraphSpec(model="k_regular",
                               n=80 if size == "full" else 12, k=2)
        plan = [("er_eigenvector", er, CentralityParams(
                     kind="eigenvector", tol=TOL, max_iters=MAX_ITERS),
                 er_seed),
                ("er_degree", er, CentralityParams(kind="degree"), er_seed),
                ("ring_pagerank", ring, CentralityParams(
                    kind="pagerank", beta=BETA, tol=TOL, max_iters=MAX_ITERS),
                 ring_seed)]
        for name, spec, params, master in plan:
            self.jobs.append(Job(name, self._bias(spec, params, members,
                                                  master),
                                 self._replay(name, spec, params, members,
                                              master)))
        self.computations = members * len(plan)
        self.sizes = {"members": members, "er_n": er.n, "ring_n": ring.n,
                      "er_seed": er_seed, "ring_seed": ring_seed}

    @staticmethod
    def _bias(spec, params, members, master):
        def job(run):
            with run.tr.span("paradox.bias_distribution"):
                return bias_distribution(spec, params, members, master)
        return job

    @staticmethod
    def _replay(name, spec, params, members, master):
        def check(run, tracer, counts):
            dist = run.out[name]
            problems = []
            deltas = []
            for index, (graph, vector, delta) in enumerate(replay_members(
                    spec, params, members, master, tracer, counts)):
                problems += [f"member {index}: {p}" for p in
                             member_problems(graph, vector, delta, params)]
                if spec.model == "k_regular" and np.abs(delta).max() > TOL:
                    problems.append(f"member {index}: regular graph has "
                                    f"bias {np.abs(delta).max():.3e}")
                deltas.append(delta)
            replayed = np.concatenate(deltas)
            counts[f"{name}.samples"] += len(replayed)
            if replayed.shape != dist.samples.shape:
                problems.append("replay and bias_distribution differ in "
                                "sample count")
            elif np.abs(replayed - dist.samples).max() > TOL:
                problems.append("replay differs from bias_distribution")
            return problems
        return check


# --- large graph ------------------------------------------------------------

MEASURES = ("degree", "walk_count", "eigenvector", "katz", "pagerank")


def _vector(output):
    """The CentralityVector in a measure job's output."""
    return output[1] if isinstance(output, tuple) else output


class LargeGraph(Workload):
    name = "large_graph"

    def __init__(self, seed: int, size: str):
        super().__init__()
        core_n, core_m, pieces = ((48_000, 200_000, 500) if size == "full"
                                  else (1_500, 5_000, 20))
        rng = np.random.default_rng(seed)
        u, v = heavy_tailed_edges(core_n, core_m, rng)
        # Small path components of 2..6 nodes keep the graph disconnected.
        us, vs = [u], [v]
        next_id = core_n
        for length in rng.integers(2, 7, pieces):
            ids = np.arange(next_id, next_id + length)
            us.append(ids[:-1])
            vs.append(ids[1:])
            next_id += length
        u, v = np.concatenate(us), np.concatenate(vs)
        # Sparse, shuffled labels exercise the parser's id compaction.
        labels = rng.choice(4 * next_id, next_id, replace=False)
        flip = rng.random(len(u)) < 0.5
        lu = labels[np.where(flip, v, u)]
        lv = labels[np.where(flip, u, v)]
        self.text = "".join(f"{a} {b}\n" for a, b in zip(lu.tolist(),
                                                          lv.tolist()))
        ids = np.unique(np.concatenate([lu, lv]))
        self.expected = (len(ids), np.searchsorted(ids, lu),
                         np.searchsorted(ids, lv))
        lcc = largest_component_graph(*self.expected)
        self.computations = len(MEASURES)
        self.sizes = {"n": len(ids), "m": len(lu), "lcc_n": lcc.node_count,
                      "lcc_m": lcc.edge_count,
                      "edge_list_bytes": len(self.text)}
        self.jobs = [
            Job("parse_edge_list", self._parse, self._check_parse),
            Job("extract_lcc", self._lcc, self._check_lcc),
            Job("emit_matrix_market", self._emit_mm, self._check_emit_mm),
            Job("parse_matrix_market", self._parse_mm, self._check_parse_mm),
            Job("degree", self._measure(CentralityParams(kind="degree")),
                self._check_degree),
            Job("walk_count", self._measure(CentralityParams(
                kind="walk_count", ell=WALK_LENGTH)), self._check_walks),
            Job("eigenvector", self._eigenvector, self._check_eigenvector),
            Job("katz", self._katz, self._check_katz),
            Job("pagerank", self._measure(CentralityParams(
                kind="pagerank", beta=BETA, tol=TOL, max_iters=MAX_ITERS)),
                self._check_pagerank),
            Job("paradox_report", self._reports, self._check_reports),
            Job("compare_averages", self._compares, self._check_compares),
            Job("identities", self._identities, self._check_identities),
            Job("exact_degree_stats", self._exact, self._check_exact),
            Job("emit_report", self._emit_report, self._check_emit_report),
        ]

    # The graph every measure runs on is the one read back from Matrix
    # Market, as when the CLI is handed the converted file.
    @staticmethod
    def _graph(run):
        return run.out["parse_matrix_market"]

    def _parse(self, run):
        with run.tr.span("formats.parse_edge_list"):
            graph = parse_edge_list(self.text)
        run.counts["formats.bytes"] += len(self.text)
        return graph

    def _check_parse(self, run, tracer, counts):
        return checks.graph_matches(run.out["parse_edge_list"], *self.expected)

    @staticmethod
    def _lcc(run):
        with run.tr.span("graph.extract_lcc"):
            return extract_lcc(run.out["parse_edge_list"])

    @staticmethod
    def _check_lcc(run, tracer, counts):
        lcc, keep = run.out["extract_lcc"]
        return checks.lcc_matches(run.out["parse_edge_list"], lcc, keep)

    @staticmethod
    def _emit_mm(run):
        with run.tr.span("formats.emit_matrix_market"):
            text = emit_matrix_market(run.out["extract_lcc"][0])
        run.counts["formats.bytes"] += len(text)
        return text

    @staticmethod
    def _check_emit_mm(run, tracer, counts):
        lcc = run.out["extract_lcc"][0]
        lines = run.out["emit_matrix_market"].splitlines()
        expected = [
            "%%MatrixMarket matrix coordinate pattern symmetric",
            f"{lcc.node_count} {lcc.node_count} {lcc.edge_count}"]
        if lines[:2] != expected or len(lines) != 2 + lcc.edge_count:
            return ["Matrix Market header or entry count is wrong"]
        return []

    @staticmethod
    def _parse_mm(run):
        text = run.out["emit_matrix_market"]
        with run.tr.span("formats.parse_matrix_market"):
            graph = parse_matrix_market(text)
        run.counts["formats.bytes"] += len(text)
        return graph

    @staticmethod
    def _check_parse_mm(run, tracer, counts):
        return checks.same_graph(run.out["parse_matrix_market"],
                                 run.out["extract_lcc"][0])

    def _measure(self, params):
        def job(run):
            return run.solve(f"centrality.{params.kind}", compute,
                             self._graph(run), params)
        return job

    def _check_degree(self, run, tracer, counts):
        graph = self._graph(run)
        own = np.asarray(checks.adjacency(graph).sum(axis=1)).ravel()
        if not np.array_equal(run.out["degree"].values, own):
            return ["degree differs from adjacency row sums"]
        return []

    def _check_walks(self, run, tracer, counts):
        a = checks.adjacency(self._graph(run))
        own = np.ones(a.shape[0])
        for _ in range(WALK_LENGTH):
            own = a @ own
        if not np.array_equal(run.out["walk_count"].values, own):
            return ["walk counts differ from A^3 1"]
        return []

    def _eigenvector(self, run):
        return eigenvector(run, self._graph(run))

    def _check_eigenvector(self, run, tracer, counts):
        graph = self._graph(run)
        spectral, vector = run.out["eigenvector"]
        return (checks.eigen_certificate(graph, spectral.lambda1,
                                         vector.values, TOL)
                + checks.eigenvalue_is(graph, spectral.lambda1, vector.values,
                                       checks.top_eigenvalue(graph),
                                       "eigenvector"))

    def _katz(self, run):
        return katz_default_alpha(run, self._graph(run))

    def _check_katz(self, run, tracer, counts):
        graph = self._graph(run)
        spectral, vector = run.out["katz"]
        alpha = vector.params.alpha
        problems = checks.eigen_certificate(graph, spectral.lambda1,
                                            spectral.vector, TOL)
        if alpha != KATZ_SHARE / spectral.lambda1:
            problems.append("Katz alpha is not 0.85 / lambda1")
        return problems + checks.katz_certificate(graph, alpha, vector.values,
                                                  TOL)

    def _check_pagerank(self, run, tracer, counts):
        return checks.pagerank_certificate(
            self._graph(run), BETA, run.out["pagerank"].values, TOL)

    def _reports(self, run):
        graph = self._graph(run)
        out = {}
        for kind in MEASURES:
            vector = _vector(run.out[kind])
            with run.tr.span("paradox.report"):
                out[kind] = paradox_report(graph, vector)
        return out

    def _check_reports(self, run, tracer, counts):
        graph = self._graph(run)
        return [f"{kind}: {p}" for kind, report in
                run.out["paradox_report"].items()
                for p in checks.paradox_means(
                    graph, _vector(run.out[kind]).values, report, TOL)]

    def _compares(self, run):
        graph = self._graph(run)
        out = {}
        for kind in MEASURES:
            with run.tr.span("paradox.compare"):
                out[kind] = compare_averages(graph, _vector(run.out[kind]))
        return out

    def _check_compares(self, run, tracer, counts):
        graph = self._graph(run)
        return [f"{kind}: {p}" for kind, deco in
                run.out["compare_averages"].items()
                for p in checks.comparison_sides(
                    graph, _vector(run.out[kind]).values, deco)]

    def _identities(self, run):
        graph = self._graph(run)
        spectral = run.out["katz"][0]
        with run.tr.span("paradox.identities"):
            symmetrization = symmetrization_identity(graph)
        with run.tr.span("paradox.identities"):
            harmonic = harmonic_mean_check(graph, spectral)
        with run.tr.span("paradox.identities"):
            pagerank = pagerank_paradox_check(graph, run.out["pagerank"])
        return {"symmetrization": symmetrization, "harmonic_mean": harmonic,
                "pagerank_check": pagerank}

    def _check_identities(self, run, tracer, counts):
        graph = self._graph(run)
        out = run.out["identities"]
        spectral = run.out["katz"][0]
        h_lhs, h_rhs = out["harmonic_mean"]
        problems = checks.symmetrization_sides(graph, *out["symmetrization"])
        if h_rhs != 1.0 / spectral.lambda1:
            problems.append("harmonic-mean rhs is not 1 / lambda1")
        problems += checks.at_least(h_lhs, h_rhs, TOL, "harmonic-mean bound")
        problems += checks.at_least(*out["pagerank_check"], TOL,
                                    "pagerank paradox")
        return problems

    def _exact(self, run):
        with run.tr.span("paradox.exact_degree_stats"):
            return exact_degree_stats(self._graph(run))

    def _check_exact(self, run, tracer, counts):
        return checks.exact_degree_means(self._graph(run),
                                         run.out["exact_degree_stats"])

    def _emit_report(self, run):
        """The ``paradox --measure eigenvector`` report: stats plus a node
        table, serialised as JSON."""
        graph = self._graph(run)
        vector = run.out["eigenvector"][1]
        report = run.out["paradox_report"]["eigenvector"]
        with run.tr.span("paradox.neighbor_average"):
            averages = neighbor_average(graph, vector.values)
        table = [{"id": i, "degree": int(d), "r": float(r),
                  "neighbor_avg": float(a), "delta": float(a - r)}
                 for i, (d, r, a) in enumerate(zip(graph.degree_seq,
                                                   vector.values, averages))]
        stats = {"mu": report.mu, "mu_bar": report.mu_bar,
                 "mu_tilde": report.mu_tilde, "slack": report.slack,
                 "paradox_holds": report.paradox_holds,
                 "is_regular": report.is_regular}
        doc = ReportDocument(
            graph_meta={"n": graph.node_count, "m": graph.edge_count,
                        "directed": graph.directed,
                        "regular": report.is_regular},
            measure=vector.params, stats=stats, node_table=table,
            tool_version=paradoxlab.__version__)
        with run.tr.span("formats.emit_report"):
            text = emit_report(doc, "json")
        run.counts["formats.bytes"] += len(text)
        return text

    def _check_emit_report(self, run, tracer, counts):
        graph = self._graph(run)
        payload = json.loads(run.out["emit_report"])
        table = payload.get("node_table", [])
        if len(table) != graph.node_count:
            return [f"node table has {len(table)} rows, expected "
                    f"{graph.node_count}"]
        r = np.array([row["r"] for row in table])
        averages = np.array([row["neighbor_avg"] for row in table])
        problems = []
        if not np.array_equal(r, run.out["eigenvector"][1].values):
            problems.append("node table r differs from the eigenvector")
        own = checks.neighbour_average(graph, r)
        if np.abs(averages - own).max() > checks.slack(len(r), own.max()):
            problems.append("node table neighbour averages are wrong")
        if payload["stats"]["mu_bar"] != run.out["paradox_report"][
                "eigenvector"].mu_bar:
            problems.append("report stats differ from paradox_report")
        return problems


# --- iteration bound --------------------------------------------------------

class IterationBound(Workload):
    name = "iteration_bound"

    def __init__(self, seed: int, size: str):
        super().__init__()
        short_n, long_n, hub_n, hub_m = ((300, 1000, 620, 900)
                                         if size == "full" else
                                         (30, 60, 90, 130))
        rng = np.random.default_rng(seed)
        self.short = permuted_path(short_n, rng)
        self.long = permuted_path(long_n, rng)
        self.hub = largest_component_graph(hub_n, *heavy_tailed_edges(
            hub_n, hub_m, rng))
        self.computations = 5
        self.sizes = {"short_path_n": short_n, "long_path_n": long_n,
                      "lcc_n": self.hub.node_count,
                      "lcc_m": self.hub.edge_count}
        self.jobs = [
            Job(f"eigenvector_P{short_n}", self._eigenvector(self.short),
                self._check_eigenvector(self.short)),
            Job(f"katz_P{short_n}", self._katz, self._check_katz),
            Job(f"eigenvector_P{long_n}", self._eigenvector(self.long),
                self._check_eigenvector(self.long)),
            Job("closeness", self._distance("closeness"),
                self._check_distance("closeness")),
            Job("harmonic", self._distance("harmonic"),
                self._check_distance("harmonic")),
        ]

    @staticmethod
    def _path_lambda1(graph) -> float:
        return 2.0 * math.cos(math.pi / (graph.node_count + 1))

    @staticmethod
    def _eigenvector(graph):
        return lambda run: eigenvector(run, graph)

    def _check_eigenvector(self, graph):
        def check(run, tracer, counts):
            spectral, vector = run.out[
                f"eigenvector_P{graph.node_count}"]
            return (checks.eigen_certificate(graph, spectral.lambda1,
                                             vector.values, TOL)
                    + checks.eigenvalue_is(graph, spectral.lambda1,
                                           vector.values,
                                           self._path_lambda1(graph),
                                           f"P_{graph.node_count}")
                    + checks.at_least(checks.neighbour_average(
                        graph, vector.values).mean(), vector.values.mean(),
                        TOL, "eigenvector paradox"))
        return check

    def _katz(self, run):
        return katz_default_alpha(run, self.short)

    def _check_katz(self, run, tracer, counts):
        graph = self.short
        spectral, vector = run.out[f"katz_P{graph.node_count}"]
        alpha = vector.params.alpha
        return (checks.eigen_certificate(graph, spectral.lambda1,
                                         spectral.vector, TOL)
                + checks.eigenvalue_is(graph, spectral.lambda1,
                                       spectral.vector,
                                       self._path_lambda1(graph),
                                       f"P_{graph.node_count}")
                + checks.katz_certificate(graph, alpha, vector.values, TOL)
                + checks.katz_solution(graph, alpha, vector.values)
                + checks.at_least(checks.neighbour_average(
                    graph, vector.values).mean(), vector.values.mean(),
                    TOL, "Katz paradox"))

    def _distance(self, kind):
        def job(run):
            with run.tr.span(f"centrality.{kind}"):
                return compute(self.hub, CentralityParams(kind=kind))
        return job

    def _check_distance(self, kind):
        def check(run, tracer, counts):
            return checks.shortest_path_measures(self.hub, kind,
                                                 run.out[kind].values)
        return check


WORKLOADS = {cls.name: cls for cls in (Ensemble, LargeGraph, IterationBound)}
