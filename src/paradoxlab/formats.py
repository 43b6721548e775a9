"""Graph file formats and report documents.

Two graph formats: a whitespace edge list ('#' comments, optional
``directed`` header line) and Matrix Market coordinate/pattern files
(``symmetric`` maps to undirected, ``general`` to directed).  Report
documents serialise to JSON with a fixed key order and to CSV for node
tables; floats are written with ``repr``, the shortest string that parses
back to the same double, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .centrality import CentralityParams
from .errors import InputError, UsageError
from .graph import Graph, build_directed, build_undirected


def parse_edge_list_with_map(text: str,
                             directed: bool = False) -> tuple[Graph, list[int]]:
    """Parse an edge list, compacting node ids.

    Distinct ids are renumbered 0..n-1 in ascending order; the returned map
    gives the original id of each new node.  A leading ``directed`` line or
    ``directed=True`` switches to arc semantics.
    """
    pairs: list[tuple[int, int]] = []
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header_allowed and line == "directed":
            directed = True
            header_allowed = False
            continue
        header_allowed = False
        tokens = line.split()
        if len(tokens) != 2:
            raise InputError(
                f"line {lineno}: expected two node ids, got {len(tokens)} "
                f"tokens")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputError(
                f"line {lineno}: node ids must be integers, got "
                f"{tokens[0]!r} {tokens[1]!r}") from None
        if u < 0 or v < 0:
            raise InputError(f"line {lineno}: node ids must be nonnegative")
        if u == v:
            raise InputError(f"line {lineno}: self-loop ({u}, {u}) "
                             f"is not allowed")
        pairs.append((u, v))
    if not pairs:
        raise InputError("edge list contains no edges")
    try:
        flat = np.array(pairs, dtype=np.int64).ravel()
    except OverflowError:
        # Ids beyond int64 stay exact as Python ints.
        flat = np.array(pairs, dtype=object).ravel()
    ids, mapped = np.unique(flat, return_inverse=True)
    mapped = mapped.reshape(-1, 2).astype(np.int64, copy=False)
    build = build_directed if directed else build_undirected
    return build(len(ids), mapped), ids.tolist()


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    return parse_edge_list_with_map(text, directed=directed)[0]


def emit_edge_list(graph: Graph) -> str:
    """Canonical edge list: ``directed`` header when applicable, then one
    ``i j`` line per edge (min-id first when undirected), repeated per
    multiplicity, in ascending order."""
    lines = ["directed"] if graph.directed else []
    lines.extend(f"{i} {j}" for i, j in graph.edge_pairs())
    return "\n".join(lines) + "\n"


def parse_matrix_market(text: str) -> Graph:
    """Parse a Matrix Market ``coordinate pattern`` file.

    ``symmetric`` files build undirected graphs (each off-diagonal entry
    read once), ``general`` files build directed graphs with entry (i, j)
    meaning an arc i -> j.  The header dimension fixes the node count, so
    isolated nodes survive a round trip.
    """
    lines = text.splitlines()
    if not lines or not lines[0].lower().startswith("%%matrixmarket"):
        raise InputError("missing %%MatrixMarket banner")
    banner = lines[0].split()
    if len(banner) != 5 or banner[1].lower() != "matrix":
        raise InputError(f"unsupported banner {lines[0]!r}")
    layout, field, symmetry = (tok.lower() for tok in banner[2:5])
    if layout != "coordinate":
        raise InputError(f"unsupported Matrix Market layout {layout!r}; "
                         f"only 'coordinate' is handled")
    if field != "pattern":
        raise InputError(f"unsupported Matrix Market field {field!r}; "
                         f"only 'pattern' is handled")
    if symmetry not in ("symmetric", "general"):
        raise InputError(f"unsupported Matrix Market symmetry {symmetry!r}; "
                         f"expected 'symmetric' or 'general'")
    size_at = next((k for k in range(1, len(lines)) if _is_body(lines[k])),
                   None)
    if size_at is None:
        raise InputError("missing Matrix Market size line")
    size_no, size = size_at + 1, lines[size_at].split()
    if len(size) != 3:
        raise InputError(f"line {size_no}: size line must hold rows, "
                         f"columns and entry count")
    try:
        rows, cols, nnz = (int(tok) for tok in size)
    except ValueError:
        raise InputError(f"line {size_no}: size line must be integer") from None
    if rows != cols:
        raise InputError(
            f"adjacency matrix must be square, got {rows} x {cols}")
    entries = lines[size_at + 1:]
    pairs = _entry_array(entries, rows)
    if pairs is None or len(pairs) != nnz:
        pairs = _scan_entries(entries, size_no + 1, rows, nnz)
    build = build_undirected if symmetry == "symmetric" else build_directed
    return build(rows, pairs)


def _is_body(line: str) -> bool:
    """Not blank and not a ``%`` comment."""
    return bool(line.strip()) and not line.lstrip().startswith("%")


def _entry_array(entries: list[str], rows: int) -> np.ndarray | None:
    """Entry lines as an ``(m, 2)`` int64 array of 0-based ids, or ``None``
    unless every line is two decimal indices in range and off the diagonal
    (blank lines aside).  ``None`` sends the file to :func:`_scan_entries`,
    which finds the faulty line."""
    body = "\n".join(entries)
    if not body.isascii():
        return None
    codes = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    newline = codes == ord("\n")
    if not (digit | newline | (codes == ord(" "))).all():
        return None
    # Indices are the runs of digits; each shares its line with its
    # partner and no other index, and has at most 18 digits, so it fits
    # int64.
    edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    line_of = np.searchsorted(np.flatnonzero(newline), starts)
    if len(starts) % 2 or (stops - starts).max(initial=0) > 18 or not (
            np.array_equal(line_of[0::2], line_of[1::2])
            and (np.diff(line_of[0::2]) > 0).all()):
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    # Text of whitespace alone parses as [0].
    if len(values) != len(starts):
        return None
    pairs = values.reshape(-1, 2)
    if ((pairs < 1) | (pairs > rows)).any() or \
            (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return pairs - 1


def _scan_entries(entries: list[str], first_no: int, rows: int,
                  nnz: int) -> list[tuple[int, int]]:
    """Check the entry lines one by one, so that an error names its line,
    and return the 0-based pairs."""
    body = [(no, ln.strip()) for no, ln in enumerate(entries, start=first_no)
            if _is_body(ln)]
    if len(body) != nnz:
        raise InputError(f"expected {nnz} entries, found {len(body)}")
    pairs = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise InputError(
                f"line {lineno}: pattern entries need exactly two indices")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputError(
                f"line {lineno}: entry indices must be integers") from None
        if not (1 <= i <= rows and 1 <= j <= rows):
            raise InputError(
                f"line {lineno}: entry ({i}, {j}) out of range for "
                f"{rows} nodes")
        if i == j:
            raise InputError(
                f"line {lineno}: diagonal entry ({i}, {j}) would be a "
                f"self-loop")
        pairs.append((i - 1, j - 1))
    return pairs


def emit_matrix_market(graph: Graph) -> str:
    """Canonical Matrix Market text: symmetric files store the lower
    triangle (row > column), general files every arc, both sorted."""
    symmetry = "general" if graph.directed else "symmetric"
    # CSR order is row-major, so the lower triangle and the arcs are sorted.
    entries = (graph.stored_entries(lower=True) + 1).tolist()
    lines = [f"%%MatrixMarket matrix coordinate pattern {symmetry}",
             f"{graph.node_count} {graph.node_count} {len(entries)}"]
    lines.extend(f"{i} {j}" for i, j in entries)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReportDocument:
    """Everything a command run wants to persist, in plain Python types.

    Optional sections are ``None`` and omitted from the serialised form.
    ``node_table`` rows carry id, degree, r, neighbor_avg and delta.
    """

    graph_meta: dict
    measure: CentralityParams | None = None
    stats: dict | None = None
    decomposition: dict | None = None
    bias_summary: dict | None = None
    node_table: list[dict] | None = None
    tool_version: str = ""
    seed: int | None = None


_MEASURE_KEYS = ("kind", "ell", "alpha", "beta", "tol", "max_iters")


def _measure_payload(params: CentralityParams) -> dict:
    payload = {}
    for key in _MEASURE_KEYS:
        value = getattr(params, key)
        if value is not None:
            payload[key] = value
    return payload


def report_payload(doc: ReportDocument) -> dict:
    """The document as one ordered dict, optional sections omitted."""
    payload: dict = {"graph_meta": doc.graph_meta}
    if doc.measure is not None:
        payload["measure"] = _measure_payload(doc.measure)
    for key in ("stats", "decomposition", "bias_summary", "node_table"):
        value = getattr(doc, key)
        if value is not None:
            payload[key] = value
    payload["tool_version"] = doc.tool_version
    if doc.seed is not None:
        payload["seed"] = doc.seed
    return payload


def emit_json(payload: dict) -> str:
    """JSON with two-space indentation and insertion key order; floats use
    repr, so serialisation is byte-stable and lossless."""
    return json.dumps(payload, indent=2) + "\n"


_NODE_COLUMNS = ("id", "degree", "r", "neighbor_avg", "delta")


def emit_report(doc: ReportDocument, fmt: str = "json") -> str:
    """Serialise a report; ``csv`` needs a node table and renders only it."""
    if fmt == "json":
        return emit_json(report_payload(doc))
    if fmt == "csv":
        if doc.node_table is None:
            raise UsageError("csv output needs a node table; this report "
                             "has none")
        lines = [",".join(_NODE_COLUMNS)]
        for row in doc.node_table:
            lines.append(",".join(
                repr(row[col]) if isinstance(row[col], float)
                else str(row[col]) for col in _NODE_COLUMNS))
        return "\n".join(lines) + "\n"
    raise UsageError(f"unknown report format {fmt!r}; expected json or csv")


def parse_report(text: str) -> ReportDocument:
    """Rebuild a :class:`ReportDocument` from its JSON form."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"report is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "graph_meta" not in payload:
        raise InputError("report JSON must be an object with graph_meta")
    measure = None
    if "measure" in payload:
        measure = CentralityParams(**payload["measure"])
    node_table = payload.get("node_table")
    return ReportDocument(
        graph_meta=payload["graph_meta"],
        measure=measure,
        stats=payload.get("stats"),
        decomposition=payload.get("decomposition"),
        bias_summary=payload.get("bias_summary"),
        node_table=node_table,
        tool_version=payload.get("tool_version", ""),
        seed=payload.get("seed"))
