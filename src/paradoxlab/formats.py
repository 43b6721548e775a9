"""Graph file formats and report documents.

Two graph formats: a whitespace edge list ('#' comments, optional
``directed`` header line) and Matrix Market coordinate/pattern files
(``symmetric`` maps to undirected, ``general`` to directed), both read by
:func:`_int_pairs` under one comment rule and one error wording.  Report
documents serialise to JSON with a fixed key order and to CSV for node
tables; floats are written with ``repr``, the shortest string that parses
back to the same double, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter

import numpy as np

from .centrality import CentralityParams
from .errors import InputError, ParameterError, UsageError
from .graph import _MAX_GRAPH_SIZE, Graph, build_directed, build_undirected


def parse_edge_list_with_map(text: str,
                             directed: bool = False) -> tuple[Graph, list[int]]:
    """Parse an edge list, compacting node ids.

    Distinct ids are renumbered 0..n-1 in ascending order; the returned map
    gives the original id of each new node.  A leading ``directed`` line or
    ``directed=True`` switches to arc semantics.
    """
    lines = text.splitlines()
    first = next((k for k, raw in enumerate(lines)
                  if _uncommented(raw, "#")), None)
    if first is not None and _uncommented(lines[first], "#") == "directed":
        directed = True
        # Blanked rather than removed, so that line numbers still count it.
        lines[first] = ""
    pairs = _int_pairs(lines, 1, "#", 0, math.inf)
    if not len(pairs):
        raise InputError("edge list contains no edges")
    ids, mapped = np.unique(pairs.ravel(), return_inverse=True)
    mapped = mapped.reshape(-1, 2).astype(np.int64, copy=False)
    build = build_directed if directed else build_undirected
    return build(len(ids), mapped), ids.tolist()


def _uncommented(line: str, comment: str) -> str:
    return line.split(comment, 1)[0].strip()


def _int_pairs(lines: list[str], first_no: int, comment: str, least,
               most) -> np.ndarray:
    """``lines``, numbered from ``first_no``, as an ``(m, 2)`` array of ids
    in ``[least, most]`` without self-loops; ``comment`` starts a comment
    anywhere on a line.  numpy reads them as int64; what it rejects, or
    whose ids fail those checks, goes to :func:`_scan_pairs`, which names
    the faulty line or reads what numpy cannot (``1_0``, ids past int64)."""
    if not lines:
        return np.empty((0, 2), dtype=np.int64)
    # A warning rejects too: numpy warns on input without data.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = np.loadtxt(lines, dtype=np.int64, comments=comment,
                               ndmin=2)
    except (ValueError, OverflowError, Warning):
        pairs = None
    if pairs is None or pairs.shape[1] != 2 or pairs.min() < least or \
            pairs.max() > most or (pairs[:, 0] == pairs[:, 1]).any():
        return _scan_pairs(lines, first_no, comment, least, most)
    return pairs


def _scan_pairs(lines: list[str], first_no: int, comment: str, least,
                most) -> np.ndarray:
    """:func:`_int_pairs` line by line: an error names its line and the
    tokens or ids as written; ids beyond int64 stay exact as Python ints."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=first_no):
        tokens = _uncommented(raw, comment).split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise InputError(f"line {lineno}: expected two node ids, got "
                             f"{len(tokens)} tokens")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputError(f"line {lineno}: node ids must be integers, "
                             f"got {tokens[0]!r} {tokens[1]!r}") from None
        for node in (u, v):
            if not least <= node <= most:
                raise InputError(f"line {lineno}: node id {node} out of "
                                 f"range {least}..{most}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop ({u}, {u}) "
                             f"is not allowed")
        pairs.append((u, v))
    try:
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return np.array(pairs, dtype=object)


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    return parse_edge_list_with_map(text, directed=directed)[0]


def emit_edge_list(graph: Graph) -> str:
    """Canonical edge list: ``directed`` header when applicable, then one
    ``i j`` line per edge (min-id first when undirected), repeated per
    multiplicity, in ascending order."""
    text = ("directed\n" if graph.directed else "") + \
        _pair_lines(graph.stored_entries())
    # An undirected graph without edges is written as one empty line.
    return text or "\n"


# Rows rendered per %-format by _sliced, so that their transient Python
# objects and copies of the text span one slice instead of the whole graph
# or table.
_SLICE_ROWS = 2048


def _sliced(rows, row_format: str, values, sep: str = "") -> str:
    """``row_format`` per row of ``rows``, joined by ``sep``: one
    ``%``-format per slice, filled from ``values(slice)`` in row order."""
    return sep.join(
        (row_format + (sep + row_format) * (len(part) - 1))
        % tuple(values(part))
        for part in (rows[lo:lo + _SLICE_ROWS]
                     for lo in range(0, len(rows), _SLICE_ROWS)))


def _pair_lines(pairs: np.ndarray) -> str:
    """One ``i j`` line per row of an ``(m, 2)`` integer array."""
    return _sliced(pairs, "%d %d\n", lambda rows: rows.ravel().tolist())


# Whether a text's first non-blank line opens with the banner: parser and CLI.
_is_matrix_market = re.compile(r"\s*%%matrixmarket", re.IGNORECASE).match


def parse_matrix_market(text: str) -> Graph:
    """Parse a Matrix Market ``coordinate pattern`` file.

    ``symmetric`` files build undirected graphs (each off-diagonal entry
    read once), ``general`` files build directed graphs with entry (i, j)
    meaning an arc i -> j.  The header dimension fixes the node count, so
    isolated nodes survive a round trip.  Blank lines may precede the
    banner; errors name lines as they stand in ``text``.
    """
    if not _is_matrix_market(text):
        raise InputError("missing %%MatrixMarket banner")
    lines = text.splitlines()
    at = next(k for k, line in enumerate(lines) if line.strip())
    banner = lines[at].split()
    if len(banner) != 5 or banner[1].lower() != "matrix":
        raise InputError(f"unsupported banner {lines[at]!r}")
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
    size_at = next((k for k in range(at + 1, len(lines))
                    if _uncommented(lines[k], "%")), None)
    if size_at is None:
        raise InputError("missing Matrix Market size line")
    size_no, size = size_at + 1, _uncommented(lines[size_at], "%").split()
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
    arcs = nnz if symmetry == "general" else 2 * nnz
    if max(rows, arcs) > _MAX_GRAPH_SIZE:
        raise InputError(f"line {size_no}: {rows} nodes and {arcs} stored "
                         f"arcs exceed the limit of {_MAX_GRAPH_SIZE}")
    pairs = _int_pairs(lines[size_at + 1:], size_no + 1, "%", 1, rows)
    if len(pairs) != nnz:
        raise InputError(f"expected {nnz} entries, found {len(pairs)}")
    pairs -= 1
    build = build_undirected if symmetry == "symmetric" else build_directed
    return build(rows, pairs)


def emit_matrix_market(graph: Graph) -> str:
    """Canonical Matrix Market text: symmetric files store the lower
    triangle (row > column), general files every arc, both sorted."""
    symmetry = "general" if graph.directed else "symmetric"
    # CSR order is row-major, so the lower triangle and the arcs are sorted.
    entries = graph.stored_entries(lower=True) + 1
    return (f"%%MatrixMarket matrix coordinate pattern {symmetry}\n"
            f"{graph.node_count} {graph.node_count} {len(entries)}\n"
            + _pair_lines(entries))


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


def _measure_payload(params: CentralityParams) -> dict:
    values = ((field.name, getattr(params, field.name))
              for field in fields(params))
    return {name: value for name, value in values if value is not None}


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
    repr, so serialisation is byte-stable and lossless.

    The text is ``json.dumps(payload, indent=2)`` plus a newline; only a
    ``node_table`` that :func:`_row_template` admits, the one section that
    grows with the graph, is written by that template, a slice at a time.
    """
    table = payload.get("node_table") if isinstance(payload, dict) else None
    template = _row_template(table)
    if template is None:
        return json.dumps(payload, indent=2) + "\n"
    text = json.dumps(dict(payload, node_table=None), indent=2)
    # Top-level keys are the only lines indented by exactly two spaces.
    head, _, tail = text.partition('\n  "node_table": null')
    rows = _sliced(table, template, lambda part: chain.from_iterable(
        map(dict.values, part)), ",\n    ")
    return f'{head}\n  "node_table": [\n    {rows}\n  ]{tail}\n'


def _row_template(table) -> str | None:
    """The indented ``%``-format of a row of ``table``, or ``None`` unless
    it is a non-empty list of dicts with one key order of ``str`` keys and
    each column holds only ``int`` (``%d``) or only finite ``float``
    (``%r``), the types whose text these share with ``json``."""
    if type(table) is not list or set(map(type, table)) != {dict}:
        return None
    keys = [*table[0]]
    # No dict holds a key twice, so this gives each row ``keys`` in order.
    if set(map(type, keys)) != {str} or \
            list(chain.from_iterable(table)) != keys * len(table):
        return None
    values = tuple(chain.from_iterable(map(dict.values, table)))
    fields = []
    for at, key in enumerate(keys):
        column = values[at::len(keys)]
        kinds = set(map(type, column))
        # An overflowing sum only sends a finite table to json.dumps.
        if kinds != {int} and (kinds != {float}
                               or not math.isfinite(sum(column))):
            return None
        fields.append(json.dumps(key).replace("%", "%%")
                      + (": %d" if kinds == {int} else ": %r"))
    return "{\n      " + ",\n      ".join(fields) + "\n    }"


_NODE_COLUMNS = ("id", "degree", "r", "neighbor_avg", "delta")


def emit_report(doc: ReportDocument, fmt: str = "json") -> str:
    """Serialise a report: JSON by :func:`emit_json`, or ``csv``, which
    needs a node table and writes only it, a ``%s`` row template per slice
    of rows; ``str`` writes numpy floats as ``json`` writes floats."""
    if fmt == "json":
        return emit_json(report_payload(doc))
    if fmt == "csv":
        table = doc.node_table
        if table is None:
            raise UsageError("csv output needs a node table; this report "
                             "has none")
        cells = itemgetter(*_NODE_COLUMNS)
        try:
            return ",".join(_NODE_COLUMNS) + "\n" + _sliced(
                table, "%s,%s,%s,%s,%s\n",
                lambda rows: chain.from_iterable(map(cells, rows)))
        except (KeyError, TypeError):
            # Only a table read back from outside gets here.
            if type(table) is not list:
                raise InputError(f"csv output needs a list of node rows, "
                                 f"got {type(table).__name__}") from None
            at = next(k for k, row in enumerate(table) if type(row) is not
                      dict or not row.keys() >= set(_NODE_COLUMNS))
        raise InputError(f"csv output: node table row {at} is not an "
                         f"object with {', '.join(_NODE_COLUMNS)}")
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
        try:
            measure = CentralityParams(**payload["measure"])
        except (TypeError, ParameterError) as exc:
            raise InputError(f"report measure is malformed: {exc}") from None
    return ReportDocument(
        graph_meta=payload["graph_meta"],
        measure=measure,
        stats=payload.get("stats"),
        decomposition=payload.get("decomposition"),
        bias_summary=payload.get("bias_summary"),
        node_table=payload.get("node_table"),
        tool_version=payload.get("tool_version", ""),
        seed=payload.get("seed"))
