import json
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradoxlab import (CentralityParams, InputError, ReportDocument,
                        UsageError, build_directed, build_undirected,
                        emit_edge_list, emit_matrix_market, emit_report,
                        parse_edge_list, parse_edge_list_with_map,
                        parse_matrix_market, parse_report)
from paradoxlab import formats
from paradoxlab.formats import emit_json
from conftest import edge_pairs, path, peak_bytes_raising, star


def test_parse_edge_list_basic():
    g = parse_edge_list("0 1\n1 2\n")
    assert not g.directed
    assert g.node_count == 3
    assert g.degree_seq.tolist() == [1, 2, 1]


def test_parse_edge_list_comments_blanks_and_repeats():
    text = "# a path with a doubled middle edge\n\n0 1\n1 2  # inline note\n1 2\n"
    g = parse_edge_list(text)
    assert g.edge_count == 3
    assert g.degree_seq.tolist() == [1, 3, 2]


def test_parse_edge_list_directed_header_and_flag():
    g = parse_edge_list("directed\n0 1\n1 2\n2 0\n")
    assert g.directed
    assert g.degree_seq.tolist() == [1, 1, 1]
    forced = parse_edge_list("0 1\n1 0\n", directed=True)
    assert forced.directed
    assert forced.edge_count == 2


def test_parse_edge_list_gap_reindexing():
    g, ids = parse_edge_list_with_map("0 5\n5 9\n")
    assert ids == [0, 5, 9]
    assert all(type(i) is int for i in ids)
    assert g.node_count == 3
    assert g.degree_seq.tolist() == [1, 2, 1]
    # Ids beyond int64 keep their exact value.
    big = 2 ** 64 + 1
    g, ids = parse_edge_list_with_map(f"7 {big}\n{big} 3\n7 3\n",
                                      directed=True)
    assert ids == [3, 7, big]
    assert all(type(i) is int for i in ids)
    assert edge_pairs(g) == [(1, 0), (1, 2), (2, 0)]


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("0 1\n1 2 3\n")
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list("zero one\n")
    with pytest.raises(InputError, match="line 3"):
        parse_edge_list("0 1\n1 2\n2 2\n")
    with pytest.raises(InputError, match="line 1"):
        parse_edge_list("-1 0\n")
    with pytest.raises(InputError):
        parse_edge_list("# only comments\n")


def test_emit_edge_list_round_trip():
    g = star(4)
    text = emit_edge_list(g)
    assert text == "0 1\n0 2\n0 3\n"
    assert parse_edge_list(text) == g

    ring = build_directed(3, [(0, 1), (1, 2), (2, 0)])
    text_d = emit_edge_list(ring)
    assert text_d.startswith("directed\n")
    assert parse_edge_list(text_d) == ring

    multi = build_undirected(2, [(0, 1), (0, 1)])
    assert emit_edge_list(multi) == "0 1\n0 1\n"
    assert parse_edge_list(emit_edge_list(multi)) == multi


def test_matrix_market_symmetric_round_trip():
    g = path(6)
    text = emit_matrix_market(g)
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate pattern symmetric"
    assert lines[1] == "6 6 5"
    assert lines[2] == "2 1"
    assert parse_matrix_market(text) == g


def test_matrix_market_example_entries():
    text = emit_matrix_market(path(3))
    assert "3 3 2" in text
    assert "2 1" in text
    assert "3 2" in text


def test_matrix_market_general_round_trip(hub_digraph):
    text = emit_matrix_market(hub_digraph)
    assert "general" in text.splitlines()[0]
    assert parse_matrix_market(text) == hub_digraph


def _reference_matrix_market(graph):
    """The sorted-tuple emitter the formats module used to run."""
    if graph.directed:
        symmetry = "general"
        entries = sorted((i + 1, j + 1) for i, j in edge_pairs(graph))
    else:
        symmetry = "symmetric"
        entries = sorted((j + 1, i + 1) for i, j in edge_pairs(graph))
    lines = [f"%%MatrixMarket matrix coordinate pattern {symmetry}",
             f"{graph.node_count} {graph.node_count} {len(entries)}"]
    lines.extend(f"{i} {j}" for i, j in entries)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=30))))
def test_matrix_market_emission_matches_sorted_reference(case):
    n, pairs = case
    # Few nodes and many pairs give parallel edges in both orientations.
    edges = [(u, v) for u, v in pairs if u != v]
    for build in (build_undirected, build_directed):
        g = build(n, edges)
        assert emit_matrix_market(g) == _reference_matrix_market(g)


def test_matrix_market_preserves_isolated_nodes():
    g = build_undirected(5, [(0, 1)])  # nodes 2..4 isolated
    text = emit_matrix_market(g)
    back = parse_matrix_market(text)
    assert back.node_count == 5
    assert back == g


def test_matrix_market_accepts_either_triangle_and_comments():
    text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% upper-triangle entries with a comment\n"
            "3 3 2\n"
            "1 2\n"
            "2 3\n")
    assert parse_matrix_market(text) == path(3)


def test_matrix_market_rejects_bad_files():
    with pytest.raises(InputError, match="banner"):
        parse_matrix_market("0 1\n1 2\n")
    with pytest.raises(InputError, match="layout|array"):
        parse_matrix_market(
            "%%MatrixMarket matrix array pattern symmetric\n3 3\n")
    with pytest.raises(InputError, match="field"):
        parse_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 2 0.5\n")
    with pytest.raises(InputError, match="symmetry"):
        parse_matrix_market(
            "%%MatrixMarket matrix coordinate pattern hermitian\n"
            "2 2 1\n1 2\n")
    with pytest.raises(InputError, match="square"):
        parse_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 1\n1 2\n")
    with pytest.raises(InputError, match="self-loop"):
        parse_matrix_market(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "2 2 1\n1 1\n")
    with pytest.raises(InputError, match="expected 2 entries"):
        parse_matrix_market(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n1 2\n")
    with pytest.raises(InputError, match="out of range"):
        parse_matrix_market(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "2 2 1\n1 5\n")


def sample_document():
    return ReportDocument(
        graph_meta={"n": 6, "m": 5, "directed": False, "regular": False},
        measure=CentralityParams(kind="degree"),
        stats={"mu": 10 / 6, "mu_bar": 11 / 6, "mu_tilde": 1.8,
               "slack": 11 / 6 - 10 / 6, "paradox_holds": True,
               "is_regular": False},
        node_table=[{"id": 0, "degree": 1, "r": 1.0, "neighbor_avg": 2.0,
                     "delta": 1.0},
                    {"id": 1, "degree": 2, "r": 2.0, "neighbor_avg": 1.5,
                     "delta": -0.5}],
        tool_version="0.1.0")


def test_report_json_round_trip_and_float_fidelity():
    doc = sample_document()
    text = emit_report(doc, "json")
    assert text.endswith("\n")
    # Shortest-round-trip float text appears verbatim.
    assert "1.8333333333333333" in text
    assert parse_report(text) == doc
    payload = json.loads(text)
    assert list(payload) == ["graph_meta", "measure", "stats", "node_table",
                             "tool_version"]
    assert payload["stats"]["mu_bar"] == 11 / 6


def test_report_emission_is_byte_stable():
    doc = sample_document()
    assert emit_report(doc, "json") == emit_report(doc, "json")
    assert emit_report(doc, "csv") == emit_report(doc, "csv")


def test_report_csv_renders_node_table():
    text = emit_report(sample_document(), "csv")
    lines = text.splitlines()
    assert lines[0] == "id,degree,r,neighbor_avg,delta"
    assert lines[1] == "0,1,1.0,2.0,1.0"
    assert lines[2] == "1,2,2.0,1.5,-0.5"


def test_report_csv_requires_node_table():
    doc = ReportDocument(graph_meta={"n": 2}, tool_version="0.1.0")
    with pytest.raises(UsageError):
        emit_report(doc, "csv")
    with pytest.raises(UsageError):
        emit_report(sample_document(), "yaml")


@pytest.mark.parametrize("table, message", [
    ('[{"id": 0}]', "csv output: node table row 0 is not an object with "
     "id, degree, r, neighbor_avg, delta"),
    ('[{"id": 0, "degree": 1, "r": 1.0, "neighbor_avg": 1.0, "delta": 0.0},'
     ' [0, 1]]', "csv output: node table row 1 is not an object"),
    ("5", "csv output needs a list of node rows, got int"),
])
def test_report_csv_rejects_malformed_tables_read_back(table, message):
    doc = parse_report('{"graph_meta": {}, "node_table": %s}' % table)
    with pytest.raises(InputError) as info:
        emit_report(doc, "csv")
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("symmetry, size, message", [
    ("symmetric", "9223372036854775808 9223372036854775808 1",
     "9223372036854775808 nodes and 2 stored arcs"),
    ("symmetric", "4000000000 4000000000 0",
     "4000000000 nodes and 0 stored arcs"),
    ("symmetric", "3 3 1073741824", "3 nodes and 2147483648 stored arcs"),
    ("general", "3 3 2147483648", "3 nodes and 2147483648 stored arcs"),
])
def test_matrix_market_size_over_the_limit_allocates_nothing(symmetry, size,
                                                              message):
    # Refused from the size line, before any entry is read or any array of
    # that size allocated.
    text = (f"%%MatrixMarket matrix coordinate pattern {symmetry}\n"
            f"{size}\n1 2\n")
    peak, error = peak_bytes_raising(InputError,
                                     lambda: parse_matrix_market(text))
    assert str(error) == f"line 2: {message} exceed the limit of 2147483647"
    assert peak < 1 << 20


@pytest.mark.parametrize("size, entries", [
    ("2147483647 2147483647 2", 2), ("3 3 1073741823", 1073741823)])
def test_matrix_market_size_at_the_limit_reads_its_entries(size, entries):
    with pytest.raises(InputError, match=f"expected {entries} entries, "
                                         f"found 1$"):
        parse_matrix_market("%%MatrixMarket matrix coordinate pattern "
                            f"symmetric\n{size}\n1 2\n")


def test_matrix_market_banner_may_follow_blank_lines():
    text = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n"
    assert parse_matrix_market("\n \t\n" + text) == \
        parse_matrix_market(text)
    with pytest.raises(InputError, match="^line 5: self-loop"):
        parse_matrix_market("\n\n" + text.replace("1 2", "2 2"))


def test_report_optional_sections_are_omitted():
    doc = ReportDocument(graph_meta={"n": 2}, tool_version="0.1.0")
    payload = json.loads(emit_report(doc, "json"))
    assert "stats" not in payload
    assert "bias_summary" not in payload
    assert "seed" not in payload
    assert "measure" not in payload


def test_measure_payload_has_exactly_needed_knobs():
    doc = ReportDocument(
        graph_meta={"n": 3},
        measure=CentralityParams(kind="katz", alpha=0.2),
        tool_version="0.1.0")
    payload = json.loads(emit_report(doc, "json"))
    assert list(payload["measure"]) == ["kind", "alpha", "tol", "max_iters"]
    back = parse_report(emit_report(doc, "json"))
    assert back.measure == doc.measure


def test_parse_report_rejects_junk():
    with pytest.raises(InputError):
        parse_report("not json")
    with pytest.raises(InputError):
        parse_report("[1, 2]")
    for measure in (["degree"], {"kind": "degree", "colour": 1},
                    {"kind": "walk_count", "ell": "3"}):
        text = json.dumps({"graph_meta": {"n": 2}, "measure": measure})
        with pytest.raises(InputError, match="report measure"):
            parse_report(text)


def test_emit_json_uses_repr_floats():
    text = emit_json({"x": 0.1, "y": 2.0 ** 0.5})
    assert "0.1" in text
    assert "1.4142135623730951" in text


def test_report_csv_writes_numpy_floats_as_json_does():
    rows = [{"id": 0, "degree": 1, "r": np.float64(0.5),
             "neighbor_avg": np.float64(0.1) + np.float64(0.2),
             "delta": np.float64(-0.0)}]
    doc = ReportDocument(graph_meta={"n": 1}, node_table=rows)
    plain = ReportDocument(graph_meta={"n": 1}, node_table=[
        {key: float(value) if isinstance(value, float) else value
         for key, value in row.items()} for row in rows])
    text = emit_report(doc, "csv")
    assert text.splitlines()[1] == "0,1,0.5,0.30000000000000004,-0.0"
    assert text == emit_report(plain, "csv")
    assert json.loads(emit_report(doc, "json"))["node_table"] == \
        [{"id": 0, "degree": 1, "r": 0.5,
          "neighbor_avg": 0.30000000000000004, "delta": -0.0}]


FLAT_ROWS = [
    {"id": 0, "degree": 3, "r": 0.5, "neighbor_avg": float("nan"),
     "delta": float("inf")},
    {"id": 1, "degree": 0, "r": -0.0, "neighbor_avg": 5e-324,
     "delta": float("-inf")},
    {"r": np.float64(0.1), "flag": True, "off": False, "none": None,
     "big": 2 ** 64 + 1, "low": -2 ** 63, "max": 1.7976931348623157e308},
    {'q"uote': 'a "b" {c} [d]', "nul\x00key": "x\x00y", "ünï": "ç☃ \U0001f600",
     "},\x00{": "},\x00{", "back\\slash": "\\u0000", "tab\t": "\n\r"},
    {1: 2, 2.5: 3, False: 4, None: 5, "": ""},
    {"single": 1},
]

FLAT_TABLES = [FLAT_ROWS[:1], FLAT_ROWS, FLAT_ROWS[3:5], [FLAT_ROWS[5]] * 3]

GENERIC_TABLES = [
    [], None, "table", [1, 2], [[1, 2]], [{}], [FLAT_ROWS[0], {}],
    [FLAT_ROWS[0], "row"], [{"a": [1, 2]}], [{"a": []}], [{"a": (1,)}],
    [{"a": {"b": 1}}], [{"a": {}}], [FLAT_ROWS[1], {"a": [FLAT_ROWS[1]]}],
    tuple(FLAT_ROWS), [OrderedDict(FLAT_ROWS[0])],
]


def _payloads(table):
    yield {"node_table": table}
    yield {"graph_meta": {"n": 2, "node_table": None}, "node_table": table,
           "tool_version": '\n  "node_table": null', "seed": 3}
    yield {"node_table": table, "stats": {"mu": 0.1, "rows": [[], {}]},
           "x": FLAT_ROWS}
    yield {"a": [], "b": {}, "node_table": table, "c": [1.5, None]}
    yield [{"node_table": table}]


def test_emit_json_is_json_dumps_with_indent():
    # Only the table of one int column gets a row template: NaN, infinity,
    # bools, None, str values, non-str keys and nesting all fall back.
    for table in FLAT_TABLES + GENERIC_TABLES:
        assert (formats._row_template(table) is None) is \
            (table is not FLAT_TABLES[-1])
        for payload in _payloads(table):
            assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"
    assert emit_json({}) == "{}\n"
    assert emit_json({"meta": 1}) == '{\n  "meta": 1\n}\n'


@pytest.mark.parametrize("slice_rows", [1, 2, 3])
def test_emit_json_joins_row_slices_as_one_table(monkeypatch, slice_rows):
    monkeypatch.setattr(formats, "_SLICE_ROWS", slice_rows)
    for table in FLAT_TABLES:
        for payload in _payloads(table):
            assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_emit_json_renders_tables_longer_than_a_slice():
    table = [{"id": i, "r": i / 7, "name": f"n{i}\x00"}
             for i in range(2 * formats._SLICE_ROWS + 1)]
    payload = {"graph_meta": {"n": len(table)}, "node_table": table,
               "tool_version": "x"}
    assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"


def test_emit_json_renders_templated_tables_longer_than_a_slice():
    table = [{"id": i, "r": i / 7, "%d \"q\"\x00": -i * 2 ** 60}
             for i in range(2 * formats._SLICE_ROWS + 1)]
    assert formats._row_template(table) == \
        '{\n      "id": %d,\n      "r": %r,\n' \
        '      "%%d \\"q\\"\\u0000": %d\n    }'
    payload = {"graph_meta": {"n": len(table)}, "node_table": table,
               "tool_version": "x"}
    assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1.7976931348623157e308])
_COLUMNS = {
    "int": st.integers() | st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 30]),
    "finite": _FINITE,
    "float": st.floats() | _FINITE,
    "mixed": st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                       st.text(max_size=3)),
}
_KEYS = st.text(max_size=4) | st.sampled_from(
    ["%", "%d", "%(a)s", '"', "\x00"])


@st.composite
def node_tables(draw):
    """Tables of int, float and mixed columns, about half of them fit for
    a row template, with one row reordered or cut, or one key not ``str``,
    now and then."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)),
                          min_size=len(keys), max_size=len(keys)))
    rows = draw(st.lists(st.tuples(*(_COLUMNS[kind] for kind in kinds)),
                         min_size=1, max_size=7))
    table = [dict(zip(keys, row)) for row in rows]
    at = draw(st.integers(0, len(table) - 1))
    change = draw(st.sampled_from([None] * 4 + ["reorder", "cut", "key"]))
    if change == "reorder":
        table[at] = dict(reversed(table[at].items()))
    elif change == "cut":
        del table[at][keys[-1]]
    elif change == "key":
        key = draw(st.integers() | st.floats() | st.booleans() | st.none())
        table = [{key if k == keys[0] else k: v for k, v in row.items()}
                 for row in table]
    return table


@pytest.mark.parametrize("slice_rows", [1, formats._SLICE_ROWS])
@settings(max_examples=300, deadline=None)
@given(node_tables())
def test_emit_json_is_json_dumps_on_any_node_table(slice_rows, table):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(formats, "_SLICE_ROWS", slice_rows)
        for payload in _payloads(table):
            assert emit_json(payload) == json.dumps(payload, indent=2) + "\n"


def _per_row_csv(table):
    """The per-row ``str`` join that the CSV report used to run."""
    lines = [",".join(formats._NODE_COLUMNS)] + [
        ",".join([str(row[col]) for col in formats._NODE_COLUMNS])
        for row in table]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("slice_rows", [1, 2, formats._SLICE_ROWS])
def test_report_csv_is_the_per_row_str_join(monkeypatch, slice_rows):
    cells = [0, -3, 2 ** 70, True, False, None, "a,b", "", 0.1, -0.0,
             5e-324, 1e16, float("nan"), float("-inf"), np.float64(0.1) * 3,
             np.float64(-0.0), np.float32(0.1), np.int64(-7), np.nan,
             (1, 2), "%s"]
    table = [{col: cells[(k + 3 * c) % len(cells)]
              for c, col in enumerate(reversed(formats._NODE_COLUMNS))}
             for k in range(2 * len(cells))]
    tables = [[], table[:1], table, [dict(row, extra=1) for row in table]]
    monkeypatch.setattr(formats, "_SLICE_ROWS", slice_rows)
    for rows in tables:
        doc = ReportDocument(graph_meta={"n": len(rows)}, node_table=rows)
        assert emit_report(doc, "csv") == _per_row_csv(rows)


@pytest.mark.parametrize("table", [
    [{"id": np.int64(1)}], [{"id": 0}, {"id": np.int64(1)}],
    [{"id": 0, "nested": [np.int64(1)]}],
])
def test_emit_json_still_rejects_numpy_ints(table):
    with pytest.raises(TypeError):
        emit_json({"meta": 1, "node_table": table})


def _per_line_edge_list(graph):
    """The f-string loop that ``emit_edge_list`` used to run."""
    lines = ["directed"] if graph.directed else []
    lines.extend(f"{i} {j}" for i, j in edge_pairs(graph))
    return "\n".join(lines) + "\n"


def _per_line_matrix_market(graph):
    """The f-string loop that ``emit_matrix_market`` used to run."""
    symmetry = "general" if graph.directed else "symmetric"
    entries = (graph.stored_entries(lower=True) + 1).tolist()
    lines = [f"%%MatrixMarket matrix coordinate pattern {symmetry}",
             f"{graph.node_count} {graph.node_count} {len(entries)}"]
    lines.extend(f"{i} {j}" for i, j in entries)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("slice_rows", [1, 2, 3])
def test_pair_emitters_join_row_slices_as_one_text(monkeypatch, slice_rows):
    graphs = [path(9), build_undirected(1, []),
              build_directed(5, [(0, 1), (0, 1), (1, 0), (4, 2), (3, 2),
                                 (2, 3), (1, 4)])]
    # Under the default slice size each graph is one %-format.
    emitters = (emit_edge_list, emit_matrix_market)
    whole = [[emit(graph) for emit in emitters] for graph in graphs]
    monkeypatch.setattr(formats, "_SLICE_ROWS", slice_rows)
    for graph, texts in zip(graphs, whole):
        assert [emit(graph) for emit in emitters] == texts


def test_pair_emitters_match_the_per_line_loop(hub_digraph):
    graphs = [
        path(5), star(6), hub_digraph,
        build_directed(3, [(0, 1), (1, 2), (2, 0)]),
        build_undirected(3, [(0, 1), (1, 0), (0, 1), (1, 2)]),
        build_directed(3, [(0, 1), (0, 1), (1, 0), (2, 1), (2, 1)]),
        build_undirected(1, []), build_undirected(4, []),
        build_directed(1, []), build_directed(3, []),
        build_undirected(8, [(2, 5), (5, 7)]),
        build_directed(8, [(7, 2), (2, 5)]),
        path(20_000),
    ]
    for graph in graphs:
        assert emit_edge_list(graph) == _per_line_edge_list(graph)
        assert emit_matrix_market(graph) == _per_line_matrix_market(graph)
