"""The numpy fast path of ``parse_edge_list_with_map`` against its line scan.

The fast path reads the edge lines as one int64 array and hands any file
it cannot vouch for to the per-line scan that both graph formats share,
which names the faulty line.  The two must agree on every file: same graph
and id map, or same error.
"""

import random

import pytest

from paradoxlab import (InputError, RandomGraphSpec, emit_edge_list, formats,
                        generate, parse_edge_list, parse_edge_list_with_map)
from conftest import edge_pairs

TOKENS = ["0", "1", "2", "3", "7", "+1", "-2", "-0", "01", "x", "#", "# c",
          "directed", "٣", "1.0", "1_0", "1e1", "0x1", "9223372036854775807",
          "9223372036854775808", "18446744073709551617",
          "00000000000000000003", "", " ", "\t", "\x1f"]
GAPS = [" ", "  ", "\t", " \t "]
SEPARATORS = ["\n", "\n", "\n", "\r\n", "\n\n", "\r", "\x0b", "\n   \n",
              "\n# comment\n", "\n\t\n"]
HEADERS = ["", "", "directed\n", "  directed  \n", "directed # arcs\n",
           "# leading comment\n\ndirected\n", "\r\ndirected\r\n",
           "directed\ndirected\n", "Directed\n"]


def _outcome(text):
    try:
        g, ids = parse_edge_list_with_map(text)
    except InputError as exc:
        return "error", str(exc)
    return "graph", g.node_count, g.directed, edge_pairs(g), ids


def _random_file(rng):
    top = rng.choice([3, 9, 40, 2 ** 70])
    noise = rng.choice([0.0, 0.05, 0.3])
    lines = []
    for _ in range(rng.choice([0, 1, rng.randint(2, 12)])):
        a, b = rng.randint(0, top), rng.randint(0, top)
        line = f"{a}{rng.choice(GAPS)}{b}"
        if rng.random() < noise:
            line = rng.choice([
                rng.choice(TOKENS) + rng.choice(GAPS) + rng.choice(TOKENS),
                line + " " + rng.choice(TOKENS),
                f"{a} {a}",
                rng.choice(TOKENS)])
        elif rng.random() < 0.1:
            line += " # note " + rng.choice(TOKENS)
        lines.append(line)
    text = rng.choice(HEADERS)
    for line in lines:
        text += line + rng.choice(SEPARATORS)
    return text if rng.random() < 0.5 else text.rstrip("\n")


def test_edge_list_fast_path_agrees_with_the_line_scan(monkeypatch):
    rng = random.Random(2025)
    texts = [_random_file(rng) for _ in range(3000)]
    fast = [_outcome(text) for text in texts]
    monkeypatch.setattr(formats, "_int_pairs", formats._scan_pairs)
    scanned = [_outcome(text) for text in texts]
    assert fast == scanned
    # Both paths were exercised: some files parse, some fail, some are
    # directed, and some hold ids beyond int64.
    assert {outcome[0] for outcome in fast} == {"graph", "error"}
    graphs = [outcome for outcome in fast if outcome[0] == "graph"]
    assert {outcome[2] for outcome in graphs} == {False, True}
    assert any(max(outcome[4]) >= 2 ** 63 for outcome in graphs)


@pytest.mark.parametrize("text", [
    "0 1\n1 2\n", "0 1\n1 2", "directed\n0 1\n1 2\n", "\n\ndirected\n0 1\n",
    "# header\n0 1 # edge\n\n1\t2\n", "0 1\r\n1 2\r\n", "  0   1  \n\n",
    "directed # arcs\n0 1\n", "+1 02\n", "9223372036854775807 0\n",
])
def test_plain_edge_lists_skip_the_line_scan(monkeypatch, text):
    def refuse(*args):
        raise AssertionError("the line scan ran on a plain file")

    expected = _outcome(text)
    monkeypatch.setattr(formats, "_scan_pairs", refuse)
    assert _outcome(text) == expected


def test_generated_graph_round_trips_on_the_fast_path(monkeypatch):
    monkeypatch.setattr(formats, "_scan_pairs", None)
    g = generate(RandomGraphSpec(model="preferential_attachment", n=2000,
                                 m_attach=3, seed=4))
    assert parse_edge_list(emit_edge_list(g)) == g


@pytest.mark.parametrize("text, ids, directed", [
    ("1_0 2\n", [2, 10], False),
    ("٣ 1\n", [1, 3], False),
    ("directed\n9223372036854775808 0\n", [0, 2 ** 63], True),
    ("-0 1\n", [0, 1], False),
])
def test_edge_lists_for_the_line_scan_parse(text, ids, directed):
    g, got = parse_edge_list_with_map(text)
    assert got == ids
    assert g.directed == directed
    assert g.edge_count == 1


@pytest.mark.parametrize("text, message", [
    ("", "edge list contains no edges"),
    ("directed\n# nothing else\n", "edge list contains no edges"),
    ("0 1\ndirected\n", "line 2: expected two node ids, got 1 tokens"),
    ("directed\n\n0 1\n1 1\n", "line 4: self-loop (1, 1)"),
    ("0 1\n-1 2\n", "line 2: node id -1 out of range 0..inf"),
    ("0 1\r\n1 2 3\r\n", "line 2: expected two node ids, got 3 tokens"),
    ("0 1\n\n5\n", "line 3: expected two node ids, got 1 tokens"),
    ("0 1\n1.0 2\n", "line 2: node ids must be integers, got '1.0' '2'"),
    ("0 1\n1e1 2\n", "line 2: node ids must be integers, got '1e1' '2'"),
])
def test_rejected_edge_lines_name_their_line(text, message):
    with pytest.raises(InputError) as info:
        parse_edge_list(text)
    assert str(info.value).startswith(message)
