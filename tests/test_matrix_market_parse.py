"""The numpy fast path of ``parse_matrix_market`` against its line scan.

The fast path reads the entry lines as one int64 array and hands any file
it cannot vouch for to the per-line scan, which names the faulty line.  The
two must agree on every file: same graph, or same error.
"""

import random
import warnings

import pytest

from paradoxlab import (InputError, RandomGraphSpec, emit_matrix_market,
                        formats, generate, parse_matrix_market)

TOKENS = ["1", "2", "3", "4", "0", "5", "+1", "-2", "01", "x", "%", "% c",
          "٣", "1.0", "9223372036854775808", "00000000000000000003",
          "", " ", "\t", "\x1f"]
SEPARATORS = ["\n", "\n", "\n", "\r\n", "\n\n", "\r", "\x0b", "\n   \n",
              "\n% comment\n"]


def _outcome(text):
    try:
        g = parse_matrix_market(text)
    except InputError as exc:
        return "error", str(exc)
    return "graph", g.node_count, g.directed, g.edge_pairs()


def _random_file(rng):
    n = rng.choice([rng.randint(1, 5), rng.randint(1, 300)])
    lines = []
    for _ in range(rng.randint(0, 12)):
        a, b = rng.randint(1, n), rng.randint(1, n)
        line = f"{a} {b}"
        roll = rng.random()
        if roll < 0.15:
            line = (rng.choice(TOKENS) + rng.choice([" ", "  ", "\t"])
                    + rng.choice(TOKENS))
        elif roll < 0.2:
            line += " " + rng.choice(TOKENS)
        elif roll < 0.25:
            line += f" {rng.randint(1, n)} {rng.randint(1, n)}"
        elif roll < 0.35:
            line = rng.choice(TOKENS)
        lines.append(line)
    nnz = len(lines) + rng.choice([0, 0, 0, 0, -1, 1])
    symmetry = rng.choice(["symmetric", "general"])
    text = f"%%MatrixMarket matrix coordinate pattern {symmetry}\n{n} {n} {nnz}"
    for line in lines:
        text += rng.choice(SEPARATORS) + line
    return text + rng.choice(["", "\n"])


def test_fast_path_agrees_with_the_line_scan(monkeypatch):
    rng = random.Random(2024)
    texts = [_random_file(rng) for _ in range(3000)]
    fast = [_outcome(text) for text in texts]
    monkeypatch.setattr(formats, "_entry_array", lambda entries, rows: None)
    scanned = [_outcome(text) for text in texts]
    assert fast == scanned
    # Both paths were exercised: some files parse, some fail.
    assert {outcome[0] for outcome in fast} == {"graph", "error"}


@pytest.mark.parametrize("body", [
    "3 3 0\n", "3 3 0", "3 3 2\n1 2\n2 3", "3 3 2\n\n1 2\n\n2 3\n\n",
    "3 3 2\n 1  2 \n2 3\n", "3 3 2\n1 2\n2 3\n",
])
def test_plain_files_skip_the_line_scan(monkeypatch, body):
    def refuse(*args):
        raise AssertionError("the line scan ran on a plain file")

    monkeypatch.setattr(formats, "_scan_entries", refuse)
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n" + body
    g = parse_matrix_market(text)
    assert g.node_count == 3


def test_generated_graph_round_trips_on_the_fast_path(monkeypatch):
    monkeypatch.setattr(formats, "_scan_entries", None)
    g = generate(RandomGraphSpec(model="preferential_attachment", n=2000,
                                 m_attach=3, seed=4))
    assert parse_matrix_market(emit_matrix_market(g)) == g


@pytest.mark.parametrize("body, edges", [
    ("3 3 0\n  \n", []),
    ("3 3 1\n\t1 3\n", [(0, 2)]),
    ("3 3 1\n00000000000000000000002 3\n", [(1, 2)]),
])
def test_files_for_the_line_scan_parse(body, edges):
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n" + body
    assert parse_matrix_market(text).edge_pairs() == edges


def test_blank_entry_lines_read_without_a_warning():
    text = "%%MatrixMarket matrix coordinate pattern general\n3 3 0\n  \n\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_matrix_market(text).edge_count == 0
    assert caught == []


@pytest.mark.parametrize("body, message", [
    ("3 3 2\n1 2\n3 3\n", "line 4: diagonal entry (3, 3)"),
    ("3 3 2\n1 2\n0 3\n", "line 4: entry (0, 3) out of range"),
    ("3 3 2\n1 2\n9223372036854775808 1\n",
     "line 4: entry (9223372036854775808, 1) out of range"),
    ("3 3 2\n1 2 3\n2\n", "line 3: pattern entries need exactly two"),
    ("3 3 2\n12\n2 3\n", "line 3: pattern entries need exactly two"),
    ("3 3 1\n1 2\n2 3\n", "expected 1 entries, found 2"),
    ("3 3 2\n1 2 2 3\n", "expected 2 entries, found 1"),
    ("3 3 1\n1 2 2 3\n", "line 3: pattern entries need exactly two"),
    ("3 3 2\n1\n2 3 1\n", "line 3: pattern entries need exactly two"),
    ("3 3 1\n1.0 2\n", "line 3: entry indices must be integers"),
    ("3 3 1\n1e3 2\n", "line 3: entry indices must be integers"),
])
def test_rejected_entries_name_their_line(body, message):
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n" + body
    with pytest.raises(InputError) as info:
        parse_matrix_market(text)
    assert str(info.value).startswith(message)
