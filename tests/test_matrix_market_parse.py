"""The numpy fast path of ``parse_matrix_market`` against its line scan.

The fast path reads the entry lines as one int64 array and hands any file
it cannot vouch for to the per-line scan that both graph formats share,
which names the faulty line.  The two must agree on every file: same
graph, or same error.
"""

import random
import warnings

import pytest

from paradoxlab import (InputError, RandomGraphSpec, emit_matrix_market,
                        formats, generate, parse_matrix_market)
from conftest import edge_pairs

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
    return "graph", g.node_count, g.directed, edge_pairs(g)


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
    monkeypatch.setattr(formats, "_int_pairs", formats._scan_pairs)
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

    monkeypatch.setattr(formats, "_scan_pairs", refuse)
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n" + body
    g = parse_matrix_market(text)
    assert g.node_count == 3


def test_generated_graph_round_trips_on_the_fast_path(monkeypatch):
    monkeypatch.setattr(formats, "_scan_pairs", None)
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
    assert edge_pairs(parse_matrix_market(text)) == edges


def test_blank_entry_lines_read_without_a_warning():
    text = "%%MatrixMarket matrix coordinate pattern general\n3 3 0\n  \n\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parse_matrix_market(text).edge_count == 0
    assert caught == []


@pytest.mark.parametrize("body, message", [
    ("3 3 2\n1 2\n3 3\n", "line 4: self-loop (3, 3) is not allowed"),
    ("3 3 2\n1 2\n0 3\n", "line 4: node id 0 out of range 1..3"),
    ("3 3 2\n1 2\n9223372036854775808 1\n",
     "line 4: node id 9223372036854775808 out of range 1..3"),
    ("3 3 2\n1 2 3\n2\n", "line 3: expected two node ids, got 3 tokens"),
    ("3 3 2\n12\n2 3\n", "line 3: expected two node ids, got 1 tokens"),
    ("3 3 1\n1 2\n2 3\n", "expected 1 entries, found 2"),
    ("3 3 2\n1 2 2 3\n", "line 3: expected two node ids, got 4 tokens"),
    ("3 3 1\n1 2 2 3\n", "line 3: expected two node ids, got 4 tokens"),
    ("3 3 2\n1\n2 3 1\n", "line 3: expected two node ids, got 1 tokens"),
    ("3 3 1\n1.0 2\n", "line 3: node ids must be integers, got '1.0' '2'"),
    ("3 3 1\n1e3 2\n", "line 3: node ids must be integers, got '1e3' '2'"),
    ("", "missing Matrix Market size line"),
    ("% only a comment\n\n", "missing Matrix Market size line"),
    ("3 3\n", "line 2: size line must hold rows, columns and entry count"),
    ("3 3 2 1\n",
     "line 2: size line must hold rows, columns and entry count"),
    ("3 3 x\n", "line 2: size line must be integer"),
])
def test_rejected_entries_name_their_line(body, message):
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n" + body
    with pytest.raises(InputError) as info:
        parse_matrix_market(text)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("banner", [
    "%%MatrixMarket matrix coordinate pattern",
    "%%MatrixMarket matrix coordinate pattern symmetric extra",
    "%%MatrixMarket vector coordinate pattern general",
])
def test_banner_needs_five_tokens_naming_a_matrix(banner):
    with pytest.raises(InputError) as info:
        parse_matrix_market(banner + "\n3 3 0\n")
    assert str(info.value) == f"unsupported banner {banner!r}"


def test_comment_lines_among_entries_stay_on_the_fast_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the line scan ran on a commented file")

    head = "%%MatrixMarket matrix coordinate pattern general\n4 4 3\n"
    plain = parse_matrix_market(head + "1 2\n2 3\n3 4\n")
    monkeypatch.setattr(formats, "_scan_pairs", refuse)
    commented = head + "1 2\n% a note\n2 3\n  %\n3 4\n% last\n"
    assert parse_matrix_market(commented) == plain


@pytest.mark.parametrize("scan", [False, True])
def test_trailing_notes_on_the_size_and_entry_lines_are_accepted(
        monkeypatch, scan):
    if scan:
        monkeypatch.setattr(formats, "_int_pairs", formats._scan_pairs)
    else:
        monkeypatch.setattr(formats, "_scan_pairs", None)
    text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2 % rows, columns, entries\n1 2 % first\n2 3\t%second\n")
    assert edge_pairs(parse_matrix_market(text)) == [(0, 1), (1, 2)]


def test_a_bad_line_is_reported_before_a_wrong_count():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 5\n" \
        "1 2\n2 x\n"
    with pytest.raises(InputError) as info:
        parse_matrix_market(text)
    assert str(info.value) == "line 4: node ids must be integers, got '2' 'x'"
