import json
import re
import time

import numpy as np
import pytest

from paradoxlab import adjacency_matvec, cli
from paradoxlab.cli import main
from paradoxlab.errors import (ConvergenceError, GenerationError, InputError,
                               NumericalError, ParadoxLabError,
                               ParameterError, PreconditionError, RangeError,
                               UsageError)
from conftest import edge_pairs, grid, path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_edge_list(capsys, tmp_path):
    code, out, err = run_cli(capsys, "gen", "--model", "path", "--n", "4")
    assert code == 0
    assert out == "0 1\n1 2\n2 3\n"

    target = tmp_path / "ring.txt"
    code, out, _ = run_cli(capsys, "gen", "--model", "cycle", "--n", "3",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "0 1\n0 2\n1 2\n"


def test_gen_matrix_market(capsys):
    code, out, _ = run_cli(capsys, "gen", "--model", "path", "--n", "3",
                           "--file-format", "matrix_market")
    assert code == 0
    assert out.splitlines()[0] == \
        "%%MatrixMarket matrix coordinate pattern symmetric"


def test_paradox_degree_on_p6_file(capsys, tmp_path):
    graph_file = tmp_path / "p6.txt"
    graph_file.write_text("".join(f"{i} {i+1}\n" for i in range(5)))
    code, out, _ = run_cli(capsys, "paradox", str(graph_file),
                           "--measure", "degree")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph_meta"] == {"n": 6, "m": 5, "directed": False,
                                     "regular": False}
    assert payload["stats"]["mu"] == pytest.approx(10 / 6)
    assert payload["stats"]["mu_bar"] == pytest.approx(11 / 6)
    assert payload["stats"]["mu_tilde"] == pytest.approx(1.8)
    assert payload["stats"]["paradox_holds"] is True
    assert len(payload["node_table"]) == 6
    assert payload["node_table"][0] == {"id": 0, "degree": 1, "r": 1.0,
                                        "neighbor_avg": 2.0, "delta": 1.0}


def test_paradox_eigenvector_on_cycle_is_regular(capsys, tmp_path):
    graph_file = tmp_path / "c5.txt"
    graph_file.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    code, out, _ = run_cli(capsys, "paradox", str(graph_file),
                           "--measure", "eigenvector")
    assert code == 0
    payload = json.loads(out)
    assert payload["graph_meta"]["regular"] is True
    assert abs(payload["stats"]["slack"]) <= 1e-10
    assert payload["stats"]["paradox_holds"] is True


def test_centrality_inline_model_and_csv(capsys):
    code, out, _ = run_cli(capsys, "centrality", "--model", "star", "--n",
                           "5", "--measure", "eigenvector", "--format",
                           "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "id,degree,r,neighbor_avg,delta"
    assert len(lines) == 6


def test_compare_emits_decomposition(capsys):
    code, out, _ = run_cli(capsys, "compare", "--model", "star", "--n", "5",
                           "--measure", "degree")
    assert code == 0
    payload = json.loads(out)
    deco = payload["decomposition"]
    assert deco["lhs"] == pytest.approx(17 / 5 - 5 / 2)
    assert deco["lhs"] == pytest.approx(deco["rhs"], abs=1e-12)
    assert len(deco["a"]) == 5


def test_bias_reports_summary(capsys):
    code, out, _ = run_cli(capsys, "bias", "--model", "erdos_renyi", "--n",
                           "20", "--p", "0.2", "--graphs", "10",
                           "--measure", "degree", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    summary = payload["bias_summary"]
    assert summary["n_graphs"] == 10
    assert summary["mean"] > 0
    assert 0 <= summary["fraction_negative"] < 1
    assert sum(bin_[2] for bin_ in summary["histogram"]) == \
        summary["total_samples"]
    assert payload["seed"] == 7
    assert payload["graph_meta"]["model"] == "erdos_renyi"


def test_identities_bundle(capsys, tmp_path):
    graph_file = tmp_path / "p6.txt"
    graph_file.write_text("".join(f"{i} {i+1}\n" for i in range(5)))
    code, out, err = run_cli(capsys, "identities", str(graph_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetrization"]["lhs"] == pytest.approx(1.0)
    assert payload["symmetrization"]["rhs"] == pytest.approx(1.0)
    assert payload["harmonic_mean"]["lhs"] > payload["harmonic_mean"]["rhs"]
    assert payload["eaves"] == {"ell": 2, "lhs": 19.0, "rhs": 18.0}
    assert payload["pagerank_check"]["lhs"] >= \
        payload["pagerank_check"]["rhs"] - 1e-10
    assert payload["fiedler"]["violations"] == 0
    assert "bidirected" in err


def test_identities_on_directed_graph(capsys, tmp_path):
    graph_file = tmp_path / "ring.txt"
    graph_file.write_text("directed\n0 1\n1 2\n2 0\n")
    code, out, err = run_cli(capsys, "identities", str(graph_file))
    assert code == 0
    payload = json.loads(out)
    assert "symmetrization" not in payload
    assert "pagerank_check" in payload
    assert "skipping the undirected-only" in err


def test_identities_run_eaves_at_every_size(capsys):
    for n in (500, 600):
        code, out, err = run_cli(capsys, "identities", "--model", "cycle",
                                 "--n", str(n))
        assert code == 0
        payload = json.loads(out)
        assert payload["eaves"] == {"ell": 2, "lhs": 4.0 * n, "rhs": 4.0 * n}
        assert {"symmetrization", "harmonic_mean", "pagerank_check"} <= \
            payload.keys()
        assert "walk-matrix" not in err


@pytest.mark.parametrize("option, source", [
    ("--trials", ("--model", "path", "--n", "6")),
    # Above 16 nodes the bilinear bound, which takes --trials, is skipped.
    ("--trials", ("--model", "path", "--n", "30")),
    ("--ell", ("--model", "path", "--n", "6")),
    # On a digraph the walk-matrix check, which takes --ell, is skipped.
    ("--ell", ("ring.txt",)),
], ids=["trials-p6", "trials-p30", "ell-p6", "ell-digraph"])
def test_identities_reject_bad_options_before_any_check(
        capsys, tmp_path, monkeypatch, option, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ring.txt").write_text("directed\n0 1\n1 2\n2 0\n")
    name = option.lstrip("-")
    assert run_cli(capsys, "identities", *source, option, "0") == (
        1, "", f"error: {name} must be an integer of at least 1, got 0\n")


def test_exit_codes(capsys, tmp_path):
    # Usage: missing input source.
    code, _, err = run_cli(capsys, "paradox", "--measure", "degree")
    assert code == 1 and "error:" in err

    # Usage: both file and model.
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("0 1\n")
    code, _, _ = run_cli(capsys, "paradox", str(graph_file), "--model",
                         "path", "--n", "3", "--measure", "degree")
    assert code == 1

    # Parameter: bad beta.
    code, _, _ = run_cli(capsys, "paradox", str(graph_file), "--measure",
                         "pagerank", "--beta", "1.5")
    assert code == 1

    # Input: malformed file.
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "paradox", str(bad_file), "--measure",
                           "degree")
    assert code == 2 and "line 1" in err

    # Input: missing file.
    code, _, _ = run_cli(capsys, "paradox", str(tmp_path / "nope.txt"),
                         "--measure", "degree")
    assert code == 2

    # Usage: an operation defined for undirected graphs, on a digraph.
    ring = tmp_path / "ring.txt"
    ring.write_text("directed\n0 1\n1 2\n2 0\n0 2\n")
    for measure, what in (("degree", "degree centrality"),
                          ("pagerank", "the comparison decomposition")):
        assert run_cli(capsys, "compare", str(ring), "--measure", measure) \
            == (1, "", f"error: {what} is defined for undirected graphs\n")

    # Precondition: disconnected graph.
    disc = tmp_path / "disc.txt"
    disc.write_text("0 1\n2 3\n")
    code, _, _ = run_cli(capsys, "paradox", str(disc), "--measure", "degree")
    assert code == 2

    # Convergence budget (a star is non-regular, so the uniform start is
    # not already the fixed point).
    star_file = tmp_path / "star.txt"
    star_file.write_text("0 1\n0 2\n0 3\n")
    code, _, err = run_cli(capsys, "paradox", str(star_file), "--measure",
                           "pagerank", "--tol", "1e-30", "--max-iters", "3")
    assert code == 3 and "residual" in err


@pytest.mark.parametrize("measure", [
    ("pagerank", "--beta", "0.15", "--tol", "1e-16"),
    ("eigenvector", "--tol", "1e-17"),
])
def test_a_tol_below_rounding_stops_where_the_iterates_repeat(capsys,
                                                              measure):
    # Both loops repeat an iterate short of tol; they spun out the default
    # budget here, exit 3 after 100,000 steps and about 2 s.
    code, out, err = run_cli(capsys, "paradox", "--model", "erdos_renyi",
                             "--n", "40", "--p", "0.1", "--seed", "3",
                             "--measure", *measure)
    assert (code, out) == (3, "")
    stop = re.search(r"repeat with period (\d+) \(residual \S+ after "
                     r"(\d+) iterations\)\n$", err)
    assert stop and int(stop[1]) >= 1 and int(stop[2]) < 1000


@pytest.mark.parametrize("text", [
    "0 1\n1 2\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n",
])
def test_a_byte_order_mark_is_skipped(capsys, tmp_path, text):
    # A leading U+FEFF hid the Matrix Market banner, and an edge list
    # exited 2 on its first node id.
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_cli(capsys, "paradox", str(plain), "--measure", "degree")
    assert expected[0] == 0
    assert run_cli(capsys, "paradox", str(marked), "--measure",
                   "degree") == expected


def test_unreadable_text_is_an_input_error(capsys, tmp_path):
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"0 1\n# caf\xe9\n")
    code, out, err = run_cli(capsys, "paradox", str(latin), "--measure",
                             "degree")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {latin}: ")


@pytest.mark.parametrize("size, entries, message", [
    ("9223372036854775808 9223372036854775808 1", "1 2\n",
     "9223372036854775808 nodes and 2 stored arcs"),
    ("4000000000 4000000000 0", "", "4000000000 nodes and 0 stored arcs"),
])
def test_an_oversized_matrix_market_file_exits_2(capsys, tmp_path, size,
                                                  entries, message):
    # One past int64 and one of 29.8 GiB of degrees: an error line, no
    # traceback.
    graph = tmp_path / "huge.mtx"
    graph.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                     f"{size}\n{entries}")
    assert run_cli(capsys, "paradox", str(graph), "--measure", "degree") == (
        2, "", f"error: line 2: {message} exceed the limit of 2147483647\n")


def test_an_oversized_spec_exits_1_before_drawing(capsys):
    assert run_cli(capsys, "gen", "--model", "complete", "--n", "1000000") == (
        1, "", "error: complete on n=1000000 exceeds the limit of 2147483647 "
        "nodes and stored arcs\n")


@pytest.mark.parametrize("target", ["directory", "no/such/dir/x"])
def test_unwritable_output_exits_2(capsys, tmp_path, target):
    output = tmp_path if target == "directory" else tmp_path / target
    code, out, err = run_cli(capsys, "gen", "--model", "path", "--n", "3",
                             "--output", str(output))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {output}: ")


@pytest.mark.parametrize("argv, message", [
    (("gen", "--model", "configuration", "--degree-sequence", "1,x"),
     "--degree-sequence must be comma-separated integers, got '1,x'"),
    (("gen", "--model", "path"), "--n is required when generating a graph"),
    (("gen", "--n", "4"), "gen requires --model"),
    (("bias", "--measure", "degree", "--n", "4"),
     "bias requires --model (an ensemble recipe)"),
])
def test_incomplete_commands_exit_one(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


# The exit code documented for each error class.
EXIT_CODES = {UsageError: 1, ParameterError: 1, InputError: 2,
              PreconditionError: 2, RangeError: 2, GenerationError: 2,
              NumericalError: 2, ConvergenceError: 3}


def test_every_error_class_maps_to_its_exit_code(capsys, monkeypatch):
    assert set(ParadoxLabError.__subclasses__()) == set(EXIT_CODES)
    raised = []

    def handler(args):
        raise raised[-1]

    monkeypatch.setattr(cli, "_cmd_gen", handler)
    cases = [(cls("boom"), code) for cls, code in EXIT_CODES.items()]
    cases.append((ParadoxLabError("boom"), 2))
    for error, code in cases:
        raised.append(error)
        assert run_cli(capsys, "gen") == (code, "", "error: boom\n")
    raised.append(ConvergenceError("boom", residual=1.23456e-7,
                                   iterations=40))
    assert run_cli(capsys, "gen") == (
        3, "", "error: boom (residual 1.235e-07 after 40 iterations)\n")


def test_one_node_file_names_the_zero_degree_condition(capsys, tmp_path):
    one = tmp_path / "one.mtx"
    one.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                   "1 1 0\n")
    code, out, err = run_cli(capsys, "paradox", str(one), "--measure",
                             "degree")
    assert (code, out) == (2, "")
    assert err == ("error: node 0 has zero degree: degree-normalised "
                   "operations need every node to have a neighbour\n")


def test_blank_lines_before_the_banner_still_read_as_matrix_market(
        capsys, tmp_path):
    text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1\n3 2\n")
    plain, padded = tmp_path / "plain.mtx", tmp_path / "padded.mtx"
    plain.write_text(text)
    padded.write_text("\n  \n" + text)
    expected = run_cli(capsys, "paradox", str(plain), "--measure", "degree")
    assert expected[0] == 0
    assert run_cli(capsys, "paradox", str(padded), "--measure",
                   "degree") == expected


def test_argparse_usage_maps_to_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["gen", "--help"]) == 0


def test_katz_alpha_defaults_to_safe_fraction(capsys):
    code, out, _ = run_cli(capsys, "centrality", "--model", "cycle", "--n",
                           "6", "--measure", "katz")
    assert code == 0
    payload = json.loads(out)
    # lambda1 = 2 on a cycle, so the default alpha is 0.425.
    assert payload["measure"]["alpha"] == pytest.approx(0.425)


def test_non_finite_knobs_exit_one_at_once(capsys):
    path6 = ("centrality", "--model", "path", "--n", "6")
    for knobs in (("--measure", "katz", "--alpha", "nan"),
                  ("--measure", "katz", "--alpha", "inf"),
                  ("--measure", "katz", "--tol", "nan"),
                  ("--measure", "katz", "--alpha", "0.2", "--tol", "inf"),
                  ("--measure", "katz", "--alpha", "0.2", "--tol", "1"),
                  ("--measure", "eigenvector", "--tol", "nan"),
                  ("--measure", "pagerank", "--tol", "inf")):
        code, out, err = run_cli(capsys, *path6, *knobs)
        assert code == 1 and out == ""
        assert err.startswith("error:")


def test_katz_on_one_node_file_exits_two(capsys, tmp_path):
    one = tmp_path / "one.mtx"
    one.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                   "1 1 0\n")
    # The default 0.85 / lambda1 cannot be formed when lambda1 is 0.
    code, out, err = run_cli(capsys, "paradox", str(one), "--measure", "katz")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--alpha" in err
    # With an alpha, Katz is defined and the zero degree stops the report,
    # as it does for every other measure.
    for measure in (("katz", "--alpha", "0.1"), ("degree",)):
        code, out, err = run_cli(capsys, "paradox", str(one), "--measure",
                                 *measure)
        assert code == 2 and out == ""
        assert err.startswith("error: node 0 has zero degree")


def test_pagerank_promotion_notice(capsys):
    code, _, err = run_cli(capsys, "centrality", "--model", "cycle", "--n",
                           "5", "--measure", "pagerank")
    assert code == 0
    assert "bidirected" in err


def test_walk_measure_uses_ell(capsys):
    code, out, _ = run_cli(capsys, "centrality", "--model", "path", "--n",
                           "4", "--measure", "walk_count", "--ell", "2")
    assert code == 0
    payload = json.loads(out)
    assert [row["r"] for row in payload["node_table"]] == [2.0, 3.0, 3.0, 2.0]
    assert payload["measure"]["ell"] == 2


def test_identical_invocations_are_byte_identical(capsys):
    args = ("bias", "--model", "erdos_renyi", "--n", "15", "--p", "0.2",
            "--graphs", "5", "--measure", "degree", "--seed", "3")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_katz_alpha_near_float_limit_prints_only_the_error(capsys):
    code, out, err = run_cli(capsys, "centrality", "--model", "complete",
                             "--n", "3", "--measure", "katz",
                             "--alpha", "1e308")
    assert code == 1 and out == ""
    assert err == ("error: alpha=1e+308 too large: alpha * lambda1 must "
                   "stay below 1 but is >= inf\n")


def test_eigenvector_on_long_path_converges(capsys):
    code, out, err = run_cli(capsys, "centrality", "--model", "path", "--n",
                             "1000", "--measure", "eigenvector")
    assert code == 0 and err == ""
    r = np.array([row["r"] for row in json.loads(out)["node_table"]])
    sine = np.sin(np.arange(1, 1001) * np.pi / 1001)
    np.testing.assert_allclose(r, sine / sine.sum(), rtol=0, atol=1e-9)


def test_eigenvector_on_a_path_of_10000_nodes_converges(capsys):
    # Shift-invert takes a handful of solves; Lanczos and then power
    # iteration ran out of the default budget here, exit 3 after 34 s.
    began = time.perf_counter()
    code, out, err = run_cli(capsys, "paradox", "--model", "path", "--n",
                             "10000", "--measure", "eigenvector")
    assert time.perf_counter() - began < 30
    assert code == 0 and err == ""
    doc = json.loads(out)
    r = np.array([row["r"] for row in doc["node_table"]])
    image = adjacency_matvec(path(10000), r)
    estimate = (r @ image) / (r @ r)
    assert np.abs(image - estimate * r).max() <= doc["measure"]["tol"]


def test_pagerank_on_a_long_path_with_a_tiny_teleport_converges(capsys):
    # One banded solve; the power loop, which contracts by only 1 - beta
    # per step on a path, ran out of the default budget here, exit 3
    # after 4.4 s.
    code, out, err = run_cli(capsys, "paradox", "--model", "path", "--n",
                             "1000", "--measure", "pagerank", "--beta",
                             "1e-6")
    assert code == 0
    doc = json.loads(out)
    r = np.array([row["r"] for row in doc["node_table"]])
    g = path(1000)
    image = (1 - 1e-6) * adjacency_matvec(g, r / g.degree_seq) + 1e-6 / 1000
    assert np.abs(image - r).sum() <= 1e-12


@pytest.mark.parametrize("n", [150, 255])
def test_pagerank_on_a_short_path_with_a_tiny_teleport_converges(capsys, n):
    # At beta = 1e-6 the power loop is not sure to finish within its
    # budget, so conjugate gradients give the start below
    # LANCZOS_MIN_NODES too; from the uniform vector P_150 and P_255 exited
    # 3 after 100,000 steps, with residuals 3.4e-12 and 7.1e-3.
    code, out, err = run_cli(capsys, "paradox", "--model", "path", "--n",
                             str(n), "--measure", "pagerank", "--beta",
                             "1e-6")
    assert code == 0
    doc = json.loads(out)
    r = np.array([row["r"] for row in doc["node_table"]])
    g = path(n)
    image = (1 - 1e-6) * adjacency_matvec(g, r / g.degree_seq) + 1e-6 / n
    assert np.abs(image - r).sum() <= 1e-12


def test_pagerank_on_a_grid_strip_with_a_tiny_teleport_converges(
        capsys, tmp_path):
    # _banded rejects the 10 x 300 strip, and the power loop from the
    # uniform vector exited 3 after 100,000 steps; conjugate gradients now
    # give its start.
    g = grid(10, 300)
    source = tmp_path / "strip.txt"
    source.write_text("".join(f"{i} {j}\n" for i, j in edge_pairs(g)))
    code, out, err = run_cli(capsys, "paradox", str(source), "--measure",
                             "pagerank", "--beta", "1e-6")
    assert code == 0
    doc = json.loads(out)
    r = np.array([row["r"] for row in doc["node_table"]])
    image = (1 - 1e-6) * adjacency_matvec(g, r / g.degree_seq) + 1e-6 / 3000
    assert np.abs(image - r).sum() <= 1e-12
