"""Command-line surface tests: subcommand behavior, exit codes, file
formats with comment-tolerant parsing, determinism, and thread-count
independence.  Everything runs in-process through main(argv), except one
test of ``python -m extrakit`` and one of the installed console script.
"""

import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from extrakit import (
    BitString,
    Dist,
    FormatError,
    build_code,
    code_encode,
    trevisan_build,
    trevisan_eval,
    verify_design,
)
from extrakit import cli
from extrakit.cli import main, parse_eps, parse_formats
from extrakit.dist import write_dist
from extrakit.graph import BipartiteGraph, write_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lines(path, text):
    path.write_text(text)
    return str(path)


def graph_file(tmp_path, G, name="g.txt"):
    buf = io.StringIO()
    write_graph(G, buf)
    return write_lines(tmp_path / name, buf.getvalue())


def pass_through_graph(N, M):
    return BipartiteGraph(N, M, M, np.tile(np.arange(M, dtype=np.int64), (N, 1)))


def zero_graph(N, M, D):
    return BipartiteGraph(N, M, D, np.zeros((N, D), dtype=np.int64))


# ---------------------------------------------------------------------------
# verify-graph


def test_verify_pass_through_extractor_passes(capsys, tmp_path):
    path = graph_file(tmp_path, pass_through_graph(8, 8))
    code, out, _ = run(capsys, "verify-graph", "--kind", "extractor",
                       "--graph", path, "--k", "3", "--eps", "1/4")
    assert code == 0
    assert out.startswith("# subcommand=verify-graph")
    assert "verdict=pass" in out


def test_verify_all_edges_to_zero_fails_with_witness(capsys, tmp_path):
    path = graph_file(tmp_path, zero_graph(4, 4, 2))
    code, out, _ = run(capsys, "verify-graph", "--kind", "extractor",
                       "--graph", path, "--k", "2", "--eps", "1/4")
    assert code == 1
    assert "verdict=fail" in out
    assert "witness B={0} A={0,1}" in out


def test_verify_disperser_and_prefix_kinds(capsys, tmp_path):
    path = graph_file(tmp_path, pass_through_graph(8, 8))
    code, out, _ = run(capsys, "verify-graph", "--kind", "disperser",
                       "--graph", path, "--k", "2", "--eps", "1/4")
    assert code == 0 and "verdict=pass" in out
    # prefix: --k is in bits here (K = 2^k per level)
    code, out, _ = run(capsys, "verify-graph", "--kind", "prefix",
                       "--graph", path, "--k", "2", "--eps", "1/4")
    assert code == 0 and "verdict=pass" in out
    zpath = graph_file(tmp_path, zero_graph(8, 8, 2), "z.txt")
    code, out, _ = run(capsys, "verify-graph", "--kind", "prefix",
                       "--graph", zpath, "--k", "1", "--eps", "1/4")
    assert code == 1 and "witness drop=" in out


def test_verify_thread_count_does_not_change_output(capsys, tmp_path):
    def body(out):  # drop the echo header, which includes the thread count
        return [l for l in out.splitlines() if not l.startswith("#")]

    fail = graph_file(tmp_path, zero_graph(4, 4, 2), "fail.txt")
    ok = graph_file(tmp_path, pass_through_graph(8, 8), "ok.txt")
    for path, want in ((fail, 1), (ok, 0)):
        results = []
        for threads in ("1", "4"):
            code, out, _ = run(capsys, "verify-graph", "--kind", "extractor",
                               "--graph", path, "--k", "2", "--eps", "1/4",
                               "--threads", threads)
            assert code == want
            results.append(body(out))
        assert results[0] == results[1]


def test_verify_budget_is_a_hard_error(capsys, tmp_path):
    path = graph_file(tmp_path, pass_through_graph(8, 8))
    code, out, err = run(capsys, "verify-graph", "--kind", "extractor",
                         "--graph", path, "--k", "2", "--eps", "1/4",
                         "--max-subsets", "4")
    assert code == 2
    assert "budget" in err
    code, _, err = run(capsys, "verify-graph", "--kind", "extractor",
                       "--graph", path, "--k", "2", "--eps", "1/4",
                       "--max-subsets", "4", "--threads", "3")
    assert code == 2 and "budget" in err


def test_disperser_budget_past_the_int_to_str_limit_exits_2(capsys, tmp_path):
    # C(65537, 16385) right sets: too many digits for str(), so the
    # refusal names a power of two below the count
    path = write_lines(tmp_path / "g.txt", "2 65537 1\n0\n1\n")
    code, out, err = run(capsys, "verify-graph", "--kind", "disperser",
                         "--graph", path, "--k", "1", "--eps", "1/4")
    assert code == 2
    assert out.startswith("# subcommand=verify-graph kind=disperser N=2 M=65537 D=1")
    assert err == "error: C(65537,16385) >= 2^53161 subsets exceed budget 1048576\n"


def test_eps_must_be_rational(capsys, tmp_path):
    path = graph_file(tmp_path, pass_through_graph(4, 4))
    code, _, _ = run(capsys, "verify-graph", "--kind", "extractor",
                     "--graph", path, "--k", "2", "--eps", "0.25")
    assert code == 2
    assert parse_eps("3/8") == Fraction(3, 8)
    with pytest.raises(Exception):
        parse_eps("1/0")


# ---------------------------------------------------------------------------
# extract


def test_extract_hash_zero_source_is_seed_then_zeros(capsys, tmp_path):
    source = write_lines(tmp_path / "x.txt", "6:00\n")
    seed = BitString(7, 0b1011010)
    seed_path = write_lines(tmp_path / "y.txt", seed.to_text() + "\n")
    code, out, _ = run(capsys, "extract", "--method", "hash",
                       "--source-file", source, "--seed-file", seed_path)
    assert code == 0
    assert out.startswith("# subcommand=extract method=hash")
    assert out.splitlines()[-1] == "9:b40"  # seed || 0^l, l = 2


def test_extract_hash_l_consistency_check(capsys, tmp_path):
    source = write_lines(tmp_path / "x.txt", "6:00\n")
    seed_path = write_lines(tmp_path / "y.txt", BitString(7, 5).to_text() + "\n")
    code, _, err = run(capsys, "extract", "--method", "hash", "--l", "3",
                       "--source-file", source, "--seed-file", seed_path)
    assert code == 2 and "forces l=2" in err


def test_extract_trevisan_matches_library(capsys, tmp_path):
    params = trevisan_build(19, 19, 1, Fraction(255, 256))
    x = BitString(19, 0b1010011100011100101)
    y = BitString(params.d, 0b110100101011)
    source = write_lines(tmp_path / "x.txt", x.to_text() + "\n")
    seed = write_lines(tmp_path / "y.txt", y.to_text() + "\n")
    code, out, _ = run(capsys, "extract", "--method", "trevisan",
                       "--source-file", source, "--seed-file", seed,
                       "--n", "19", "--k", "19", "--m", "1",
                       "--eps", "255/256")
    assert code == 0
    assert out.splitlines()[-1] == trevisan_eval(params, x, y).to_text()
    assert "d=12" in out and "t=6" in out


def test_extract_trevisan_infeasible_names_inequality(capsys, tmp_path):
    source = write_lines(tmp_path / "x.txt", BitString(16).to_text() + "\n")
    seed = write_lines(tmp_path / "y.txt", BitString(4).to_text() + "\n")
    code, _, err = run(capsys, "extract", "--method", "trevisan",
                       "--source-file", source, "--seed-file", seed,
                       "--n", "16", "--k", "16", "--m", "2", "--eps", "1/2")
    assert code == 2
    assert "k - 3*log2(m/eps) - d - 3 >= m" in err


def test_extract_trevisan_requires_all_parameters(capsys, tmp_path):
    source = write_lines(tmp_path / "x.txt", "4:0\n")
    seed = write_lines(tmp_path / "y.txt", "4:0\n")
    code, _, err = run(capsys, "extract", "--method", "trevisan",
                       "--source-file", source, "--seed-file", seed)
    assert code == 2 and "requires --n" in err


# ---------------------------------------------------------------------------
# gen-design / encode-code / sample-graph


def test_gen_design_output_verifies_and_round_trips(capsys, tmp_path):
    out_path = tmp_path / "design.txt"
    code, out, _ = run(capsys, "gen-design", "--l", "3", "--m", "4",
                       "--out", str(out_path))
    assert code == 0
    assert out.startswith("# subcommand=gen-design")
    family = parse_formats(str(out_path), "design")
    assert (family.l, family.m) == (3, 4)
    assert verify_design(family, "weak", 1).ok  # the verifier is the oracle
    # stdout and file carry identical bytes
    assert out == out_path.read_text()


def test_encode_code_matches_library(capsys, tmp_path):
    word = BitString(4, 0b1011)
    word_path = write_lines(tmp_path / "w.txt", word.to_text() + "\n")
    code, out, _ = run(capsys, "encode-code", "--n", "4", "--delta", "1/4",
                       "--word", word_path)
    assert code == 0
    expected = code_encode(build_code(4, Fraction(1, 4)), word)
    assert out.splitlines()[-1] == expected.to_text()
    assert "t=4" in out and "nbar=256" in out and "poly=0x13" in out


def test_encode_code_refuses_oversized_field(capsys, tmp_path):
    # delta = 1/256 needs 2^t >= 2^15 points: a 2^30-bit codeword
    word_path = write_lines(tmp_path / "w.txt", BitString(1, 1).to_text() + "\n")
    code, out, err = run(capsys, "encode-code", "--n", "1", "--delta", "1/256",
                         "--word", word_path)
    assert code == 2 and out == ""
    assert err == "error: codeword of 2^30 = 1073741824 bits exceeds budget 268435456\n"


def test_sample_graph_deterministic_and_readable(capsys, tmp_path):
    out_path = tmp_path / "g.txt"
    argv = ("sample-graph", "--N", "8", "--M", "4", "--D", "6",
            "--seed", "9", "--out", str(out_path))
    code, first, _ = run(capsys, *argv)
    assert code == 0
    G = parse_formats(str(out_path), "graph")  # header is skipped on read
    assert (G.N, G.M, G.D) == (8, 4, 6)
    code, second, _ = run(capsys, *argv)
    assert code == 0 and first == second  # byte-identical rerun
    # derived-degree form: D computed from (kind, k, eps)
    code, out, _ = run(capsys, "sample-graph", "--N", "16", "--M", "4",
                       "--kind", "extractor", "--k", "4", "--eps", "9/20")
    assert code == 0 and " D=12 " in out.splitlines()[0] + " "


def test_sample_graph_needs_degree_or_theorem_args(capsys):
    code, _, err = run(capsys, "sample-graph", "--N", "8", "--M", "4")
    assert code == 2 and "either --D or" in err


# ---------------------------------------------------------------------------
# existence-trial


def test_existence_trial_reports_pass_fraction(capsys):
    code, out, _ = run(capsys, "existence-trial", "--kind", "extractor",
                       "--N", "16", "--M", "8", "--k", "2", "--eps", "1/5",
                       "--trials", "15", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# subcommand=existence-trial")
    assert "trial=1 seed=1:1 verdict=fail witness=" in out
    assert lines[-1] == "pass_fraction=14/15"


def test_existence_trial_exit_one_when_nothing_passes(capsys):
    code, out, _ = run(capsys, "existence-trial", "--kind", "extractor",
                       "--N", "16", "--M", "8", "--k", "2", "--eps", "1/5",
                       "--trials", "1", "--seed", "377")
    assert code == 1
    assert out.splitlines()[-1] == "pass_fraction=0"


# ---------------------------------------------------------------------------
# pinned transcripts: literal stdout, stderr and exit code


EXISTENCE_TRANSCRIPTS = {
    "extractor": (
        ("--N", "16", "--M", "8", "--k", "2", "--eps", "1/5", "--trials", "4",
         "--seed", "1"),
        "# subcommand=existence-trial kind=extractor N=16 M=8 K=2 eps=1/5 D=77"
        " trials=4 seed=1 max_subsets=1048576\n"
        "trial=0 seed=1:0 verdict=pass\n"
        "trial=1 seed=1:1 verdict=fail witness=((2, 3, 4, 6), (5, 11))\n"
        "trial=2 seed=1:2 verdict=pass\n"
        "trial=3 seed=1:3 verdict=pass\n"
        "pass_fraction=3/4\n",
    ),
    "disperser": (
        ("--N", "32", "--M", "4", "--k", "2", "--eps", "1/4", "--trials", "3",
         "--seed", "0"),
        "# subcommand=existence-trial kind=disperser N=32 M=4 K=2 eps=1/4 D=20"
        " trials=3 seed=0 max_subsets=1048576\n"
        "trial=0 seed=0:0 verdict=pass\n"
        "trial=1 seed=0:1 verdict=pass\n"
        "trial=2 seed=0:2 verdict=fail witness=((27, 30), (0,))\n"
        "pass_fraction=2/3\n",
    ),
    "prefix": (
        ("--N", "4", "--M", "8", "--k", "2", "--eps", "5/16", "--trials", "6",
         "--seed", "0"),
        "# subcommand=existence-trial kind=prefix N=4 M=8 K=2 eps=5/16 D=32"
        " trials=6 seed=0 max_subsets=1048576\n"
        "trial=0 seed=0:0 verdict=pass\n"
        "trial=1 seed=0:1 verdict=pass\n"
        "trial=2 seed=0:2 verdict=pass\n"
        "trial=3 seed=0:3 verdict=pass\n"
        "trial=4 seed=0:4 verdict=pass\n"
        "trial=5 seed=0:5 verdict=fail witness=(1, ((1, 3), (3,)))\n"
        "pass_fraction=5/6\n",
    ),
}


@pytest.mark.parametrize("kind", sorted(EXISTENCE_TRANSCRIPTS))
def test_existence_trial_transcript(capsys, kind):
    argv, want = EXISTENCE_TRANSCRIPTS[kind]
    assert run(capsys, "existence-trial", "--kind", kind, *argv) == (0, want, "")


def test_verify_prefix_transcripts(capsys, tmp_path):
    ok = graph_file(tmp_path, pass_through_graph(8, 8), "ok.txt")
    assert run(capsys, "verify-graph", "--kind", "prefix", "--graph", ok,
               "--k", "2", "--eps", "1/4") == (
        0,
        "# subcommand=verify-graph kind=prefix N=8 M=8 D=8 k=2 eps=1/4"
        " max_subsets=1048576 threads=1\n"
        "verdict=pass\n",
        "",
    )
    fail = graph_file(tmp_path, zero_graph(8, 8, 2), "fail.txt")
    assert run(capsys, "verify-graph", "--kind", "prefix", "--graph", fail,
               "--k", "1", "--eps", "1/4") == (
        1,
        "# subcommand=verify-graph kind=prefix N=8 M=8 D=2 k=1 eps=1/4"
        " max_subsets=1048576 threads=1\n"
        "verdict=fail\n"
        "witness drop=0 B={0} A={0,1}\n",
        "",
    )


@pytest.mark.parametrize("dims, err", [
    ((3, 4, 2), "error: graph (3,4,2) does not match spec (4,4,2)\n"),
    ((4, 4, 3), "error: graph (4,4,3) does not match spec (4,4,4)\n"),
])
def test_verify_prefix_non_power_of_two_transcript(capsys, tmp_path, dims, err):
    N, M, D = dims
    path = graph_file(tmp_path, zero_graph(N, M, D))
    assert run(capsys, "verify-graph", "--kind", "prefix", "--graph", path,
               "--k", "1", "--eps", "1/4") == (
        2,
        f"# subcommand=verify-graph kind=prefix N={N} M={M} D={D} k=1 eps=1/4"
        " max_subsets=1048576 threads=1\n",
        err,
    )


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_existence_trial_needs_a_trial(capsys, trials):
    code, out, err = run(capsys, "existence-trial", "--kind", "extractor",
                         "--N", "16", "--M", "8", "--k", "2", "--eps", "1/5",
                         "--trials", trials)
    assert code == 2
    assert out.startswith("# subcommand=existence-trial") and "verdict" not in out
    assert err == f"error: need at least one trial, got trials={trials}\n"


# ---------------------------------------------------------------------------
# compose-demo


def test_compose_demo_trace_and_determinism(capsys):
    argv = ("compose-demo", "--seed", "3")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    lines = first.splitlines()
    assert lines[0].startswith("# subcommand=compose-demo n=3")
    assert [l.split()[0] for l in lines[1:4]] == ["i=1", "i=2", "i=3"]
    assert lines[1].startswith("i=1 q=") and lines[3].startswith("i=3 q=")
    assert lines[4].startswith("output=")
    code, second, _ = run(capsys, *argv)
    assert code == 0 and first == second


def test_compose_demo_with_explicit_files(capsys, tmp_path):
    source = write_lines(tmp_path / "a.txt", BitString(3, 0b101).to_text() + "\n")
    seed = write_lines(tmp_path / "r.txt", BitString(5, 0b11001).to_text() + "\n")
    code, out, _ = run(capsys, "compose-demo", "--source-file", source,
                       "--seed-file", seed)
    assert code == 0
    assert "source=3:a" in out.splitlines()[0]
    bad = write_lines(tmp_path / "bad.txt", BitString(4).to_text() + "\n")
    code, _, err = run(capsys, "compose-demo", "--source-file", bad)
    assert code == 2 and "3 bits" in err


# ---------------------------------------------------------------------------
# muchnik-demo


MUCHNIK_GRAPH = "4 4 3\n0 0 2\n0 0 3\n0 0 1\n1 2 3\n"


def test_muchnik_demo_full_trace(capsys, tmp_path):
    gpath = write_lines(tmp_path / "g.txt", MUCHNIK_GRAPH)
    spath = write_lines(tmp_path / "s.txt", "0 1 2\n")
    code, out, _ = run(capsys, "muchnik-demo", "--graph", gpath,
                       "--set", spath, "--k", "2", "--eps", "1/4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# subcommand=muchnik-demo")
    assert "K=4" in lines[0]
    # load(0)=6 sits exactly at the threshold 2DK/M=6: not bad (strict)
    assert lines[1] == ("bad_right=0 bad_left_all=0 bound_all=2"
                        " bad_left_majority=0 bound_majority=4")
    assert "A=0 X=0 seed_idx=0 rank=0 decoded=0 ok=1" in lines
    assert "A=1 X=0 seed_idx=0 rank=1 decoded=1 ok=1" in lines
    assert "A=2 X=0 seed_idx=0 rank=2 decoded=2 ok=1" in lines
    assert "chain_sizes=3,0" in out and "chain_covered=1" in out


def test_muchnik_demo_multi_conditions(capsys, tmp_path):
    gpath = write_lines(tmp_path / "g.txt", MUCHNIK_GRAPH)
    spath = write_lines(tmp_path / "s.txt", "0 1 2\n")
    s2path = write_lines(tmp_path / "s2.txt", "3\n")
    code, out, _ = run(capsys, "muchnik-demo", "--graph", gpath,
                       "--set", spath, "--k", "2", "--eps", "1/4",
                       "--multi", s2path, "--k2", "1")
    assert code == 0
    multi_lines = [l for l in out.splitlines() if l.startswith("multi ")]
    assert len(multi_lines) == 3
    for line in multi_lines:
        assert "ok=1" in line and "ok=0" not in line


def test_muchnik_demo_set_size_guard(capsys, tmp_path):
    gpath = write_lines(tmp_path / "g.txt", MUCHNIK_GRAPH)
    spath = write_lines(tmp_path / "s.txt", "0 1 2\n")
    code, _, err = run(capsys, "muchnik-demo", "--graph", gpath,
                       "--set", spath, "--k", "1", "--eps", "1/4")
    assert code == 2 and "bound 2^1" in err


def test_muchnik_demo_bad_vertex_file(capsys, tmp_path):
    gpath = write_lines(tmp_path / "g.txt", MUCHNIK_GRAPH)
    spath = write_lines(tmp_path / "s.txt", "0 x 2\n")
    code, _, err = run(capsys, "muchnik-demo", "--graph", gpath,
                       "--set", spath, "--k", "2", "--eps", "1/4")
    assert code == 2 and "non-integer vertex" in err


# ---------------------------------------------------------------------------
# parse_formats


def test_parse_formats_skips_comments_and_blank_lines(tmp_path):
    path = write_lines(
        tmp_path / "g.txt",
        "# subcommand=sample-graph N=2 M=2 D=1\n\n2 2 1\n0\n\n1\n",
    )
    G = parse_formats(path, "graph")
    assert (G.N, G.M, G.D) == (2, 2, 1)
    assert [int(r[0]) for r in G.adjacency] == [0, 1]


def test_parse_formats_reports_original_line_numbers(tmp_path):
    path = write_lines(tmp_path / "g.txt", "# header\n\n2 2 1\n0\n5\n")
    with pytest.raises(FormatError) as err:
        parse_formats(path, "graph")
    assert err.value.line == 5  # counted in the original file
    assert "g.txt" in str(err.value)


def test_parse_formats_comment_free_file_reports_original_line(tmp_path):
    # no comment and no blank line: the text is read whole, and a bad row
    # still names its line in the file, with the same message
    path = write_lines(tmp_path / "g.txt", "3 2 1\n0\n1\n7\n")
    with pytest.raises(FormatError) as err:
        parse_formats(path, "graph")
    assert err.value.line == 4
    assert str(err.value) == f"line 4: {path}: edge index 7 outside [0, 2)"


@pytest.mark.parametrize("body, line", [
    ("3 2 1\n0\n1\n7\n", 6),          # rows read whole after the header
    ("3 2 1\n0\n# note\n1\n7\n", 7),  # a later comment: rows read line by line
])
def test_parse_formats_headed_file_reports_original_line(tmp_path, body, line):
    # the echo header that sample-graph writes, then a bad row
    path = write_lines(tmp_path / "g.txt", "# subcommand=sample-graph N=3 M=2 D=1\n\n" + body)
    with pytest.raises(FormatError) as err:
        parse_formats(path, "graph")
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {path}: edge index 7 outside [0, 2)"


def test_parse_formats_bits_and_dist(tmp_path):
    path = write_lines(tmp_path / "b.txt", "# n=9\n9:b40\n")
    assert parse_formats(path, "bits") == BitString(9, 0b101101000)
    bad = write_lines(tmp_path / "two.txt", "9:b40 4:a0\n")
    with pytest.raises(FormatError):
        parse_formats(bad, "bits")
    X = Dist(2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0)])
    buf = io.StringIO()
    write_dist(X, buf)
    dpath = write_lines(tmp_path / "d.txt", "# comment\n" + buf.getvalue())
    assert parse_formats(dpath, "dist").probs == X.probs
    with pytest.raises(Exception):
        parse_formats(dpath, "matrix")


@pytest.mark.parametrize("kind, body, line, argv", [
    ("graph", b"2 2 1\n0\n\xc3\xa9\n", 3,
     ("verify-graph", "--kind", "extractor", "--k", "1", "--eps", "1/4", "--graph")),
    ("set", b"# members\r\n0 1\r\n2 \xe9\r\n", 3,
     ("muchnik-demo", "--graph", "G", "--k", "2", "--eps", "1/4", "--set")),
    ("bits", b"\xff3:a\n", 1, ("compose-demo", "--source-file")),
    ("design", b"4 2 1\n0 1\n# \xe9\n", 3, None),
    ("dist", b"1\n1/2\n1/2 \x80\n", 3, None),
])
def test_non_ascii_byte_is_a_format_error_naming_its_line(capsys, tmp_path, kind, body, line, argv):
    # a comment or a later line holding the byte fails the same way
    path = tmp_path / "f.txt"
    path.write_bytes(body)
    read = cli.read_vertex_set if kind == "set" else lambda p: parse_formats(p, kind)
    with pytest.raises(FormatError) as err:
        read(str(path))
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: {path}: non-ASCII byte 0x")
    if argv is not None:
        gpath = write_lines(tmp_path / "g.txt", MUCHNIK_GRAPH)
        code, out, stderr = run(capsys, *(gpath if a == "G" else a for a in argv), str(path))
        assert code == 2 and out == ""
        assert stderr == f"error: {err.value}\n"


# ---------------------------------------------------------------------------
# plumbing


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["verify-graph"]) == 2
    capsys.readouterr()
    code, _, err = run(capsys, "verify-graph", "--kind", "extractor",
                       "--graph", str(tmp_path / "missing.txt"),
                       "--k", "2", "--eps", "1/4")
    assert code == 2 and "missing.txt" in err


def test_repeated_calls_in_one_process_print_the_same_bytes(capsys, tmp_path):
    path = graph_file(tmp_path, zero_graph(4, 4, 2))
    first = ("verify-graph", "--kind", "extractor", "--graph", path,
             "--k", "2", "--eps", "1/4")
    want = run(capsys, *first)
    assert want[0] == 1 and "witness B={0} A={0,1}" in want[1]
    run(capsys, "sample-graph", "--N", "8", "--M", "4", "--D", "6", "--seed", "9")
    run(capsys, "existence-trial", "--kind", "prefix", *EXISTENCE_TRANSCRIPTS["prefix"][0])
    run(capsys, "gen-design", "--l", "4", "--m", "8")
    code, out, err = run(capsys, "verify-graph", "--kind", "extractor", "--graph", path)
    assert code == 2 and out == "" and "required" in err
    assert run(capsys, *first) == want
    assert cli._parser.cache_info().currsize == 1  # one parser served every call


def test_python_m_extrakit_runs_the_cli(tmp_path):
    path = graph_file(tmp_path, pass_through_graph(4, 4))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ("verify-graph", "--kind", "extractor", "--graph", path,
            "--k", "2", "--eps", "1/4")
    proc = subprocess.run([sys.executable, "-m", "extrakit", *argv],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == "verdict=pass"
    proc = subprocess.run([sys.executable, "-m", "extrakit", "verify-graph"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and "required" in proc.stderr


def test_console_script_entry_point(tmp_path):
    G = pass_through_graph(4, 4)
    buf = io.StringIO()
    write_graph(G, buf)
    path = tmp_path / "g.txt"
    path.write_text(buf.getvalue())
    proc = subprocess.run(
        ["extrakit", "verify-graph", "--kind", "extractor",
         "--graph", str(path), "--k", "2", "--eps", "1/4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "verdict=pass" in proc.stdout


@pytest.mark.parametrize("kind", ["extractor", "disperser"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_verify_graph_nonpositive_k_exits_2(capsys, tmp_path, kind, k):
    path = graph_file(tmp_path, pass_through_graph(4, 4))
    code, out, err = run(capsys, "verify-graph", "--kind", kind, "--graph", path,
                         "--k", k, "--eps", "1/4")
    assert code == 2
    assert err == f"error: K={k} outside 1..N for left size N=4\n"
    assert out.startswith("# subcommand=verify-graph") and "verdict" not in out


@pytest.mark.parametrize("members, bad", [("0 9\n", "9"), ("0 -1\n", "-1")])
def test_muchnik_demo_vertex_outside_graph_exits_2(capsys, tmp_path, members, bad):
    gpath = write_lines(tmp_path / "g.txt", MUCHNIK_GRAPH)
    spath = write_lines(tmp_path / "s.txt", members)
    code, out, err = run(capsys, "muchnik-demo", "--graph", gpath,
                         "--set", spath, "--k", "2", "--eps", "1/4")
    assert code == 2
    assert err == f"error: vertex {bad} of the set is outside the left side [0, 4)\n"
    assert "A=" not in out
