"""Graph files against the per-line oracles.

``write_graph`` must print the oracle's bytes, on both of its paths (a
digit table of ``arange(M)`` gathered per block, or each block's own
cells converted) and at every width edge of M - 1.  ``read_graph`` must give
the oracle's graph for every text the oracle accepts, and the oracle's
error (same class, same text, same line) for every text it rejects:
read directly from a string, and through ``parse_formats`` from a file
with comment and blank lines, whose stripping is checked against a
per-line oracle too.  The texts are valid graph files with
mutations applied: wrong token counts, signed, underscored, hex, unicode
and over-long tokens, tabs and other whitespace, ``\\r\\n`` and lone
``\\r`` line ends, blank rows, truncation, out-of-range entries, lines
after row N, and headers with N or D set to 0.  The oracles are the
per-line bodies in ``helpers.py``.
"""

import hashlib
import io
import os
import tempfile
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import extrakit.cli as cli
import extrakit.graph as graph_module
from extrakit import BipartiteGraph
from extrakit.cli import parse_formats
from extrakit.errors import ExtrakitError, FormatError
from extrakit.graph import read_graph, write_graph

from helpers import read_graph_oracle, strip_comments_oracle, write_graph_oracle

# right-part sizes: small ones, and ones whose entries need 18, 19 or
# more digits or do not fit int64
SIZES = st.one_of(st.integers(1, 12), st.sampled_from([10**17, 10**18 + 3, 2**62, 2**63, 10**25]))
TOKENS = {
    "sign": ["+1", "-1", "-0", "+0"],
    "underscore": ["1_0", "0_1", "1__0", "_1"],
    "unicode": ["٣", "１", "²"],
    "long": ["0" * 17 + "1", "0" * 20 + "1", "9" * 18, "9" * 19, str(2**63), str(2**64 + 1), "9" * 25],
    "junk": ["0x1", "1.0", "a", "1e3", ""],
}
MUTATIONS = ["drop", "add", "shift", "range", "separator", "crlf", "blank", "extra",
             "header", "lone_cr", "pad", "no_final_newline", "truncate", *TOKENS]
SEPARATORS = ["\t", "  ", "\x0b", "\x0c", "\x1c", "\xa0", " ", "\r"]


def outcome(reader, fp):
    """The graph a reader returns, or the class, text and line of its error."""
    try:
        G = reader(fp)
    except (ExtrakitError, ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return "graph", G.N, G.M, G.D, G.adjacency.tolist()


@st.composite
def graph_rows(draw, min_N=0):
    """Header numbers and rows of a valid graph file, as Python ints."""
    N, M, D = draw(st.integers(min_N, 6)), draw(SIZES), draw(st.integers(0, 4))
    value = st.integers(0, M - 1)
    rows = draw(st.lists(st.lists(value, min_size=D, max_size=D), min_size=N, max_size=N))
    return N, M, D, rows


@st.composite
def mutated_texts(draw):
    N, M, D, rows = draw(graph_rows(min_N=1))
    header = [N, M, D]
    lines = [[str(z) for z in row] for row in rows]
    ends = ["\n"] * N
    tail = ""
    truncate = False
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=4)):
        r = draw(st.integers(0, max(len(lines) - 1, 0)))
        if kind == "truncate":
            truncate = True
        elif kind == "header":
            header[draw(st.integers(0, 2))] = draw(st.sampled_from([0, 1, N + 1, max(N - 1, 0), -1]))
        elif kind == "extra":
            tail += draw(st.sampled_from(["x y z\n", "0 0\n", "\n", "1"]))
        elif not lines:
            continue
        elif kind == "drop" and lines[r]:
            del lines[r][draw(st.integers(0, len(lines[r]) - 1))]
        elif kind == "shift" and lines[r]:  # the token total stays N*D
            lines[(r + 1) % len(lines)].append(lines[r].pop())
        elif kind == "add":
            lines[r].append(draw(st.sampled_from(["0", str(M), "7"])))
        elif kind in TOKENS and lines[r]:
            lines[r][draw(st.integers(0, len(lines[r]) - 1))] = draw(st.sampled_from(TOKENS[kind]))
        elif kind == "range" and lines[r]:
            lines[r][draw(st.integers(0, len(lines[r]) - 1))] = str(M + draw(st.integers(0, 3)))
        elif kind == "separator" and len(lines[r]) > 1:
            c = draw(st.integers(1, len(lines[r]) - 1))
            lines[r][c] = draw(st.sampled_from(SEPARATORS)) + lines[r][c].lstrip()
        elif kind == "crlf":
            ends[r] = "\r\n"
        elif kind == "lone_cr":
            ends[r] = "\r"
        elif kind == "blank":
            lines.insert(r, [draw(st.sampled_from(["", "   ", "\t"]))])
            ends.insert(r, "\n")
        elif kind == "pad":
            lines[r] = ["", *lines[r], ""]
        elif kind == "no_final_newline":
            ends[-1] = ""
    text = " ".join(map(str, header)) + "\n"
    text += "".join(" ".join(toks) + end for toks, end in zip(lines, ends)) + tail
    if truncate:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def graph_text(case):
    N, M, D, rows = case
    return f"{N} {M} {D}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


@settings(max_examples=200, deadline=None)
@given(N=st.integers(0, 40), M=st.one_of(st.integers(1, 300), st.sampled_from([10**18, 2**62])),
       D=st.integers(0, 6), data=st.data())
def test_write_then_read_is_byte_identical_to_the_oracle(N, M, D, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, M - 1), min_size=D, max_size=D),
                              min_size=N, max_size=N))
    G = BipartiteGraph(N, M, D, rows)
    want = io.StringIO()
    write_graph_oracle(G, want)
    got = io.StringIO()
    # a few cells per template, so that rows cross template boundaries
    with patch.object(graph_module, "_WRITE_CELLS", data.draw(st.sampled_from([1, 2, 5, 7, 1 << 16]))):
        write_graph(G, got)
    assert got.getvalue() == want.getvalue()
    assert read_graph(io.StringIO(got.getvalue())) == G


@settings(max_examples=600, deadline=None)
@given(text=mutated_texts())
@example(text="-1 1 0\n\n")  # a negative N reads no rows (islice refuses a negative count)
def test_read_graph_matches_the_oracle_on_mutated_texts(text):
    assert outcome(read_graph, io.StringIO(text)) == outcome(read_graph_oracle, io.StringIO(text))


@settings(max_examples=300, deadline=None)
@given(text=graph_rows().map(graph_text))
def test_read_graph_matches_the_oracle_on_valid_texts(text):
    got = outcome(read_graph, io.StringIO(text))
    assert got[0] == "graph" or got[0] == "OverflowError"
    assert got == outcome(read_graph_oracle, io.StringIO(text))


COMMENTS = ["# comment\n", "\n", "  # x=1\n", "\t\n"]


@settings(max_examples=200, deadline=None)
@given(text=mutated_texts(),
       inserts=st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from(COMMENTS)), max_size=3))
# \x0b, \x0c and \x1c end a line for str.splitlines but not in a text file:
# rows holding one before a later error, a comment holding one before a
# row's tokens, and a comment holding one before a header's numbers
@example(text="2 3 2\n# c\n0\x0b1\n2 x\n", inserts=[])
@example(text="2 3 2\n\n0\x0c2\n0 9\n", inserts=[])
@example(text="2 3 2\n# c\x1c0 1\n0 1\n2 2\n", inserts=[])
@example(text="# c\x0c2 3 1\n1 3 1\n\x0c\n# c\n2\n", inserts=[])
def test_parse_formats_matches_the_oracle_with_comment_lines(text, inserts):
    lines = text.splitlines(keepends=True)
    for at, comment in inserts:
        lines.insert(at % (len(lines) + 1), comment)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write("".join(lines))

        def read(strip, reader):
            with patch.object(cli, "_strip_comments", strip), patch.object(cli, "read_graph", reader):
                return outcome(lambda _: parse_formats(path, "graph"), None)

        assert read(cli._strip_comments, read_graph) == read(strip_comments_oracle, read_graph_oracle)


def test_read_graph_leaves_lines_after_row_n_in_the_stream(tmp_path):
    fp = io.StringIO("2 3 1\n0\n2\nnot a row\n")
    assert read_graph(fp) == BipartiteGraph(2, 3, 1, [[0], [2]])
    assert fp.read() == "not a row\n"
    path = tmp_path / "g.txt"
    path.write_text("2 3 1\n0\n2\nnot a row\n")
    with open(path, encoding="ascii") as fp:
        assert read_graph(fp) == BipartiteGraph(2, 3, 1, [[0], [2]])
        assert fp.tell() == 10 and fp.readline() == "not a row\n"


@pytest.mark.parametrize("data", [b"2 3 2\n0 1\n2 2\n", b"2 3 2\r\n0 1\r\n2 x\r\n", b"1 3 1\n"])
def test_binary_streams_read_as_before(data):
    # the per-line loop splits and parses bytes rows the same way
    assert outcome(read_graph, io.BytesIO(data)) == outcome(read_graph_oracle, io.BytesIO(data))


def test_reader_reads_a_text_file_with_crlf_line_ends(tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"2 3 2\r\n0 1\r\n2 2\r\n")
    with open(path, encoding="ascii") as fp:
        assert read_graph(fp) == BipartiteGraph(2, 3, 2, [[0, 1], [2, 2]])


@pytest.mark.parametrize("text, message", [
    ("1099511627776 2 2\n0 1\n", "line 3: unexpected end of graph file"),
    ("4 2 1048576\n0 1\n", "line 2: expected 1048576 indices, got 2"),
])
def test_huge_header_fails_before_allocating(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            read_graph(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1 << 20


def written(G, cells=None):
    """``write_graph``'s text, and the sizes of the value arrays it
    converted to digits (one ``arange(M)`` table, or one per block)."""
    sizes = []
    convert = graph_module._decimal_cells

    def spy(values, width):
        sizes.append(values.size)
        return convert(values, width)

    out = io.StringIO()
    with patch.object(graph_module, "_decimal_cells", spy), \
            patch.object(graph_module, "_WRITE_CELLS", cells or graph_module._WRITE_CELLS):
        write_graph(G, out)
    return out.getvalue(), sizes


def oracle_text(G):
    out = io.StringIO()
    write_graph_oracle(G, out)
    return out.getvalue()


def spread_graph(N, M, D, seed=0):
    """Entries at 0, at M - 1 and at the powers of ten below M, the rest random."""
    rng = np.random.default_rng(seed)
    special = [0, M - 1] + [10**k for k in range(len(str(M - 1))) if 10**k < M]
    flat = [special[i] if i < len(special) else int(rng.integers(0, min(M, 1 << 63)))
            for i in range(N * D)]
    rng.shuffle(flat)
    return BipartiteGraph(N, M, D, [flat[x * D : (x + 1) * D] for x in range(N)])


@pytest.mark.parametrize("N, D, M, cells", [
    (4096, 16, 1 << 16, None),  # M = _WRITE_CELLS = N*D: the table
    (4096, 16, (1 << 16) + 1, None),  # one past both: per block
    (4097, 16, (1 << 16) + 1, None),  # past _WRITE_CELLS only: per block
    (5, 3, 14, None), (5, 3, 15, None), (5, 3, 16, None),  # M = N*D - 1, N*D, N*D + 1
    (5, 3, 7, 7), (5, 3, 8, 7),  # M = _WRITE_CELLS and one past it, blocks of 2 rows
    (5, 3, 14, 1), (5, 3, 2, 1),  # one cell per block: every M takes the block path
    (6, 4, 24, 10), (6, 4, 25, 100),  # blocks of 2 rows; M = N*D and one past it
])
def test_writer_paths_at_their_boundaries(N, D, M, cells):
    G = spread_graph(N, M, D)
    text, sizes = written(G, cells)
    assert text == oracle_text(G)
    limit = cells or graph_module._WRITE_CELLS
    step = max(1, limit // D)
    if M <= min(N * D, limit):
        assert sizes == [M]
    else:
        assert sizes == [min(step, N - lo) * D for lo in range(0, N, step)]


@pytest.mark.parametrize("top", [9, 10, 99, 100, 255, 256, 999, 1000, 65535, 65536, 10**9,
                                 10**12, 10**17, 10**18 - 1, 10**18, 2**63 - 1])
@pytest.mark.parametrize("cells", [None, 3])
def test_writer_at_each_digit_width_edge(top, cells):
    # M - 1 = top: the last value one digit wider than the one below it
    for N, D in [(3, 4), (40, 2)]:
        G = spread_graph(N, top + 1, D, seed=top % 1000)
        assert written(G, cells)[0] == oracle_text(G)
        assert read_graph(io.StringIO(oracle_text(G))) == G


@pytest.mark.parametrize("N, D", [(0, 0), (0, 3), (3, 0), (70000, 0)])
@pytest.mark.parametrize("M", [1, 10, 2**63, 10**25])
def test_writer_on_empty_graphs(N, D, M):
    G = BipartiteGraph(N, M, D, np.zeros((N, D), dtype=np.int64))
    text, sizes = written(G)
    assert text == oracle_text(G) == f"{N} {M} {D}\n" + "\n" * N
    assert sizes == []


def test_writer_builds_no_table_sized_by_M():
    # M = 2^40 and N*D = 2^18: an arange(M) table would be 2^40 rows
    N, D, M = 1 << 14, 16, 1 << 40
    rng = np.random.default_rng(5)
    G = BipartiteGraph(N, M, D, rng.integers(0, M, size=(N, D)))

    class Sink:
        """Keeps a digest of what is written, not the text."""

        def __init__(self):
            self.digest = hashlib.sha256()

        def write(self, text):
            self.digest.update(text.encode())

    sink = Sink()
    tracemalloc.start()
    try:
        write_graph(G, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == hashlib.sha256(oracle_text(G).encode()).hexdigest()
    # one block of 2^16 cells: its uint64 copy, digit rows and text
    assert peak < 8 << 20
