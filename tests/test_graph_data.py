"""Graph loading, adjacency vectors, pairwise statistics, splits."""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from skg import graph_data
from skg.errors import ArgumentError, DataError, DegenerateInputError
from skg.graph_data import (_SCAN_CHUNK, Dataset, Graph, PairwiseStats, TrainingSet,
                            _CoOccurrence, apply_normalization,
                            build_adjacency_vectors, drop_isolated, load_dataset, load_graph,
                            load_values, pairwise_histogram, pairwise_stats,
                            read_split_manifest, split_sample, write_csv, write_split_manifest)
from skg.harness import export_scatter

from conftest import require_data


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadGraph:
    def test_unweighted_two_edges(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2\n2,3\n")
        graph = load_graph(path)
        assert graph.num_nodes == 3 and graph.num_edges == 2
        assert all(w == 1.0 for _, _, w in graph.edges)

    def test_weighted_edge(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2,0.5\n")
        graph = load_graph(path, weighted=True)
        assert _weight(graph, "1", "2") == 0.5

    def test_negative_weight_rejected(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2,-1\n")
        with pytest.raises(DataError):
            load_graph(path, weighted=True)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = _write(tmp_path, "g.csv", f"1,2,1\n2,3,{weight}\n")
        with pytest.raises(DataError, match=":2:"):
            load_graph(path, weighted=True)
        with pytest.raises(DataError, match="finite"):
            Graph([(1, 2, 1.0), (2, 3, float(weight))])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "g.csv", "# header\n1,2\nbogus\n")
        with pytest.raises(DataError, match=":3:"):
            load_graph(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = _write(tmp_path, "g.csv", "# c\n\n1,2\n\n# d\n2,3\n")
        assert load_graph(path).num_edges == 2

    def test_unweighted_flag_forces_unit_weight(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2,7.5\n")
        assert _weight(load_graph(path, weighted=False), "1", "2") == 1.0

    def test_missing_weight_defaults_to_one(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2\n3,4,2.5\n")
        graph = load_graph(path, weighted=True)
        assert _weight(graph, "1", "2") == 1.0
        assert _weight(graph, "3", "4") == 2.5

    def test_duplicate_edge_last_wins(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2,1.0\n1,2,3.0\n")
        assert _weight(load_graph(path, weighted=True), "1", "2") == 3.0

    def test_undirected_edge_visible_both_ways(self, tmp_path):
        path = _write(tmp_path, "g.csv", "1,2\n")
        graph = load_graph(path)
        assert _weight(graph, "2", "1") == 1.0
        assert _weight(load_graph(path, directed=True), "2", "1") == 0.0


class TestLoadValues:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "v.csv", "# vals\na,1.5\nb,-2\n")
        assert load_values(path) == {"a": 1.5, "b": -2.0}

    def test_duplicate_rejected(self, tmp_path):
        path = _write(tmp_path, "v.csv", "a,1\na,2\n")
        with pytest.raises(DataError, match="duplicate"):
            load_values(path)

    def test_empty_node_id_rejected(self, tmp_path):
        path = _write(tmp_path, "v.csv", "a,1\n ,2\n")
        with pytest.raises(DataError, match=r":2: expected 'node_id,value', got \['', '2'\]"):
            load_values(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = _write(tmp_path, "v.csv", "a,1\nb,oops\n")
        with pytest.raises(DataError, match=":2:"):
            load_values(path)


def _oracle_rows(path):
    """The definitional row parser: (line number, stripped fields) per data line."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, [part.strip() for part in line.split(",")]


def _weight(graph, src, dst):
    """Weight of the edge src->dst (either direction when undirected); 0.0 if there is none."""
    return build_adjacency_vectors(graph, [src], [dst])[0, 0]


def _oracle_out(edges, directed, nodes=()):
    """The definitional dict-of-dicts graph: node -> {neighbour: weight}.

    Nodes register in first-seen order over ``nodes``, then src0, dst0,
    src1, ...; each edge writes src->dst, then dst->src when undirected,
    so a repeated edge, in either direction, wins last.
    """
    out = {node: {} for node in nodes}
    for src, dst, weight in edges:
        out.setdefault(src, {})
        out.setdefault(dst, {})
        out[src][dst] = weight
        if not directed:
            out[dst][src] = weight
    return out


def _oracle_vectors(out, sampled, referencing):
    """The definitional adjacency loop over the oracle's out-maps."""
    column = {node: m for m, node in enumerate(referencing)}
    vectors = np.zeros((len(sampled), len(referencing)))
    for n, node in enumerate(sampled):
        for dst, weight in out[node].items():
            if dst in column:
                vectors[n, column[dst]] = weight
    return vectors


def _oracle_graph(path, weighted, directed):
    """Row-by-row edge-list loading and per-edge registration.

    Returns (nodes, edges, the full node-by-node adjacency as nested lists).
    """
    edges = []
    for lineno, fields in _oracle_rows(path):
        if len(fields) not in (2, 3) or not fields[0] or not fields[1]:
            raise DataError(f"{path}:{lineno}: expected 'src,dst[,weight]', got {fields!r}")
        src, dst = fields[0], fields[1]
        weight = 1.0
        if weighted and len(fields) == 3:
            try:
                weight = float(fields[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: weight {fields[2]!r} is not a number") from None
        if not math.isfinite(weight) or weight < 0:
            raise DataError(f"{path}:{lineno}: weight must be finite and nonnegative, got {weight}")
        edges.append((src, dst, weight))
    out = _oracle_out(edges, directed)
    return tuple(out), tuple(edges), _oracle_vectors(out, list(out), list(out)).tolist()


def _oracle_values(path):
    values = {}
    for lineno, fields in _oracle_rows(path):
        if len(fields) != 2 or not fields[0]:
            raise DataError(f"{path}:{lineno}: expected 'node_id,value', got {fields!r}")
        node = fields[0]
        if node in values:
            raise DataError(f"{path}:{lineno}: duplicate value for node {node!r}")
        try:
            value = float(fields[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: value {fields[1]!r} is not a number") from None
        if not math.isfinite(value):
            raise DataError(f"{path}:{lineno}: value must be finite, got {value}")
        values[node] = value
    return values


def _graph_parts(graph):
    nodes = graph.nodes
    full = build_adjacency_vectors(graph, nodes, nodes).tolist() if nodes else []
    return nodes, graph.edges, full


def _graph_parts_of(path):
    return _graph_parts(load_graph(path))


def _outcome(load, *args):
    try:
        return load(*args)
    except DataError as exc:
        return f"DataError: {exc}"


_PAD = st.sampled_from(["", " ", "\t", "  "])
_SOME_PAD = st.sampled_from([" ", "\t", "  "])


def _field(tokens, clean=False):
    pad = st.just("") if clean else _PAD
    return st.builds(lambda left, token, right: left + token + right,
                     pad, st.sampled_from(tokens), pad)


def _one_pass(text):
    """Whether the loaders tokenize ``text`` in one pass: ASCII, no ``#``, no blank
    line and no whitespace but line feeds, once CR and CRLF read as LF."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return (text.isascii() and "#" not in text and not text.startswith("\n")
            and "\n\n" not in text and not any(c.isspace() for c in text.replace("\n", "")))


@st.composite
def _csv_text(draw, data_lines, clean=False):
    """``data_lines`` mixed with comments and blank lines, with LF, CRLF or CR endings.

    A clean text is the data lines alone with LF endings, the last one optional.
    """
    lines = list(data_lines)
    if clean:
        text = "\n".join(lines)
        return text + "\n" if lines and draw(st.booleans()) else text
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "   ", "# comment", "  # a,b,c", "#1,2"])))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                            min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        endings[-1] = ""
    # a line with an empty first or last field, and its neighbours, are always padded
    ragged = [line[:1] == "," or line[-1:] == "," for line in lines]
    pads = [_SOME_PAD if any(ragged[max(i - 1, 0):i + 2]) else _PAD for i in range(len(lines))]
    padded = [draw(pad) + line + draw(pad) for pad, line in zip(pads, lines)]
    return "".join(line + end for line, end in zip(padded, endings))


_GOOD_WEIGHTS = ["1", "0.5", "2.25", "0", "1e-3", "-0.0", "1_0"]
_BAD_WEIGHTS = ["-1", "nan", "inf", "-inf", "x", ""]


# ids that stress the loaders' byte keys: trailing zero bytes; 8 bytes, 9 or more
# with the same first 8, and exactly 16; multibyte UTF-8 (never in a clean file)
_KEY_IDS = [["a\x00", "a\x00\x00"],
            ["abcdefgh", "abcdefgh1", "abcdefgh2", "abcdefghabcdefgh", "abcdefghabcdefgh\x00"],
            ["é", "ünïcødé-1", "ünïcødé-2", "日本語ノード"]]


@st.composite
def _edge_file(draw, malformed, clean=False):
    ids = _field(["a", "b", "c", "1", "10"] + draw(st.sampled_from(_KEY_IDS[:2 if clean else 3]))
                 + ([] if clean else ["c#2", "c\x85d"]) + ([""] if malformed else []), clean)
    weights = _field(_GOOD_WEIGHTS + (_BAD_WEIGHTS if malformed else []), clean)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        width = draw(st.sampled_from([2, 3, 2, 3] + ([1, 4] if malformed else [])))
        fields = [draw(ids) for _ in range(min(width, 2))]
        fields += [draw(weights) for _ in range(width - 2)]
        # one line in three gets an empty first or last field; in a good file only the
        # weight, which loads as a missing weight unless --weighted
        if draw(st.integers(0, 2)) == 0 and (malformed or width == 3):
            fields[draw(st.sampled_from([0, -1])) if malformed else -1] = ""
        lines.append(",".join(fields))
    return draw(_csv_text(lines, clean))


@st.composite
def _value_file(draw, malformed, nodes=(), clean=False):
    """A value file; its good lines hold ``nodes`` in a drawn order, when any are given."""
    nodes = draw(st.permutations(nodes) if nodes else st.lists(
        st.sampled_from([f"n{i}" for i in range(20)] + ["7"] + ([] if clean else ["x y", "n#1"])),
        unique=True, min_size=1, max_size=12))
    values = _field(["1", "-2.5", "0", "1e3", "-0.0"] +
                    (["nan", "inf", "x", ""] if malformed else []), clean)
    lines = [f"{node},{draw(values)}" for node in nodes]
    if malformed:
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(lines)))
            node = draw(st.sampled_from(nodes + [""]))
            lines.insert(at, draw(st.sampled_from([f"{node},{draw(values)}", node,
                                                   f"{node},1,2"])))
    return draw(_csv_text(lines, clean))


def _branch(text, clean, malformed):
    """Record the tokenizer branch ``text`` takes; a clean draw of good lines takes one pass."""
    event(f"one-pass tokenizer: {_one_pass(text)}")
    assert _one_pass(text) or not clean or malformed


class TestLoaderAgainstRowParser:
    """The columnar loaders against the definitional row-by-row parser."""

    @given(data=st.data(), malformed=st.booleans(), weighted=st.booleans(),
           directed=st.booleans(), clean=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_load_graph(self, tmp_path_factory, data, malformed, weighted, directed, clean):
        text = data.draw(_edge_file(malformed, clean))
        _branch(text, clean, malformed)
        path = tmp_path_factory.mktemp("oracle") / "g.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_oracle_graph, path, weighted, directed)
        graph = _outcome(load_graph, path, weighted, directed)
        if isinstance(expected, str):
            assert graph == expected
            return
        assert _graph_parts(graph) == expected
        assert graph.num_edges == len(expected[1])
        # the public constructor builds the same graph from the same edges
        assert _graph_parts(Graph(expected[1], directed=directed)) == expected

    @given(data=st.data(), malformed=st.booleans(), clean=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_load_values(self, tmp_path_factory, data, malformed, clean):
        text = data.draw(_value_file(malformed, clean=clean))
        _branch(text, clean, malformed)
        path = tmp_path_factory.mktemp("oracle") / "v.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(_oracle_values, path)
        got = _outcome(load_values, path)
        assert got == expected
        if not isinstance(expected, str):
            assert list(got) == list(expected)

    def test_reverse_duplicate_with_another_weight(self, tmp_path):
        path = _write(tmp_path, "g.csv", "a,b,1\nb,c,2\nb,a,3\n")
        for directed in (False, True):
            graph = load_graph(path, weighted=True, directed=directed)
            assert _graph_parts(graph) == _oracle_graph(path, True, directed)
        assert _weight(load_graph(path, weighted=True), "a", "b") == 3.0

    def test_first_bad_line_wins_across_checks(self, tmp_path):
        # a bad weight on line 2 comes before a bad field count on line 3
        path = _write(tmp_path, "g.csv", "a,b,1\na,c,-2\nbogus\n")
        with pytest.raises(DataError, match=r":2: weight must be finite"):
            load_graph(path, weighted=True)
        path = _write(tmp_path, "v.csv", "a,1\nb,x\na,2\n")
        with pytest.raises(DataError, match=r":2: value 'x' is not a number"):
            load_values(path)
        # within one line the checks keep the row parser's order
        path = _write(tmp_path, "v.csv", "a,1\na,x\n")
        assert _outcome(load_values, path) == _outcome(_oracle_values, path)
        with pytest.raises(DataError, match=r":2: duplicate value for node 'a'"):
            load_values(path)
        path = _write(tmp_path, "g.csv", "a,b,1\n,c,x\n")
        assert _outcome(load_graph, path, True) == _outcome(_oracle_graph, path, True, False)

    def test_only_line_feeds_end_lines(self, tmp_path):
        # str.splitlines would also break at these; the row parser does not
        breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        path = _write(tmp_path, "v.csv", "".join(f"a{c}b{i},{i}\n" for i, c in enumerate(breaks)))
        assert load_values(path) == _oracle_values(path)
        assert list(load_values(path)) == [f"a{c}b{i}" for i, c in enumerate(breaks)]
        path = _write(tmp_path, "g.csv", "".join(f"a{c}b,c\n" for c in breaks))
        assert _graph_parts(load_graph(path)) == _oracle_graph(path, False, False)

    def test_unclean_rewrite_loads_like_the_clean_file(self, tmp_path):
        # CRLF endings, padded fields, a comment and a blank line take the normalizing
        # branch, which must give the one-pass branch's graph and values
        edges = "a,b\nb,c,2.5\nc,a\nd,a,0\n"
        padded = "# edges\r\n a , b \r\n\r\nb ,c,\t2.5\r\n\tc,a\r\nd , a,0 \r\n"
        values = "a,1\nb,-2.5\nc,0\nd,3"
        padded_values = " a , 1\r\n# values\r\n\r\nb,-2.5 \r\n c ,0\r\nd,3\r\n"
        assert _one_pass(edges) and _one_pass(values)
        assert not _one_pass(padded) and not _one_pass(padded_values)
        clean, unclean = _write(tmp_path, "g.csv", edges), _write(tmp_path, "u.csv", padded)
        for weighted, directed in itertools.product((False, True), repeat=2):
            assert (_graph_parts(load_graph(unclean, weighted, directed))
                    == _graph_parts(load_graph(clean, weighted, directed)))
        expected = _graph_parts(load_graph(clean))
        # a leading or a doubled line feed is a blank line, so that text is not clean
        for text in ("\n" + edges, edges + "\n", edges.replace("\n", "\n\n", 1)):
            assert not _one_pass(text)
            assert _graph_parts(load_graph(_write(tmp_path, "b.csv", text))) == expected
        clean, unclean = _write(tmp_path, "v.csv", values), _write(tmp_path, "w.csv", padded_values)
        assert list(load_values(unclean).items()) == list(load_values(clean).items())

    def test_one_pass_is_decided_per_byte(self, tmp_path, monkeypatch):
        # the tokenizer rewrites a text first exactly when _one_pass refuses it: each ASCII
        # character in an id and beside a comma, "#", blank lines and non-ASCII ones
        rewrites, sub = [], re.sub
        monkeypatch.setattr(graph_data.re, "sub", lambda *args: rewrites.append(1) or sub(*args))
        texts = ["a,b\n\nc,d\n", "\na,b\n", "a,b\n\n", "a,b", "a,b\n", "\n", ""]
        for char in [chr(code) for code in range(128) if chr(code) not in "\r\n,"] + [
                "é", "\x85", "\xa0", "\u2028", "日"]:
            texts += [f"a{char}b,c\nd,e\n", f"a,{char}\nb,c{char}\n", f"{char}a,b\n"]
        for text in texts:
            rewrites.clear()
            path = _write(tmp_path, "g.csv", text)
            assert _outcome(_graph_parts_of, path) == _outcome(_oracle_graph, path, False, False)
            graph_data._tokens(text, (2, 3), fill="1")
            assert bool(rewrites) == (not _one_pass(text)), repr(text)

    def test_empty_fields_at_line_ends(self, tmp_path):
        # stripping an empty first or last field must not strip the line feed beside it
        for text in ("a,a,\na,a \n", "a,b,\nc,d \n , e\n", "a,b,\n,c \nd,e\n"):
            path = _write(tmp_path, "g.csv", text)
            for weighted in (False, True):
                graph = _outcome(load_graph, path, weighted, False)
                assert (graph if isinstance(graph, str) else _graph_parts(graph)) \
                    == _outcome(_oracle_graph, path, weighted, False)

    def test_byte_keys_keep_ids_apart(self, tmp_path):
        # ids equal but for trailing zero bytes, or in their first 8 or 16 bytes, or
        # multibyte ones, are numbered apart in first-seen order, short and long alike
        for ids in (["a", "a\x00", "b", "a\x00\x00"],
                    _KEY_IDS[1] + ["a", "a\x00"] + _KEY_IDS[2]):
            text = "".join(f"{src},{dst}\n" for src, dst in zip(ids, ids[1:] + ids[:1]))
            path = _write(tmp_path, "g.csv", text + text.replace("\n", ",2\n"))
            for directed in (False, True):
                graph = load_graph(path, weighted=True, directed=directed)
                assert graph.nodes == tuple(ids)
                assert _graph_parts(graph) == _oracle_graph(path, True, directed)

    def test_field_counts_are_checked_per_line(self, tmp_path):
        # a 1-field line and a 3-field line hold as many commas as two 2-field lines
        path = _write(tmp_path, "g.csv", "a\nb,c,1\n")
        for weighted in (False, True):
            with pytest.raises(DataError, match=r"g.csv:1: expected 'src,dst\[,weight\]', got \['a'\]"):
                load_graph(path, weighted=weighted)
        with pytest.raises(DataError, match=r"g.csv:1: expected 'node_id,value', got \['a'\]"):
            load_values(path)

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_empty_files_load_empty(self, tmp_path, text):
        path = _write(tmp_path, "g.csv", text)
        for weighted in (False, True):
            graph = load_graph(path, weighted=weighted)
            assert graph.nodes == graph.edges == () and graph.num_edges == 0
        assert load_values(path) == {}

    @pytest.mark.parametrize("loader", [load_graph, load_values])
    def test_undecodable_bytes_name_the_file(self, tmp_path, loader):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n\xff\xfe,3\n")
        with pytest.raises(DataError, match="bad.csv: not UTF-8"):
            loader(path)


class TestAdjacencyVectors:
    def test_undirected_triangle(self):
        graph = Graph([(1, 2), (2, 3), (1, 3)])
        vectors = build_adjacency_vectors(graph, [1], [1, 2, 3])
        assert vectors.tolist() == [[0.0, 1.0, 1.0]]

    def test_isolated_node_gives_zero_vector(self):
        graph = Graph([(1, 2)], nodes=[1, 2, 3])
        vectors = build_adjacency_vectors(graph, [3], [1, 2, 3])
        assert vectors.tolist() == [[0.0, 0.0, 0.0]]

    def test_directed_uses_out_edges(self):
        graph = Graph([(1, 2)], directed=True)
        assert build_adjacency_vectors(graph, [2], [1, 2]).tolist() == [[0.0, 0.0]]
        assert build_adjacency_vectors(graph, [1], [1, 2]).tolist() == [[0.0, 1.0]]

    def test_unknown_node_is_lookup_error(self):
        graph = Graph([(1, 2)])
        with pytest.raises(DataError, match="^sampled node 99 is not in the graph$"):
            build_adjacency_vectors(graph, [99], [1, 2])
        with pytest.raises(DataError, match="^referencing node 99 is not in the graph$"):
            build_adjacency_vectors(graph, [1], [1, 99])
        # the sampled nodes are checked first, each list in order
        with pytest.raises(DataError, match="^sampled node 'x'"):
            build_adjacency_vectors(graph, [1, "x", 98], [97])

    def test_referencing_must_be_unique_and_nonempty(self):
        graph = Graph([(1, 2)])
        with pytest.raises(ArgumentError):
            build_adjacency_vectors(graph, [1], [])
        with pytest.raises(ArgumentError):
            build_adjacency_vectors(graph, [1], [2, 2])

    def test_no_implicit_self_connection(self):
        graph = Graph([(1, 2)])
        vectors = build_adjacency_vectors(graph, [1], [1, 2])
        assert vectors.tolist() == [[0.0, 1.0]]

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5),
                      st.floats(0.0, 10.0, allow_nan=False)),
            max_size=25,
        ),
        directed=st.booleans(),
    )
    def test_entries_round_trip_against_edge_lookup(self, edges, directed):
        graph = Graph(edges, directed=directed, nodes=range(6))
        out = _oracle_out(edges, directed, range(6))
        nodes = list(graph.nodes)
        assert nodes == list(out)
        vectors = build_adjacency_vectors(graph, nodes, nodes)
        for i, src in enumerate(nodes):
            for j, dst in enumerate(nodes):
                assert vectors[i, j] == out[src].get(dst, 0.0)

    @given(data=st.data(),
           edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                    st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0])), max_size=30),
           extra=st.lists(st.integers(0, 9), max_size=4), directed=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_scatter_matches_dict_of_dicts_oracle(self, data, edges, extra, directed):
        # duplicates and reverse duplicates with other weights, self-loops and
        # zero weights come from the small id space; rows may repeat, and the
        # referencing set is any ordered subset
        graph = Graph(edges, directed=directed, nodes=extra)
        out = _oracle_out(edges, directed, extra)
        assert graph.nodes == tuple(out)
        if not out:
            return
        referencing = data.draw(st.permutations(list(out)))[:data.draw(st.integers(1, len(out)))]
        sampled = data.draw(st.lists(st.sampled_from(list(out)), max_size=12))
        vectors = build_adjacency_vectors(graph, sampled, referencing)
        assert vectors.dtype == np.float64
        assert np.array_equal(vectors, _oracle_vectors(out, sampled, referencing))

    @given(edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                                    st.sampled_from([0.0, 1.0, 2.5])), max_size=20),
           extra=st.lists(st.integers(0, 9), max_size=4), directed=st.booleans())
    @example(edges=[(1, 2, 0.0), (3, 1, 1.0)], extra=[], directed=True)
    @example(edges=[(4, 4, 1.0), (5, 6, 0.0)], extra=[7], directed=False)
    @settings(max_examples=150, deadline=None)
    def test_drop_isolated_matches_oracle(self, edges, extra, directed):
        # a node keeps its place if its oracle out-map is not empty, even when
        # its only edge has weight 0 or is a self-loop
        out = _oracle_out(edges, directed, extra)
        keep = [node for node, neighbours in out.items() if neighbours]
        pruned = drop_isolated(Graph(edges, directed=directed, nodes=extra))
        assert pruned.nodes == tuple(keep) and pruned.directed == directed
        assert pruned.edges == tuple((s, d, w) for s, d, w in edges if s in keep and d in keep)
        if keep:
            kept = _oracle_out(pruned.edges, directed, keep)
            assert np.array_equal(build_adjacency_vectors(pruned, keep, keep),
                                  _oracle_vectors(kept, keep, keep))


class TestArcRecord:
    """The sampled matrix's nonzeros as the scan reads them, built from the graph's arcs."""

    @given(n_nodes=st.integers(2, 300), density=st.sampled_from([0.005, 0.03, 0.3]),
           weights=st.sampled_from(["unweighted", "float", "at-bound", "past-bound"]),
           directed=st.booleans(), repeats=st.integers(0, 30), loops=st.integers(0, 5),
           fraction=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(n_nodes=300, density=0.03, weights="float", directed=False, repeats=10, loops=3,
             fraction=0.95, seed=1)
    @example(n_nodes=290, density=0.03, weights="past-bound", directed=True, repeats=10,
             loops=3, fraction=0.95, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_record_and_scan_equal_the_dense_oracle(self, n_nodes, density, weights, directed,
                                                    repeats, loops, fraction, seed):
        # edges repeated in either direction with another weight, a later 0.0 or -0.0
        # over an earlier nonzero, and self-loops; integer weights at the bound
        # 4 m max|a|^2 <= 2^53 (exact Gram blocks) or one past it (recomputed pairs)
        rng = np.random.default_rng(seed)
        sampled = rng.permutation(n_nodes)[:max(2, round(fraction * n_nodes))].tolist()
        peak = math.isqrt(2**53 // (4 * len(sampled))) + (weights == "past-bound")

        def weight():
            if weights == "unweighted":
                return 1.0
            if weights == "float":
                return float(rng.lognormal(0.0, 1.0))
            return float(rng.integers(1, peak + 1))

        pairs = rng.integers(0, n_nodes, (int(density * n_nodes * n_nodes), 2)).tolist()
        edges = [(src, dst, weight()) for src, dst in pairs]
        for src, dst, _ in (edges[i] for i in rng.integers(0, len(edges), repeats * bool(edges))):
            later = [weight(), 0.0, -0.0][rng.integers(0, 3)]
            edges.append((dst, src, later) if rng.random() < 0.5 else (src, dst, later))
        edges += [(node, node, weight()) for node in rng.integers(0, n_nodes, loops).tolist()]
        if weights.endswith("bound"):
            edges.append((sampled[0], sampled[1], float(peak)))
        graph = Graph(edges, directed=directed, nodes=range(n_nodes))
        record = graph_data._Nonzeros.of_graph(graph, sampled, sampled)
        dense = build_adjacency_vectors(graph, sampled, sampled)
        oracle = _oracle_vectors(_oracle_out(edges, directed, range(n_nodes)), sampled, sampled)
        flat = np.flatnonzero(oracle)
        assert record.shape == dense.shape == oracle.shape
        assert record.flat.tolist() == flat.tolist() == np.flatnonzero(dense).tolist()
        assert record.values.tobytes() == oracle.ravel()[flat].tobytes()
        assert dense.ravel()[flat].tobytes() == oracle.ravel()[flat].tobytes()
        assert _bits(pairwise_stats(record)) == _bits(_loop_stats(dense))
        assert repr(pairwise_histogram(record)) == repr(_loop_histogram(dense))

    def test_repeated_sampled_nodes(self):
        # a node sampled twice gets its edges in both rows, on the dense and the sparse side
        graph = Graph([("a", "b", 2.0), ("b", "c", 0.5), ("c", "a", 1.0), ("b", "a", 0.0)])
        sampled = ["b", "a", "b", "c"]
        record = graph_data._Nonzeros.of_graph(graph, sampled, ["a", "b", "c"])
        dense = build_adjacency_vectors(graph, sampled, ["a", "b", "c"])
        assert dense.tolist() == [[0.0, 0.0, 0.5], [0.0, 0.0, 1.0], [0.0, 0.0, 0.5],
                                  [1.0, 0.5, 0.0]]
        assert record.flat.tolist() == np.flatnonzero(dense).tolist()
        assert record.values.tolist() == dense[dense != 0].tolist()
        assert pairwise_histogram(record) == pairwise_histogram(dense) == _loop_histogram(dense)


class TestPairwiseStats:
    def test_hand_example(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        stats = pairwise_stats(vectors)
        assert stats.d_sq_max == 2.0
        assert stats.d_sq_min_nonzero == 1.0
        assert dict(pairwise_histogram(vectors)) == {2.0: 1, 1.0: 2}
        assert stats.n_pairs == 3

    def test_identical_vectors_have_no_nonzero_min(self):
        stats = pairwise_stats(np.ones((2, 4)))
        assert stats.d_sq_max == 0.0
        assert stats.d_sq_min_nonzero is None

    def test_needs_two_vectors(self):
        # one vector is a degenerate sample (exit 4); a 1-d array is a bad argument
        with pytest.raises(DegenerateInputError):
            pairwise_stats(np.ones((1, 4)))
        with pytest.raises(DegenerateInputError):
            pairwise_histogram(np.ones((1, 4)))
        with pytest.raises(ArgumentError):
            pairwise_stats(np.ones(4))

    @given(st.lists(st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
                    min_size=2, max_size=8))
    def test_permutation_invariant(self, rows):
        vectors = np.array(rows)
        base = pairwise_stats(vectors)
        rng = np.random.default_rng(0)
        shuffled = pairwise_stats(vectors[rng.permutation(len(rows))])
        assert shuffled.d_sq_max == base.d_sq_max
        assert shuffled.d_sq_min_nonzero == base.d_sq_min_nonzero
        assert pairwise_histogram(vectors[rng.permutation(len(rows))]) == \
            pairwise_histogram(vectors)

    def test_histogram_counts_cover_all_pairs(self):
        vectors = np.random.default_rng(1).random((7, 3))
        histogram = pairwise_histogram(vectors)
        assert sum(c for _, c in histogram) == pairwise_stats(vectors).n_pairs == 21

    @given(n=st.integers(2, 600), m=st.integers(1, 40), binary=st.booleans(),
           duplicates=st.integers(0, 20), zero_rows=st.integers(0, 5),
           near_duplicates=st.integers(0, 5), shifted_copy=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gram_scan_equals_loop_scan(self, n, m, binary, duplicates, zero_rows,
                                        near_duplicates, shifted_copy, seed):
        # chunked Gram scan against the pair-by-pair difference loop, exactly; a
        # shifted copy of the first half ties every distance up to rounding
        rng = np.random.default_rng(seed)
        if binary:
            vectors = (rng.random((n, m)) < 0.2).astype(np.float64)
        else:
            vectors = rng.random((n, m)) * rng.lognormal(0.0, 2.0, (n, 1))
        for _ in range(duplicates):
            i, j = rng.integers(0, n, 2)
            vectors[j] = vectors[i]
        vectors[rng.integers(0, n, zero_rows)] = 0.0
        for _ in range(near_duplicates):
            i, j = rng.integers(0, n, 2)
            vectors[j] = vectors[i] * (1.0 + 1e-9 * rng.standard_normal(m))
        if shifted_copy:
            half = n // 2
            vectors[half:2 * half] = vectors[:half] + rng.random(m) * rng.lognormal(0.0, 2.0)
        assert pairwise_stats(vectors) == _loop_stats(vectors)

    def test_rounding_ties_resolve_like_the_loop(self):
        # a weighted shifted copy ties each distance with its twin up to the last
        # bits, where Gram and difference values may rank the twins differently
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, m = rng.integers(4, 300), rng.integers(1, 40)
            vectors = rng.random((n, m)) * rng.lognormal(0.0, 2.0, (n, 1))
            half = n // 2
            vectors[half:2 * half] = vectors[:half] + rng.random(m) * rng.lognormal(0.0, 2.0)
            assert pairwise_stats(vectors) == _loop_stats(vectors)

    def test_single_nonzero_pair(self):
        vectors = np.array([[0.1, 3.0], [0.7, 3.0]])
        assert pairwise_stats(vectors) == _loop_stats(vectors)
        assert pairwise_stats(vectors).d_sq_min_nonzero == pairwise_stats(vectors).d_sq_max > 0

    @given(n=st.integers(2, 700), m=st.integers(1, 120),
           density=st.one_of(st.just(0.0), st.floats(0.002, 0.06)),
           values=st.sampled_from(["binary", "lognormal", "signed"]), hubs=st.integers(0, 3),
           duplicates=st.integers(0, 20), zero_rows=st.integers(0, 5),
           zero_columns=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @example(n=300, m=1, density=0.05, values="binary", hubs=0, duplicates=3, zero_rows=2,
             zero_columns=0, seed=1)
    @example(n=520, m=40, density=0.0, values="binary", hubs=0, duplicates=0, zero_rows=0,
             zero_columns=0, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_sparse_scan_equals_loop_scan(self, n, m, density, values, hubs, duplicates,
                                          zero_rows, zero_columns, seed):
        # sparse matrices go through co-occurrence products, and hub columns with
        # at least n/5 nonzeros can send one through BLAS; both must give the loop's values
        rng = np.random.default_rng(seed)
        nonzero = rng.random((n, m)) < density
        for column in rng.choice(m, min(hubs, m), replace=False):
            nonzero[rng.choice(n, rng.integers(-(-n // 5), n + 1), replace=False), column] = True
        vectors = nonzero * {"binary": np.ones((n, m)),
                             "lognormal": rng.lognormal(0.0, 2.0, (n, m)),
                             "signed": rng.standard_normal((n, m))}[values]
        for _ in range(duplicates):
            i, j = rng.integers(0, n, 2)
            vectors[j] = vectors[i]
        vectors[rng.integers(0, n, zero_rows)] = 0.0
        vectors[:, rng.integers(0, m, zero_columns)] = 0.0
        assert pairwise_stats(vectors) == _loop_stats(vectors)

    @given(n=st.integers(2, 300), m=st.integers(1, 60),
           values=st.sampled_from(["binary", "signed", "at-bound", "past-bound"]),
           density=st.sampled_from([0.02, 0.3, 1.0]), duplicates=st.integers(0, 20),
           zero_rows=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_integer_scan_needs_no_recompute(self, n, m, values, density, duplicates,
                                             zero_rows, seed):
        # integers with 4 m max|a|^2 <= 2^53 give exact Gram values on either product, so
        # no pair is recomputed from its difference, for the extremes, the histogram or
        # the scatter; one past that bound, pairs are
        vectors = _scan_vectors(np.random.default_rng(seed), n, m, values, density,
                                duplicates, zero_rows)
        recomputed, pair_d_sq = [], graph_data._pair_d_sq

        def spy(*args):
            recomputed.append(args)
            return pair_d_sq(*args)

        for scan, oracle in ((pairwise_stats, _loop_stats), (pairwise_histogram, _loop_histogram),
                             (lambda v: export_scatter(v, np.zeros(n)), None)):
            recomputed.clear()
            with mock.patch.object(graph_data, "_pair_d_sq", spy):
                result = scan(vectors)
            if oracle is not None:
                assert repr(result) == repr(oracle(vectors))
            assert bool(recomputed) == (values == "past-bound")

    def test_subnormal_norms_are_not_taken_as_exact(self):
        # entries near 1e-160 have subnormal norms, whose Gram tolerance would underflow
        # to 0; the blocks must still count as inexact, for the extremes and the histogram
        vectors = np.random.default_rng(0).random((50, 5)) * 1e-160
        assert _bits(pairwise_stats(vectors)) == _bits(_loop_stats(vectors))
        assert repr(pairwise_histogram(vectors)) == repr(_loop_histogram(vectors))

    def test_one_gram_product_per_matrix(self, monkeypatch):
        # co-occurrence builds the Gram blocks of a matrix when
        # _SCAN_COST * sum(d^2) <= n^2 m over its column nonzero counts d, BLAS otherwise
        rng = np.random.default_rng(3)
        hubs = (rng.random((600, 200)) < 0.01) * rng.lognormal(0.0, 1.0, (600, 200))
        for column in (7, 70, 150):
            hubs[rng.choice(600, 120, replace=False), column] = 1.0
        cora = (rng.random((500, 500)) < 0.01).astype(np.float64)  # ~5 nonzeros per row
        signed = (rng.random((300, 300)) < 0.02) * rng.standard_normal((300, 300))
        signed[:2] = 0.0
        signed[:2, :6] = -1.0
        signed[1, 0] = -1.001  # the closest pair shares only negative entries
        dense = (rng.random((300, 40)) < 0.5).astype(np.float64)
        mixed = (rng.random((80, 80)) < 0.3).astype(np.float64)
        mixed[:, :3] = 0.0
        mixed[rng.integers(0, 80, 3), np.arange(3)] = 1.0  # three columns of one nonzero
        built = []

        def spy(nonzeros):
            # it reads the matrix's nonzeros, in row-major order, from the scan's one record
            built.append((nonzeros.shape, nonzeros.flat.tolist(), nonzeros.values.tolist()))
            return _CoOccurrence(nonzeros)

        monkeypatch.setattr(graph_data, "_CoOccurrence", spy)
        for vectors, co_occurrence in ((hubs, True), (cora, True), (signed, True),
                                       (dense, False), (mixed, False)):
            built.clear()
            assert pairwise_stats(vectors) == _loop_stats(vectors)
            flat = np.flatnonzero(vectors)
            entries = (vectors.shape, flat.tolist(), vectors.ravel()[flat].tolist())
            assert built == ([entries] if co_occurrence else [])

    def test_block_products_in_several_runs(self, monkeypatch):
        # 600 columns of 17 nonzeros give the first block more products than
        # it has entries: they are summed in runs no longer than the block,
        # and every block equals -2 times its dense Gram above the diagonal
        n, m = 300, 600
        rng = np.random.default_rng(5)
        vectors = np.zeros((n, m))
        for column in range(m):
            vectors[rng.choice(n, 17, replace=False), column] = 1.0
        co_occurrence = _CoOccurrence(graph_data._scan_input(vectors))
        runs, bincount = [], np.bincount

        def recorded(index, weights=None, minlength=0):
            runs.append((index.size, minlength))
            return bincount(index, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", recorded)
        for start in range(0, n - 1, _SCAN_CHUNK):
            stop = min(start + _SCAN_CHUNK, n - 1)
            dense = -2.0 * vectors[start:stop] @ vectors[start:].T
            assert np.array_equal(co_occurrence.block(start, stop, n), np.triu(dense, 1))
        first_block = _SCAN_CHUNK * n
        assert sum(size == first_block for _, size in runs) > 1
        assert all(products <= size for products, size in runs)
        monkeypatch.undo()
        assert pairwise_stats(vectors) == _loop_stats(vectors)


def _bits(stats):
    return (stats.d_sq_max.hex(), stats.n_pairs,
            None if stats.d_sq_min_nonzero is None else stats.d_sq_min_nonzero.hex())


def _loop_d_sq(vectors):
    """The definitional scan: every pair from its difference, one row at a time."""
    return np.concatenate([np.einsum("ij,ij->i", vectors[i + 1:] - vectors[i],
                                     vectors[i + 1:] - vectors[i])
                           for i in range(vectors.shape[0] - 1)])


def _loop_stats(vectors):
    d_sq = _loop_d_sq(vectors)
    nonzero = d_sq[d_sq > 0.0]
    return PairwiseStats(d_sq_max=float(d_sq.max()),
                         d_sq_min_nonzero=float(nonzero.min()) if nonzero.size else None,
                         n_pairs=int(d_sq.size))


def _loop_histogram(vectors):
    unique, counts = np.unique(_loop_d_sq(vectors), return_counts=True)
    return tuple((float(v), int(c)) for v, c in zip(unique, counts))


def _scan_vectors(rng, n, m, values, density, duplicates, zero_rows):
    """An (n, m) matrix of one kind of entries, with copied and zero rows.

    ``values`` is "binary", "signed" (integers in [-3, 3]), "at-bound" (the
    largest integers with 4 m max|a|^2 <= 2^53, which keep Gram values exact),
    "past-bound" (one unit larger) or "lognormal"; ``density`` is the share
    of nonzero entries. The bound kinds put the largest distance their peak
    allows between rows 0 and 1.
    """
    peak = math.isqrt(2**53 // (4 * m)) + (values == "past-bound")
    nonzero = rng.random((n, m)) < density
    if values == "lognormal":
        vectors = nonzero * rng.lognormal(0.0, 2.0, (n, m))
    else:
        low, high = {"binary": (1, 1), "signed": (-3, 3)}.get(values, (-peak, peak))
        vectors = (nonzero * rng.integers(low, high + 1, (n, m))).astype(np.float64)
    for _ in range(duplicates):
        i, j = rng.integers(0, n, 2)
        vectors[j] = vectors[i]
    vectors[rng.integers(0, n, zero_rows)] = 0.0
    if values.endswith("bound"):
        vectors[0], vectors[1] = peak, -peak
    return vectors


class TestNormalizeValues:
    def test_scale_is_max_abs(self):
        scale, train, other = apply_normalization("max-abs", [2.0, -4.0], [1.0])
        assert scale == 4.0
        assert train.tolist() == [0.5, -1.0]
        assert other.tolist() == [0.25]

    def test_single_value_identity(self):
        scale, train, other = apply_normalization("max-abs", [1.0], [])
        assert scale == 1.0 and train.tolist() == [1.0] and other.size == 0

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            apply_normalization("max-abs", [0.0, 0.0])

    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20))
    def test_scale_reconstructs_original(self, values):
        if max(abs(v) for v in values) == 0.0:
            return
        scale, normalized, _ = apply_normalization("max-abs", values)
        rebuilt = scale * normalized
        assert np.all(np.abs(rebuilt - np.array(values)) <= 1e-12 * max(1.0, scale))

    def test_policy_dispatch(self):
        scale, train, _ = apply_normalization("none", [3.0, -6.0])
        assert scale == 1.0 and train.tolist() == [3.0, -6.0]
        with pytest.raises(ArgumentError):
            apply_normalization("zscore", [1.0])


class TestSplitSample:
    def test_sizes(self):
        sampled, tested = split_sample(list(range(10)), 0.4, seed=0)
        assert len(sampled) == 4 and len(tested) == 6
        assert sorted(sampled + tested) == list(range(10))

    def test_full_fraction(self):
        sampled, tested = split_sample([1, 2, 3], 1.0, seed=5)
        assert sorted(sampled) == [1, 2, 3] and tested == []

    def test_deterministic_per_seed(self):
        assert split_sample(list(range(20)), 0.5, 7) == split_sample(list(range(20)), 0.5, 7)

    def test_seeds_produce_distinct_splits(self):
        splits = {tuple(split_sample([1, 2, 3], 0.5, s)[0]) for s in range(100)}
        assert len(splits) >= 2

    def test_fraction_bounds(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ArgumentError):
                split_sample([1, 2], bad, 0)
        # a split that samples no node is degenerate, not a bad argument
        for nodes, fraction in (([], 0.5), ([1, 2, 3], 0.1)):
            with pytest.raises(DegenerateInputError, match="takes no node"):
                split_sample(nodes, fraction, 0)

    def test_manifest_round_trip(self, tmp_path):
        sampled, tested = split_sample([str(i) for i in range(9)], 0.4, seed=3)
        path = tmp_path / "split.json"
        write_split_manifest(path, sampled, tested, seed=3, fraction=0.4)
        got_sampled, got_tested, seed, fraction = read_split_manifest(path)
        assert got_sampled == sampled and got_tested == tested
        assert seed == 3 and fraction == 0.4


def test_write_csv_cells(tmp_path, capsys):
    rows = [(1, 0.1, None, "a", np.float64(1 / 3), np.int64(7))]
    path = tmp_path / "out.csv"
    write_csv(path, ("i", "x", "empty", "s", "f", "n"), rows)
    expected = f"i,x,empty,s,f,n\n1,0.1,,a,{1 / 3!r},7\n"
    assert path.read_text(encoding="utf-8") == expected
    write_csv("-", ("i", "x", "empty", "s", "f", "n"), rows)
    assert capsys.readouterr().out == expected
    # a numeric array takes a faster path that must write the same text, over
    # more than one chunk, with one column, with no row, of ints and of bools
    arrays = [np.array([[0.1, 1 / 3, 1e-300], [2.0, -0.0, 123456789.125]]),
              np.random.default_rng(0).standard_normal((2500, 2)), np.array([[0.5], [-7.25]]),
              np.empty((0, 3)), np.arange(-6, 6).reshape(4, 3), np.array([[True, False]])]
    for array in arrays:
        header = [f"c{j}" for j in range(array.shape[1])]
        write_csv(path, header, array)
        write_csv(tmp_path / "generic.csv", header, [tuple(r) for r in array])
        assert path.read_bytes() == (tmp_path / "generic.csv").read_bytes()
    assert path.read_text(encoding="utf-8") == "c0,c1\nTrue,False\n"


class TestDataset:
    def test_values_must_cover_graph(self):
        graph = Graph([(1, 2)])
        with pytest.raises(DataError, match="no nodal value"):
            Dataset(graph=graph, values={1: 0.5})

    def test_extra_values_rejected(self):
        graph = Graph([(1, 2)])
        with pytest.raises(DataError, match="unknown nodes"):
            Dataset(graph=graph, values={1: 0.5, 2: 1.0, 9: 2.0})

    def test_drop_isolated_directed(self):
        # node 3 cites nothing; it disappears along with incident edges
        graph = Graph([(1, 2), (2, 3), (1, 3)], directed=True)
        pruned = drop_isolated(graph)
        assert set(pruned.nodes) == {1, 2}
        assert _weight(pruned, 1, 2) == 1.0 and pruned.edges == ((1, 2, 1.0),)
        # kept nodes stay in first-seen order, one whose only out-edge was dropped included
        pruned = drop_isolated(Graph([(4, 3), (1, 2), (2, 1)], directed=True))
        assert pruned.nodes == (4, 1, 2) and pruned.num_edges == 2

    def test_training_set_validation(self):
        with pytest.raises(ArgumentError):
            TrainingSet(np.ones((2, 3)), np.ones(3))


def test_temperature_distance_statistics_if_installed():
    """Distribution-level check on the installed station graph.

    The exact extremes depend on the random 40% sample, so the reference
    values (min nonzero 1, max 27) are pinned only as bands: a small
    integer minimum and a median maximum in the right decade.
    """
    edges, values = require_data("temperature_jan/unweighted_edges.csv",
                                 "temperature_jan/values.csv")
    dataset = load_dataset(edges, values, weighted=False, directed=False)
    maxima, minima = [], []
    for seed in range(5):
        sampled, _ = split_sample(dataset.node_ids, 0.4, seed)
        stats = pairwise_stats(build_adjacency_vectors(dataset.graph, sampled, sampled))
        assert stats.d_sq_min_nonzero == int(stats.d_sq_min_nonzero)  # unweighted: integers
        minima.append(stats.d_sq_min_nonzero)
        maxima.append(stats.d_sq_max)
    assert min(minima) <= 2.0
    assert 15.0 <= float(np.median(maxima)) <= 40.0
