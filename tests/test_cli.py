"""Command-line interface: subcommands, config precedence, exit codes."""

import builtins
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import skg
from skg.cli import main
from skg.errors import DataError
from skg.model import SkgModel, save_model
from skg.rff import sample_bank
from skg.variance import SELECTION_REPORT_SCHEMA

from test_graph_data import _edge_file, _graph_parts, _oracle_graph, _oracle_values, _value_file


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _unclean(text):
    """``text`` with a byte-order mark, CRLF, a comment, a blank line and padded fields."""
    padded = [" , ".join(line.split(",")) + "\t" for line in text.splitlines()]
    return ("\ufeff# a comment\r\n\r\n" + "\r\n".join(padded) + "\r\n").encode()


def _long_ids(text, n_ids):
    """``text`` with its first ``n_ids`` fields made ids of 19-20 UTF-8 bytes, alike in 8."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    return "".join(",".join([f"nœud-ünïcødé-{f}" for f in row[:n_ids]] + row[n_ids:]) + "\n"
                   for row in rows).encode()


def strict_json(text):
    """``json.loads`` that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def ring_files(tmp_path):
    """A 40-node ring with 20 diameter chords, as a 0/1 and as a weighted edge CSV, and the
    values of 41 nodes. Node 40 has one weighted in-edge and no out-edge, so a directed
    --drop-isolated drops it."""
    n = 40
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    weighted = [(s, d, 1 + s * d % 3 / 2) for s, d in edges + [(0, n)]]
    paths = tmp_path / "ring.csv", tmp_path / "weighted-ring.csv", tmp_path / "ring-values.csv"
    paths[0].write_text("".join(f"{s},{d}\n" for s, d in edges))
    paths[1].write_text("".join(f"{s},{d},{w}\n" for s, d, w in weighted))
    paths[2].write_text("".join(f"{i},{i % 4}\n" for i in range(n + 1)))
    return paths


@pytest.fixture
def adjacency_builds(monkeypatch):
    """Records every adjacency build the CLI makes: each goes through one sort of the arcs,
    whether it ends as a dense matrix or as the sampled matrix's nonzeros."""
    calls = []
    original = skg.graph_data._Nonzeros.of_graph

    def counted(graph, sampled, referencing):
        calls.append((sampled, referencing))
        return original(graph, sampled, referencing)

    monkeypatch.setattr(skg.graph_data._Nonzeros, "of_graph", staticmethod(counted))
    return calls


class TestSelect:
    def test_report_validates_and_reproduces(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(capsys, "select", "--graph", str(edges), "--values",
                                  str(values), "--features", "64", "--seed", "1",
                                  "--out", str(out))
        assert code == 0
        report = json.loads(stdout)
        jsonschema.validate(report, SELECTION_REPORT_SCHEMA)
        assert list(report) == SELECTION_REPORT_SCHEMA["required"]
        assert report["noise_up"]["source"] == "theoretical"
        first = out.read_bytes()
        code, _, _ = run_cli(capsys, "select", "--graph", str(edges), "--values",
                             str(values), "--features", "64", "--seed", "1",
                             "--out", str(out))
        assert code == 0 and out.read_bytes() == first

    def test_degenerate_dataset_exits_4(self, tmp_path, capsys):
        edges = tmp_path / "e.csv"
        values = tmp_path / "v.csv"
        # complete graph with self-loops: every adjacency vector is all-ones
        edges.write_text("a,a\na,b\na,c\nb,b\nb,c\nc,c\n")
        values.write_text("a,1.0\nb,2.0\nc,3.0\n")
        code, _, err = run_cli(capsys, "select", "--graph", str(edges), "--values",
                               str(values), "--fraction", "1.0", "--seed", "0")
        assert code == 4 and "error:" in err

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "select", "--graph", str(tmp_path / "nope.csv"),
                               "--values", str(tmp_path / "nada.csv"))
        assert code == 3

    def test_config_file_with_flag_override(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eta": 0.2, "features": 32}))
        code, stdout, _ = run_cli(capsys, "select", "--graph", str(edges), "--values",
                                  str(values), "--config", str(config))
        assert code == 0
        inputs = json.loads(stdout)["inputs"]
        assert inputs["eta"] == 0.2 and inputs["n_features"] == 32
        code, stdout, _ = run_cli(capsys, "select", "--graph", str(edges), "--values",
                                  str(values), "--config", str(config), "--eta", "0.3")
        assert json.loads(stdout)["inputs"]["eta"] == 0.3

    @pytest.mark.parametrize("text, named", [
        ('{"eta": "0.1"}', "'eta'"), ('{"epochs": "3"}', "'epochs'"),
        ('{"fraction": null}', "'fraction'"), ('{"features": 2.5}', "'features'"),
        ('{"refine": "no"}', "'refine'"), ("3", "JSON object"),
    ])
    def test_mistyped_config_value_exits_2(self, tiny_dataset_files, tmp_path, capsys,
                                           text, named):
        edges, values = tiny_dataset_files
        config = tmp_path / "cfg.json"
        config.write_text(text)
        code, stdout, err = run_cli(capsys, "select", "--graph", str(edges), "--values",
                                    str(values), "--config", str(config))
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and named in err

    def test_unknown_config_key_exits_2(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"learning_rate": 0.2}))
        code, _, _ = run_cli(capsys, "select", "--graph", str(edges), "--values",
                             str(values), "--config", str(config))
        assert code == 2


    def test_a_byte_order_mark_is_ignored(self, tiny_dataset_files, tmp_path, capsys):
        # Excel and Notepad start a UTF-8 file with one; it is no part of the first id. Nor
        # do CRLF, comments, blank lines, padded fields, long multibyte ids or a
        # --drop-isolated that drops no node change the report
        config, small = tmp_path / "config.json", tmp_path / "small.csv"
        config.write_text('{"features": 64}')
        small.write_text("0,1\n1,2\n0,2\n2,3\n")
        plain = [*tiny_dataset_files, config, small]
        marked = [tmp_path / f"bom-{path.name}" for path in plain]
        for path, copy in zip(plain, marked):
            copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for path, copy in ((plain[0], marked[0]), (small, marked[3])):
            assert _graph_parts(skg.load_graph(copy)) == _graph_parts(skg.load_graph(path))
        assert list(skg.load_values(marked[1]).items()) == list(skg.load_values(plain[1]).items())
        edges, values = tiny_dataset_files
        runs = [[edges, values, config], marked[:3], [edges, values, config, "--drop-isolated"]]
        for name, rewrite in (("unclean", lambda text, _: _unclean(text)), ("long", _long_ids)):
            copies = [tmp_path / f"{name}-{path.name}" for path in (edges, values)]
            for path, copy, n_ids in zip((edges, values), copies, (2, 1)):
                copy.write_bytes(rewrite(path.read_text(), n_ids))
            runs.append([*copies, config])
        reports = [run_cli(capsys, "select", "--graph", str(graph), "--values", str(vals),
                           "--config", str(conf), *flags) for graph, vals, conf, *flags in runs]
        assert reports[0][0] == 0 and all(report == reports[0] for report in reports)


class TestStats:
    def test_summary_fields(self, tiny_dataset_files, capsys):
        edges, _ = tiny_dataset_files
        code, stdout, _ = run_cli(capsys, "stats", "--graph", str(edges), "--seed", "1")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n_sampled"] == 16 and payload["n_pairs"] == 120
        assert payload["d_sq_max"] >= payload["d_sq_min_nonzero"] > 0

    @pytest.mark.parametrize("text", ["a,b\nb,b\n", "a,b\nc,b\nd,e\nd,a\ne,e\nf,c\n"])
    def test_summary_extremes_equal_the_scan(self, text, tmp_path, capsys):
        # zero-distance pairs head the histogram; an all-zero one has no nonzero minimum
        edges = tmp_path / "edges.csv"
        edges.write_text(text, encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "stats", "--graph", str(edges), "--directed",
                                  "--fraction", "1.0")
        assert code == 0
        graph = skg.load_graph(edges, directed=True)
        stats = skg.pairwise_stats(skg.build_adjacency_vectors(graph, graph.nodes, graph.nodes))
        payload = json.loads(stdout)
        assert (payload["n_pairs"], payload["d_sq_max"], payload["d_sq_min_nonzero"]) == \
            (stats.n_pairs, stats.d_sq_max, stats.d_sq_min_nonzero)

    def test_histogram_export(self, ring_files, tmp_path, capsys):
        # every sampled pair is counted once, from exact Gram blocks on the ring and from
        # differences on the weighted ring. A chord between two sampled nodes left out, or
        # repeated last, reversed, at weight 0 (the last weight wins), reads the same
        edges, weighted, values = ring_files
        hist = tmp_path / "hist.csv"
        for graph in (["--graph", str(edges)], ["--graph", str(weighted), "--weighted"]):
            code, _, _ = run_cli(capsys, "stats", *graph, "--seed", "1", "--hist-out", str(hist))
            assert code == 0
            lines = hist.read_text().strip().splitlines()
            assert lines[0] == "d_sq,count"
            assert sum(int(line.split(",")[1]) for line in lines[1:]) == 120
        sampled = set(skg.split_sample(skg.load_graph(weighted).nodes, 0.4, 1)[0])
        rows = weighted.read_text().splitlines(keepends=True)
        at = next(i for i in range(40, 60) if set(rows[i].split(",")[:2]) <= sampled)
        src, dst, _ = rows[at].split(",")
        printed = []
        for name, text in (("chordless", rows[:at] + rows[at + 1:]),
                           ("zeroed", rows + [f"{dst},{src},0\n"])):
            (tmp_path / name).write_text("".join(text))
            data = ["--graph", str(tmp_path / name), "--weighted", "--seed", "1"]
            printed.append((run_cli(capsys, "select", *data, "--values", str(values)),
                            run_cli(capsys, "stats", *data, "--hist-out", str(hist)),
                            hist.read_bytes()))
        assert printed[0][0][0] == 0 and printed[0] == printed[1]

    def test_invalid_config_exits_2_and_writes_nothing(self, tiny_dataset_files, tmp_path,
                                                       capsys):
        # stats builds a RunConfig like every other subcommand, so it validates it too, from
        # a flag or from a config file
        edges, _ = tiny_dataset_files
        out, hist, config = tmp_path / "stats.json", tmp_path / "hist.csv", tmp_path / "c.json"
        config.write_text('{"normalization": "bogus"}')
        for flags, named in ((["--eta", "2"], "eta"), (["--config", str(config)], "bogus")):
            code, stdout, err = run_cli(capsys, "stats", "--graph", str(edges), *flags,
                                        "--out", str(out), "--hist-out", str(hist))
            assert code == 2 and stdout == "" and err.startswith("error:") and named in err
            assert not out.exists() and not hist.exists()


@pytest.fixture(scope="module")
def dense_planted_files(tmp_path_factory):
    """A dense 1000-node planted graph as weighted and as 0/1 edge CSVs, and its values."""
    ds = skg.planted_community_dataset(n_nodes=1000, n_communities=3, p_in=0.5, p_out=0.2,
                                       seed=5)
    weights = np.random.default_rng(5).uniform(0.5, 2.0, ds.graph.num_edges).tolist()
    folder = tmp_path_factory.mktemp("dense")
    weighted, unweighted = folder / "weighted.csv", folder / "unweighted.csv"
    values = folder / "values.csv"
    weighted.write_text("".join(f"{s},{d},{w!r}\n"
                                for (s, d, _), w in zip(ds.graph.edges, weights)))
    unweighted.write_text("".join(f"{s},{d}\n" for s, d, _ in ds.graph.edges))
    values.write_text("".join(f"{node},{value!r}\n" for node, value in ds.values.items()))
    return weighted, unweighted, values


_SRC = str(Path(skg.__file__).parents[1])


def _cli_at_blas_threads(threads, *argv, **kwargs):
    """stdout of ``python -m skg.cli argv`` in a fresh process with that many BLAS threads;
    a nonzero exit raises ``CalledProcessError``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "skg.cli", *map(str, argv)], env=env,
                          capture_output=True, check=True, **kwargs).stdout


# runs each argv of the JSON list on stdin through one skg.cli.main; prints each exit code
# and stdout, how many skg parsers were built, and which modules named in sys.argv are loaded
_CHILD = """
import argparse, contextlib, io, json, sys
built, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = counted
import skg.cli
runs = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append((skg.cli.main(argv), out.getvalue()))
print(json.dumps({"runs": runs, "parsers": built.count("skg"),
                  "loaded": sorted(set(sys.argv[1:]) & set(sys.modules))}))
"""


def test_every_command_runs_numpy_only_in_one_interpreter(ring_files, tmp_path):
    # an interpreter without pytest runs every command, also directed, weighted and with a
    # node that --drop-isolated drops: each exits 0 and prints strict JSON, all share one
    # parser, no test extra is imported, and predict writes one finite row per target
    edges, weighted, values = ring_files
    out = tmp_path.joinpath
    data = ["--graph", edges, "--values", values]
    tested = skg.split_sample([str(i) for i in range(40)], 0.4, 0)[1][0]
    commands = [
        ["stats", "--graph", edges, "--hist-out", out("hist.csv")],
        ["select", *data], ["select", *data, "--refine"],
        ["train", *data, "--model-out", out("model.json"), "--split-out", out("split.json"),
         "--trace-out", out("trace.csv")],
        ["predict", "--model", out("model.json"), *data, "--split", out("split.json"),
         "--out", out("predictions.csv")],
        ["sweep", *data, "--repeats", "2", "--grid-points", "3", "--out", out("sweep.csv")],
        ["analyze", *data, "--test-node", tested, "--trace-out", out("bf.csv"),
         "--scatter-out", out("scatter.csv")],
    ]
    weighted_data = ["--graph", weighted, "--values", values, "--weighted"]
    variants = {"directed": ([*data, "--directed"], 40), "weighted": (weighted_data, 41),
                "dropped": ([*weighted_data, "--directed", "--drop-isolated"], 40)}
    for name, (flags, _) in variants.items():
        model = out(f"{name}.json")
        commands += [["select", *flags], ["train", *flags, "--model-out", model],
                     ["predict", "--model", model, *flags, "--out", out(f"{name}-all.csv")],
                     ["predict", "--model", model, *flags, "--nodes", f"{tested},{tested}",
                      "--out", out(f"{name}-named.csv")]]
    child = subprocess.run([sys.executable, "-c", _CHILD, "scipy", "hypothesis", "jsonschema",
                            "pytest"], input=json.dumps(commands, default=str), capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=_SRC))
    assert child.returncode == 0, child.stderr
    verdict = json.loads(child.stdout)
    assert [(code, type(strict_json(stdout))) for code, stdout in verdict["runs"]] == \
        [(0, dict)] * len(commands), child.stderr
    assert verdict["parsers"] == 1 and verdict["loaded"] == []
    for name, (_, nodes) in variants.items():
        for csv, count in ((f"{name}-all.csv", nodes), (f"{name}-named.csv", 2)):
            rows = out(csv).read_text().splitlines()[1:]
            assert len(rows) == count, (csv, rows)
            assert all(math.isfinite(float(row.split(",")[1])) for row in rows), rows


@pytest.mark.parametrize("argv", [["train", "--sigma-sq", "1", "--model-out"],
                                  ["select", "--refine", "--out"]])
def test_a_run_out_of_memory_exits_2(tiny_dataset_files, tmp_path, argv):
    # a bank of 10**8 features takes 12 GiB, past the child's 2 GiB address space
    edges, values = tiny_dataset_files
    out = tmp_path / "out.json"
    with pytest.raises(subprocess.CalledProcessError) as failed:
        _cli_at_blas_threads("1", *argv, out, "--graph", edges, "--values", values,
                             "--features", "100000000", preexec_fn=lambda: resource.setrlimit(
                                 resource.RLIMIT_AS, (2**31, 2**31)))
    err = failed.value.stderr.decode()
    assert (failed.value.returncode, failed.value.stdout, err.count("\n")) == (2, b"", 1), err
    assert err.startswith("error: not enough memory for this run: ") and not out.exists()


def test_select_and_stats_bytes_hold_across_blas_threads(dense_planted_files, tmp_path):
    # select, stats and the scatter export report exact distances, so their bytes do not
    # depend on how many threads BLAS splits its products over; on a graph this dense and
    # this large the scan takes the BLAS Gram product, whose blocks are exact on the 0/1
    # graph (the histogram and the scatter read them) and only pick the pairs to
    # recompute on the weighted one. Training's feature products, which are not exact,
    # do change with the thread count
    weighted, unweighted, values = dense_planted_files
    outputs = []
    for threads in ("1", "2"):
        runs = []
        for graph, flags in ((weighted, ["--weighted"]), (unweighted, [])):
            data = ["--graph", graph, *flags]
            hist, scatter = tmp_path / f"hist-{threads}.csv", tmp_path / f"scatter-{threads}.csv"
            runs += [_cli_at_blas_threads(threads, "select", *data, "--values", values),
                     _cli_at_blas_threads(threads, "stats", *data, "--hist-out", hist),
                     hist.read_bytes(),
                     _cli_at_blas_threads(threads, "analyze", *data, "--values", values,
                                          "--sigma-sq", "3.5", "--scatter-out", scatter)
                     .replace(bytes(scatter), b"scatter.csv"),
                     scatter.read_bytes()]
        outputs.append(runs)
    assert outputs[0] == outputs[1]


def test_train_and_refine_agree_across_blas_threads(dense_planted_files, tmp_path):
    # the feature and recursion products of train and select --refine may sum in another
    # order on another BLAS thread count, so their scores agree only to a few ulps. On
    # this graph, seeds 0-3 and both weightings, 1 against 2 OpenBLAS 0.3.31 threads on a
    # 2-vCPU x86-64 box, the largest relative difference measured was 3.8e-16 for
    # noise_up and 2.0e-16 for test_gnmse; the bound leaves a margin of over 2000
    weighted, _, values = dense_planted_files
    data = ["--graph", weighted, "--weighted", "--values", values, "--seed", "1"]
    scores = []
    for threads in ("1", "2"):
        trained = json.loads(_cli_at_blas_threads(threads, "train", *data,
                                                  "--model-out", tmp_path / "model.json"))
        refined = json.loads(_cli_at_blas_threads(threads, "select", "--refine", *data))
        assert refined["noise_up"]["source"] == "refined"
        scores.append((trained["test_gnmse"], refined["noise_up"]["value"]))
    for one, two in zip(*scores):
        assert two == pytest.approx(one, rel=1e-12, abs=0.0)


def test_no_command_makes_more_than_511_rows_dense(tmp_path, capsys, monkeypatch):
    # features are made from the nonzero records 256 to 511 rows at a time, so no command
    # builds a whole dense adjacency matrix; 560 sampled and 840 tested nodes of a sparse
    # directed graph, whose exact pair scan (and scatter) reads co-occurrences
    rng = np.random.default_rng(4)
    edges, values = tmp_path / "g.csv", tmp_path / "v.csv"
    edges.write_text("".join(f"{s},{d}\n" for s, d in rng.integers(0, 1400, (8400, 2)).tolist()))
    values.write_text("".join(f"{node},{node % 5}\n" for node in range(1400)))
    data = ["--graph", str(edges), "--values", str(values), "--directed"]
    run = ["--features", "16", "--sigma-sq", "20"]
    model, split = str(tmp_path / "m.json"), tmp_path / "split.json"
    rows = []
    dense = skg.graph_data._Nonzeros.dense

    def counted(record, taken=None, out=None):
        block = dense(record, taken, out)
        rows.append(block.shape[0])
        return block

    monkeypatch.setattr(skg.graph_data._Nonzeros, "dense", counted)
    assert run_cli(capsys, "train", *data, *run, "--model-out", model,
                   "--split-out", str(split), "--trace-out", str(tmp_path / "t.csv"))[0] == 0
    assert 256 <= max(rows) <= 511, rows
    tested = json.loads(split.read_text())["tested"]
    nodes = ",".join(tested[:1] + tested)  # all 840 tested nodes, the first one twice
    for argv in (["select", *data], ["select", "--refine", *data],
                 ["stats", *data, "--hist-out", str(tmp_path / "h.csv")],
                 ["predict", "--model", model, *data, "--split", str(split)],
                 ["predict", "--model", model, *data],
                 ["predict", "--model", model, *data, "--nodes", nodes],
                 ["analyze", *data, *run, "--test-node", tested[0],
                  "--trace-out", str(tmp_path / "bf.csv")],
                 ["analyze", *data, *run, "--scatter-out", str(tmp_path / "scatter.csv")],
                 ["sweep", *data, *run[:2], "--repeats", "2", "--grid-points", "2",
                  "--out", str(tmp_path / "s.csv")]):
        rows.clear()
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv[:2], err)
        assert max(rows, default=0) <= 511, (argv[:2], max(rows))
        if argv[0] in ("predict", "sweep"):
            assert max(rows) >= 256, (argv[:2], rows)


class TestTrainPredict:
    def test_round_trip(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        model = tmp_path / "model.json"
        split = tmp_path / "split.json"
        trace = tmp_path / "trace.csv"
        code, stdout, _ = run_cli(capsys, "train", "--graph", str(edges), "--values",
                                  str(values), "--features", "64", "--seed", "1",
                                  "--model-out", str(model), "--split-out", str(split),
                                  "--trace-out", str(trace))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["duration"] == summary["n_sampled"] * 3
        assert np.isfinite(summary["test_gnmse"])

        preds = tmp_path / "preds.csv"
        code, stdout, _ = run_cli(capsys, "predict", "--model", str(model), "--graph",
                                  str(edges), "--split", str(split), "--values",
                                  str(values), "--out", str(preds))
        assert code == 0
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "node_id,prediction"
        assert len(lines) == 1 + summary["n_tested"]
        # the metric reported by predict matches the training summary
        reported = json.loads(stdout.strip().splitlines()[-1])["gnmse"]
        assert reported == pytest.approx(summary["test_gnmse"], rel=1e-9)

        # byte-identical predictions on a second run
        first = preds.read_bytes()
        run_cli(capsys, "predict", "--model", str(model), "--graph", str(edges),
                "--split", str(split), "--out", str(preds))
        assert preds.read_bytes() == first

    def test_predict_reads_the_model_file_once(self, tiny_dataset_files, tmp_path, capsys,
                                               monkeypatch):
        edges, values = tiny_dataset_files
        model = tmp_path / "model.json"
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "16", "--model-out", str(model))
        opened, io_open = [], io.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return io_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)  # pathlib opens through io.open
        code, _, err = run_cli(capsys, "predict", "--model", str(model), "--graph", str(edges))
        assert code == 0 and opened.count(str(model)) == 1, (err, opened)

    def test_zero_model_predicts_zero(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        model_path = tmp_path / "zero.json"
        bank = sample_bank(2.0, 16, 3, seed=0)
        save_model(model_path, SkgModel(bank=bank, eta=0.1),
                   referencing=["0", "1", "2"], value_scale=1.0)
        code, stdout, _ = run_cli(capsys, "predict", "--model", str(model_path),
                                  "--graph", str(edges), "--nodes", "5,6")
        assert code == 0
        rows = stdout.strip().splitlines()[1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)

    def test_unknown_target_node_exits_3(self, tiny_dataset_files, tmp_path, capsys):
        edges, _ = tiny_dataset_files
        model_path, preds = tmp_path / "zero.json", tmp_path / "preds.csv"
        save_model(model_path, SkgModel(bank=sample_bank(2.0, 16, 3, seed=0), eta=0.1),
                   referencing=["0", "1", "2"], value_scale=1.0)
        code, stdout, err = run_cli(capsys, "predict", "--model", str(model_path), "--graph",
                                    str(edges), "--nodes", "3,zzz", "--out", str(preds))
        assert (code, stdout, err) == (3, "", "error: target node 'zzz' is not in the graph\n")
        assert not preds.exists()

    @pytest.mark.parametrize("nodes", [",", " , ,", ""])
    @pytest.mark.parametrize("scored", [False, True])
    def test_nodes_naming_no_target_exit_2(self, tiny_dataset_files, tmp_path, capsys, nodes,
                                           scored):
        # refused up front, with or without values to score against: never a header-only CSV
        edges, values = tiny_dataset_files
        model_path, preds = tmp_path / "zero.json", tmp_path / "preds.csv"
        save_model(model_path, SkgModel(bank=sample_bank(2.0, 16, 3, seed=0), eta=0.1),
                   referencing=["0", "1", "2"], value_scale=1.0)
        code, stdout, err = run_cli(capsys, "predict", "--model", str(model_path), "--graph",
                                    str(edges), *(["--values", str(values)] * scored),
                                    "--nodes", nodes, "--out", str(preds))
        assert (code, stdout, err) == (2, "", "error: --nodes names no target node\n")
        assert not preds.exists()

    def test_train_is_byte_reproducible(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        models = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            code, _, _ = run_cli(capsys, "train", "--graph", str(edges), "--values",
                                 str(values), "--features", "64", "--seed", "9",
                                 "--model-out", str(path))
            assert code == 0
            models.append(path.read_bytes())
        assert models[0] == models[1]

    def test_overflowing_values_never_report_nan(self, tmp_path, capsys):
        # squares of the values overflow float64: the score is rescaled, or the run exits 4
        edges, values, model = tmp_path / "g.csv", tmp_path / "v.csv", tmp_path / "m.json"
        edges.write_text("a,b\nb,c\nc,a\nc,d\n")
        values.write_text("a,1e200\nb,-1e200\nc,1e200\nd,1\n")
        data = ["--graph", str(edges), "--values", str(values)]
        code, stdout, err = run_cli(capsys, "train", *data, "--sigma-sq", "1.0",
                                    "--normalization", "none", "--model-out", str(model))
        assert (code, err) == (0, "") and math.isfinite(strict_json(stdout)["test_gnmse"])
        code, stdout, err = run_cli(capsys, "predict", "--model", str(model), *data)
        assert code in (0, 4)
        if code == 0:
            assert err == "" and math.isfinite(strict_json(stdout.splitlines()[-1])["gnmse"])

    @pytest.mark.parametrize("edge_text, flags", [
        ("a,b,1e308\nb,c,1\nc,d,1\nd,a,1\n", ("--sigma-sq", "1", "--fraction", "0.75")),
        # the tested node e reads the huge weight: its prediction, not training, overflows
        ("a,b,1\nb,c,1\nc,d,1\nd,a,1\ne,a,1e308\n",
         ("--directed", "--fraction", "0.8", "--seed", "4"))], ids=["training", "tested"])
    def test_overflowing_phases_exit_4_and_write_nothing(self, tmp_path, capsys, edge_text,
                                                         flags):
        edges, values, model = tmp_path / "g.csv", tmp_path / "v.csv", tmp_path / "m.json"
        edges.write_text(edge_text)
        values.write_text("a,1\nb,2\nc,3\nd,4\ne,5\n")
        code, stdout, err = run_cli(capsys, "train", "--graph", str(edges), "--values",
                                    str(values), "--weighted", *flags, "--model-out", str(model))
        assert (code, stdout) == (4, "") and err.count("\n") == 1 and "phases overflow" in err
        assert not model.exists()

    def test_underflowing_values_are_scored(self, tmp_path, capsys):
        # t @ t rounds to 0.0 on values of 1e-170, although none of them is zero
        edges, values, model = tmp_path / "g.csv", tmp_path / "v.csv", tmp_path / "m.json"
        edges.write_text("a,b\nb,c\nc,a\nc,d\n")
        values.write_text("a,1e-170\nb,-1e-170\nc,1e-170\nd,-1e-170\n")
        data = ["--graph", str(edges), "--values", str(values)]
        code, stdout, err = run_cli(capsys, "train", *data, "--sigma-sq", "1.0",
                                    "--normalization", "none", "--model-out", str(model))
        assert (code, err) == (0, "") and math.isfinite(strict_json(stdout)["test_gnmse"])

    def test_overflowing_predictions_write_nothing(self, tmp_path, capsys):
        edges, values, model = tmp_path / "g.csv", tmp_path / "v.csv", tmp_path / "m.json"
        edges.write_text("a,b\nb,c\nc,a\nc,d\n")
        values.write_text("a,1\nb,-1\nc,1\nd,2\n")
        data = ["--graph", str(edges), "--values", str(values)]
        assert run_cli(capsys, "train", *data, "--sigma-sq", "1.0",
                       "--model-out", str(model))[0] == 0
        payload = json.loads(model.read_text())
        payload["theta"] = [(1e308).hex()] * len(payload["theta"])
        model.write_text(json.dumps(payload))
        out = tmp_path / "big.csv"
        for scored in (data, data[:2]):
            code, stdout, err = run_cli(capsys, "predict", "--model", str(model), *scored,
                                        "--out", str(out))
            assert code == 4 and stdout == "" and "not finite" in err
            assert not out.exists()

    def test_non_finite_summary_exits_4(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(skg.cli, "cmd_stats", lambda args: skg.cli._emit(
            {"d_sq_max": math.inf}, tmp_path / "out.json"))
        code, stdout, err = run_cli(capsys, "stats", "--graph", "g")
        assert code == 4 and stdout == "" and "non-finite" in err
        assert not (tmp_path / "out.json").exists()

    def test_unstable_learning_rate_exits_2(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        code, _, err = run_cli(capsys, "train", "--graph", str(edges), "--values",
                               str(values), "--eta", "1.5",
                               "--model-out", str(tmp_path / "m.json"))
        assert code == 2 and "error:" in err

    def test_missing_target_values_write_nothing(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        model, split = tmp_path / "m.json", tmp_path / "split.json"
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "64", "--seed", "1", "--model-out", str(model),
                "--split-out", str(split))
        partial = tmp_path / "partial.csv"
        partial.write_text("".join(values.read_text().splitlines(keepends=True)[:3]))
        preds = tmp_path / "preds.csv"
        code, stdout, err = run_cli(capsys, "predict", "--model", str(model), "--graph",
                                    str(edges), "--split", str(split), "--values",
                                    str(partial), "--out", str(preds))
        assert code == 3 and "error:" in err
        assert not preds.exists() and stdout == ""

    def test_bad_sigma_exits_2(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        code, _, _ = run_cli(capsys, "train", "--graph", str(edges), "--values",
                             str(values), "--sigma-sq", "-3",
                             "--model-out", str(tmp_path / "m.json"))
        assert code == 2

    @pytest.mark.parametrize("command, output_flags", [
        ("train", ("--model-out", "--split-out", "--trace-out")),
        ("analyze", ("--trace-out", "--scatter-out")),
    ])
    @pytest.mark.parametrize("sigma_sq", ["inf", "nan"])
    def test_non_finite_sigma_exits_2_and_writes_nothing(self, tiny_dataset_files, tmp_path,
                                                          capsys, command, output_flags,
                                                          sigma_sq):
        edges, values = tiny_dataset_files
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = ["--test-node", "5"] if command == "analyze" else []
        for flag in output_flags:
            argv += [flag, str(out_dir / flag.lstrip("-"))]
        code, stdout, err = run_cli(capsys, command, "--graph", str(edges), "--values",
                                    str(values), "--sigma-sq", sigma_sq, *argv)
        assert code == 2 and "finite" in err and stdout == ""
        assert list(out_dir.iterdir()) == []


def _without(key):
    def edit(payload):
        del payload[key]
    return edit


def _setting(key, value):
    def edit(payload):
        payload[key] = value
    return edit


def _first(key, value):
    def edit(payload):
        payload[key][0] = value
    return edit


# weighted triangles: one weight's square overflows float64, or one vector's squared norm does
_OVERFLOWING = ("a,b,2e154\nb,c,1\na,c,1\n", "a,b,1e200\nb,c,0.5\na,c,0.5\n")


class TestMalformedInputs:
    @pytest.mark.parametrize("command, flag", [
        ("stats", "--graph"), ("select", "--graph"), ("select", "--values"),
        ("select", "--config"),
    ])
    def test_undecodable_file_exits_3(self, tiny_dataset_files, tmp_path, capsys, command,
                                      flag):
        edges, values = tiny_dataset_files
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n\xff\xfe,3\n")
        files = {"--graph": edges, "--values": values} if command == "select" else {
            "--graph": edges}
        files[flag] = bad
        argv = [str(part) for item in files.items() for part in item]
        code, stdout, err = run_cli(capsys, command, *argv)
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("target, edit", [
        ("model", None),
        ("model", _without("theta")),
        ("model", _setting("theta", ["0x1.0p+0", "zz"])),
        ("model", _setting("theta", "0x1.0p+0")),
        ("model", _setting("sigma_sq", 2.0)),
        ("model", _setting("sigma_sq", float("inf").hex())),
        ("model", _setting("eta", (1.5).hex())),
        ("model", _setting("referencing", "0,1")),
        ("model", _setting("referencing", [["0"], ["1"]])),
        ("model", _first("referencing", {"0": 1})),
        ("model", _setting("value_scale", "inf")),
        ("model", _setting("bank_seed", True)),
        ("model", _setting("bank_seed", 7.9)),
        ("model", _setting("bank_seed", "7")),
        ("model", _setting("n_features", 16.0)),
        ("model", _setting("input_dim", 80.6)),
        ("model", _setting("input_dim", 10**9)),
        ("model", _setting("n_features", 10**8)),
        ("split", None),
        ("split", _without("sampled")),
        ("split", _without("tested")),
        ("split", _setting("tested", {"5": 1})),
        ("split", _setting("tested", [["5"]])),
        ("split", _first("sampled", {"0": 1})),
    ], ids=["model-not-json", "model-no-theta", "model-bad-hex", "model-theta-not-list",
            "model-sigma-not-hex", "model-sigma-infinite", "model-eta-out-of-range",
            "model-referencing-not-list",
            "model-referencing-unhashable", "model-referencing-object", "model-infinite-scale",
            "model-seed-bool", "model-seed-fraction", "model-seed-string", "model-features-float",
            "model-dim-fraction", "model-dim-huge", "model-features-huge", "split-not-json",
            "split-no-sampled", "split-no-tested", "split-tested-not-list",
            "split-tested-unhashable", "split-sampled-object"])
    def test_malformed_model_or_split_exits_3(self, tiny_dataset_files, tmp_path, capsys,
                                              target, edit):
        edges, values = tiny_dataset_files
        paths = {"model": tmp_path / "m.json", "split": tmp_path / "split.json"}
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "16", "--seed", "1", "--model-out", str(paths["model"]),
                "--split-out", str(paths["split"]))
        broken = paths[target]
        if edit is None:
            broken.write_text(broken.read_text()[:-10])
        else:
            payload = json.loads(broken.read_text())
            edit(payload)
            broken.write_text(json.dumps(payload))
        preds = tmp_path / "preds.csv"
        code, stdout, err = run_cli(capsys, "predict", "--model", str(paths["model"]),
                                    "--graph", str(edges), "--split", str(paths["split"]),
                                    "--out", str(preds))
        assert code == 3 and stdout == ""
        assert err.startswith("error:") and str(broken) in err
        assert not preds.exists()

    @pytest.mark.parametrize("scored", [False, True])
    def test_split_without_tested_nodes_exits_3(self, tiny_dataset_files, tmp_path, capsys,
                                                scored):
        # train never writes such a manifest; predicting it would score or write nothing
        edges, values = tiny_dataset_files
        model, split = tmp_path / "m.json", tmp_path / "split.json"
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "16", "--model-out", str(model), "--split-out", str(split))
        split.write_text(json.dumps(json.loads(split.read_text()) | {"tested": []}))
        preds = tmp_path / "preds.csv"
        code, stdout, err = run_cli(capsys, "predict", "--model", str(model), "--graph",
                                    str(edges), "--split", str(split), "--out", str(preds),
                                    *(["--values", str(values)] if scored else []))
        assert (code, stdout) == (3, "")
        assert f"{split}: split manifest names no tested node" in err and "Traceback" not in err
        assert not preds.exists()

    @pytest.mark.parametrize("input_dim", [None, 10**9])
    def test_model_without_referencing_exits_3_before_the_bank_is_drawn(
            self, tiny_dataset_files, tmp_path, capsys, monkeypatch, input_dim):
        # without the list, input_dim (n_features * input_dim floats for the bank) has
        # nothing to be checked against; a drawn 10**9-column bank raised MemoryError
        edges, values = tiny_dataset_files
        model = tmp_path / "m.json"
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "16", "--seed", "1", "--model-out", str(model))
        payload = json.loads(model.read_text())
        del payload["referencing"]
        payload["input_dim"] = input_dim or payload["input_dim"]
        model.write_text(json.dumps(payload))

        def drawn(*args):
            raise AssertionError("the bank was drawn")

        monkeypatch.setattr(skg.model, "sample_bank", drawn)
        code, stdout, err = run_cli(capsys, "predict", "--model", str(model),
                                    "--graph", str(edges))
        assert (code, stdout) == (3, "")
        assert err == f"error: {model}: model lacks a referencing node list\n"

    @pytest.mark.parametrize("text, argv", [
        ("# only a comment\n", ["stats"]),
        ("# only a comment\n", ["select"]),
        ("a,b\nb,c\n", ["stats"]),
        ("a,b\nb,c\n", ["select"]),
        ("a,b\nb,c\n", ["train"]),
        ("a,b\nb,c\n", ["sweep", "--repeats", "1", "--grid-points", "3"]),
        ("a,b\nb,c\n", ["train", "--sigma-sq", "1", "--fraction", "0.1"]),
        ("a,b\nb,c\n", ["analyze", "--sigma-sq", "1"]),
        *[(text, [*argv, "--weighted", "--fraction", "1"]) for text in _OVERFLOWING
          for argv in (["select"], ["stats"], ["analyze", "--sigma-sq", "1"])],
    ], ids=["stats-no-node", "select-no-node", "stats-one-sampled", "select-one-sampled",
            "train-auto-one-sampled", "sweep-one-sampled", "train-none-sampled",
            "analyze-scatter-one-sampled", "select-weight-square-overflows",
            "stats-weight-square-overflows", "analyze-scatter-weight-square-overflows",
            "select-norm-overflows", "stats-norm-overflows", "analyze-scatter-norm-overflows"])
    def test_too_small_a_sample_exits_4(self, tmp_path, capsys, text, argv):
        # a split that samples no node, or one too few to scan, is degenerate input; a
        # weight whose square, or a vector whose squared norm, overflows float64 is refused
        # before the scan
        edges, values, out = tmp_path / "g.csv", tmp_path / "v.csv", tmp_path / "out"
        edges.write_text(text, encoding="utf-8")
        values.write_text("a,1\nb,2\nc,3\n", encoding="utf-8")
        files = ["--graph", str(edges)] + ["--values", str(values)] * (argv[0] != "stats")
        outputs = {"stats": "--out", "select": "--out", "sweep": "--out",
                   "train": "--model-out", "analyze": "--scatter-out"}
        code, stdout, err = run_cli(capsys, *argv, *files, outputs[argv[0]], str(out))
        assert code == 4 and stdout == "" and "Traceback" not in err
        assert err.startswith("error:") and not out.exists()
        assert ("overflow" in err) == (text in _OVERFLOWING)

    def test_values_of_nodes_without_edges_are_ignored(self, tmp_path, capsys):
        # a node with no edge is absent from the edge list, but may have a value
        edges, values = tmp_path / "g.csv", tmp_path / "v.csv"
        edges.write_text("a,b\nb,c\nc,d\nd,a\na,c\n", encoding="utf-8")
        values.write_text("a,1\nstray,9\nb,2\nc,3\nd,4\n", encoding="utf-8")
        split, model = tmp_path / "split.json", tmp_path / "m.json"
        code, _, err = run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                               "--features", "16", "--fraction", "0.5", "--sigma-sq", "1",
                               "--model-out", str(model), "--split-out", str(split))
        assert code == 0, err
        manifest = json.loads(split.read_text())
        assert sorted(manifest["sampled"] + manifest["tested"]) == ["a", "b", "c", "d"]


# each data command's output flags; the run options keep every training run small
_CONTRACT_OUTPUTS = {
    "stats": ["--out", "out.json"], "select": ["--out", "out.json"],
    "train": ["--features", "8", "--model-out", "model.json"],
    "sweep": ["--features", "8", "--repeats", "1", "--grid-points", "2", "--out", "sweep.csv"],
    "analyze": ["--features", "8", "--scatter-out", "scatter.csv", "--trace-out", "trace.csv"],
    "predict": ["--out", "predictions.csv"],
}


class TestMalformedCsvContract:
    """Each data command on random, often malformed, CSVs against the row parser."""

    @given(data=st.data(), command=st.sampled_from(sorted(_CONTRACT_OUTPUTS)),
           malformed=st.booleans(), weighted=st.booleans(), directed=st.booleans())
    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_message_and_output(self, tmp_path_factory, capsys, data, command,
                                          malformed, weighted, directed):
        folder = tmp_path_factory.mktemp("contract")
        graph, values = folder / "g.csv", folder / "v.csv"
        graph.write_bytes(data.draw(_edge_file(malformed)).encode("utf-8"))
        outputs = [str(folder / flag) if flag.endswith((".json", ".csv")) else flag
                   for flag in _CONTRACT_OUTPUTS[command]]
        argv = [command, "--graph", str(graph), *outputs]
        argv += ["--weighted"] * weighted + ["--directed"] * directed
        expected, nodes = None, ()
        try:
            nodes = _oracle_graph(str(graph), weighted, directed)[0]
        except DataError as exc:
            expected = f"error: {exc}\n"
        if command != "stats":  # the value file holds the graph's node ids
            values.write_bytes(data.draw(_value_file(malformed, nodes)).encode("utf-8"))
            argv += ["--values", str(values)]
            try:
                _oracle_values(str(values))
            except DataError as exc:
                expected = expected or f"error: {exc}\n"
        if command in ("train", "analyze"):  # a set variance trains on one sampled node too
            argv += ["--sigma-sq", data.draw(st.sampled_from(["auto", "1"]))]
        if command == "analyze":  # the probe node may be sampled, or not in the graph
            argv += ["--test-node", data.draw(st.sampled_from(list(nodes) + ["a"]))]
        named_none = False
        if command == "predict":
            named_none = self._predict_argv(data, capsys, tmp_path_factory, argv, nodes)
        code, stdout, err = run_cli(capsys, *argv)
        event(f"{command}: exit {code}")
        assert code in (0, 2, 3, 4) and "Traceback" not in err
        if named_none:
            assert (code, err) == (2, "error: --nodes names no target node\n")
        elif expected is not None and command == "predict":
            # predict reads the model first, which train, failing on these files, never wrote
            assert code == 3 and err.startswith("error: "), err
        elif expected is not None:
            assert (code, err) == (3, expected)
        else:  # the argv is valid, so what the files hold never exits 2
            assert code != 2, err
        if code != 0:  # a failing run writes no file
            assert {path.name for path in folder.iterdir()} <= {graph.name, values.name}, err
        elif command != "predict":
            strict_json(stdout)
        else:  # one finite prediction per target; a score only against values
            assert stdout == "" if "--values" not in argv else strict_json(stdout)["gnmse"] >= 0
            # ids may hold a character that splitlines() takes for a line break
            rows = (folder / "predictions.csv").read_text(encoding="utf-8").split("\n")[:-1]
            assert rows[0] == "node_id,prediction" and len(rows) > 1
            if "--nodes" in argv:
                listed = argv[argv.index("--nodes") + 1].split(",")
                assert len(rows) - 1 == sum(1 for node in listed if node.strip())
            assert all(math.isfinite(float(row.rsplit(",", 1)[1])) for row in rows[1:]), rows

    @staticmethod
    def _predict_argv(data, capsys, tmp_path_factory, argv, nodes):
        """Completes ``argv`` of a predict run: a model trained on the same files, with or
        without its split, values and a drawn ``--nodes`` list (repeats, unknown ids and ids
        with spaces, padded or not). Returns whether the list names no node."""
        models = tmp_path_factory.mktemp("model")
        model, split = models / "model.json", models / "split.json"
        files = [argv[argv.index(flag) + 1] for flag in ("--graph", "--values")]
        run_cli(capsys, "train", "--graph", files[0], "--values", files[1],
                *[flag for flag in argv if flag in ("--weighted", "--directed")],
                "--features", "8", "--sigma-sq", "1", "--model-out", str(model),
                "--split-out", str(split))
        argv += ["--model", str(model)]
        if data.draw(st.booleans()):
            argv += ["--split", str(split)]
        if not data.draw(st.booleans()):
            del argv[argv.index("--values"):argv.index("--values") + 2]
        if not data.draw(st.booleans()):
            return False
        ids = st.sampled_from(list(nodes) + ["zz", "a b", " a ", "\tb", ""])
        listed = data.draw(st.lists(ids, max_size=4))
        argv += ["--nodes", ",".join(listed)]
        return not any(node.strip() for node in listed)


# every output option of every command, and the file it names in a run that writes them all
_OUTPUTS = {
    "stats": {"--out": "o.json", "--hist-out": "h.csv"},
    "select": {"--out": "o.json"},
    "train": {"--model-out": "m.json", "--split-out": "s.json", "--trace-out": "t.csv"},
    "predict": {"--out": "p.csv"},
    "sweep": {"--out": "s.csv"},
    "analyze": {"--trace-out": "t.csv", "--scatter-out": "sc.csv"},
}


@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in _OUTPUTS.items()
                                           for flag in flags])
def test_missing_output_directory_exits_3_before_any_work(tiny_dataset_files, tmp_path, capsys,
                                                          adjacency_builds, command, flag):
    edges, values = tiny_dataset_files
    model, split = tmp_path / "m.json", tmp_path / "split.json"
    if command == "predict":
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "16", "--model-out", str(model), "--split-out", str(split))
        adjacency_builds.clear()
    inputs = {
        "stats": ["--graph", edges],
        "predict": ["--model", model, "--graph", edges, "--split", split],
        "sweep": ["--graph", edges, "--values", values, "--repeats", "8"],
        "analyze": ["--graph", edges, "--values", values, "--test-node", "0"],
    }.get(command, ["--graph", edges, "--values", values])
    out_dir, missing = tmp_path / "out", tmp_path / "missing" / "file"
    out_dir.mkdir()
    outputs = [part for name, file in _OUTPUTS[command].items()
               for part in (name, missing if name == flag else out_dir / file)]
    code, stdout, err = run_cli(capsys, command, *map(str, inputs + outputs))
    assert (code, stdout) == (3, "")
    assert err == f"error: {flag} {missing}: no such directory\n"
    assert list(out_dir.iterdir()) == [] and not missing.parent.exists()
    assert adjacency_builds == []


@pytest.mark.parametrize("command, outputs, formats", [
    ("select", ["--out", "-"], ["skg-selection-report-v1"]),
    ("stats", ["--out", "-"], [None]),
    ("train", ["--model-out", "-"], ["skg-model-v1", None]),
    ("train", ["--model-out", "m.json", "--split-out", "-"], ["skg-split-v1", None]),
], ids=["select---out", "stats---out", "train---model-out", "train---split-out"])
def test_a_dash_output_is_stdout_alone(tiny_dataset_files, tmp_path, capsys, monkeypatch,
                                       command, outputs, formats):
    # "-" is stdout for every output option: the JSON written there is printed once, before
    # a train summary, and no file named "-" is made
    edges, values = tiny_dataset_files
    monkeypatch.chdir(tmp_path)
    argv = [command, "--graph", str(edges), "--features", "16", *outputs]
    code, stdout, err = run_cli(capsys, *argv, *["--values", str(values)] * (command != "stats"))
    assert code == 0, err
    printed, rest = [], stdout
    while rest:
        document, end = json.JSONDecoder().raw_decode(rest)
        printed.append(document.get("format"))
        rest = rest[end:].lstrip()
    assert printed == formats and not (tmp_path / "-").exists()


class TestSweepCommand:
    def test_csv_and_summary(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(capsys, "sweep", "--graph", str(edges), "--values",
                                  str(values), "--features", "64", "--seed", "1",
                                  "--grid-points", "6", "--repeats", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sigma_sq,gnmse_mean,gnmse_std,repeats,is_theoretical_ed"
        assert len(lines) >= 7  # grid plus the inserted selected variance
        summary = json.loads(stdout)
        assert summary["best_gnmse_mean"] >= 0.0
        # a row of one repeat holds the repr of the test_gnmse train prints at its variance
        run_cli(capsys, "sweep", "--graph", str(edges), "--values", str(values), "--features",
                "64", "--seed", "1", "--grid-points", "3", "--repeats", "1", "--out", str(out))
        for row in out.read_text().splitlines()[1:]:
            sigma_sq, gnmse_mean = row.split(",")[:2]
            code, stdout, _ = run_cli(capsys, "train", "--graph", str(edges), "--values",
                                      str(values), "--features", "64", "--seed", "1",
                                      "--sigma-sq", sigma_sq,
                                      "--model-out", str(tmp_path / "m.json"))
            assert code == 0 and gnmse_mean == repr(json.loads(stdout)["test_gnmse"]), row

    def test_first_order_da_sets_the_grid_top(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        flags = ["--graph", str(edges), "--values", str(values), "--features", "64",
                 "--seed", "1", "--first-order-da"]
        code, stdout, _ = run_cli(capsys, "select", *flags)
        d_sq_max = json.loads(stdout)["d_sq_max"]["value"]
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", *flags, "--grid-points", "6", "--repeats", "1",
                             "--out", str(out))
        assert code == 0
        top = float(out.read_text().strip().splitlines()[-1].split(",")[0])
        assert top == pytest.approx(10 * d_sq_max / (2 * 0.1), rel=1e-12)

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_non_positive_jobs_exit_2(self, tiny_dataset_files, tmp_path, capsys, jobs):
        edges, values = tiny_dataset_files
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(capsys, "sweep", "--graph", str(edges), "--values",
                               str(values), "--features", "64", "--grid-points", "3",
                               "--repeats", "1", "--jobs", jobs, "--out", str(out))
        assert code == 2 and "jobs" in err
        assert not out.exists()

    def test_manual_grid_needs_both_bounds(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        # one bound alone, bounds that are not positive and finite, or no points:
        # exit 2 without a numpy warning
        for bounds in (["--grid-min", "0.5"], ["--grid-min", "0", "--grid-max", "5"],
                       ["--grid-min", "-1", "--grid-max", "5"],
                       ["--grid-min", "1", "--grid-max", "inf"],
                       ["--grid-min", "1", "--grid-max", "5", "--grid-points", "-2"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run_cli(capsys, "sweep", "--graph", str(edges), "--values",
                                       str(values), *bounds, "--out", str(tmp_path / "s.csv"))
            assert code == 2 and err.startswith("error:")
            assert not (tmp_path / "s.csv").exists()


class TestAnalyze:
    def test_trace_and_scatter(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        split = tmp_path / "split.json"
        model = tmp_path / "m.json"
        run_cli(capsys, "train", "--graph", str(edges), "--values", str(values),
                "--features", "64", "--seed", "1", "--model-out", str(model),
                "--split-out", str(split))
        tested = json.loads(split.read_text())["tested"][0]
        trace = tmp_path / "trace.csv"
        scatter = tmp_path / "scatter.csv"
        code, stdout, _ = run_cli(capsys, "analyze", "--graph", str(edges), "--values",
                                  str(values), "--features", "64", "--seed", "1",
                                  "--test-node", tested, "--trace-out", str(trace),
                                  "--scatter-out", str(scatter))
        assert code == 0
        summary = json.loads(stdout)
        trace_lines = trace.read_text().strip().splitlines()
        assert trace_lines[0] == "i,B,F,alpha,alpha_flag"
        assert len(trace_lines) == 1 + summary["trace_rows"]
        scatter_lines = scatter.read_text().strip().splitlines()
        assert scatter_lines[0] == "d_sq,abs_dy"
        assert len(scatter_lines) == 1 + summary["scatter_rows"]
        sampled = len(json.loads(split.read_text())["sampled"])
        assert summary["scatter_rows"] == sampled * (sampled - 1) // 2

    def test_unknown_test_node_exits_3(self, tiny_dataset_files, tmp_path, capsys):
        edges, values = tiny_dataset_files
        code, _, err = run_cli(capsys, "analyze", "--graph", str(edges), "--values",
                               str(values), "--seed", "1", "--test-node", "no-such-node",
                               "--trace-out", str(tmp_path / "t.csv"))
        assert code == 3 and "error:" in err

    def test_no_tested_nodes_exits_4_before_the_probe_check(self, tiny_dataset_files, tmp_path,
                                                            capsys):
        edges, values = tiny_dataset_files
        trace = tmp_path / "t.csv"
        code, stdout, err = run_cli(capsys, "analyze", "--graph", str(edges), "--values",
                                    str(values), "--fraction", "1.0", "--test-node", "3",
                                    "--trace-out", str(trace), "--sigma-sq", "1")
        assert (code, stdout) == (4, "") and "no tested nodes" in err
        assert not trace.exists()

    def test_failing_scatter_writes_no_trace(self, tmp_path, capsys):
        # one sampled node trains the probe's run, but is a sample too small to scan
        edges, values = tmp_path / "g.csv", tmp_path / "v.csv"
        edges.write_text("a,b\nb,c\n", encoding="utf-8")
        values.write_text("a,1\nb,2\nc,3\n", encoding="utf-8")
        tested = skg.split_sample(["a", "b", "c"], 0.4, 0)[1][0]
        trace, scatter = tmp_path / "t.csv", tmp_path / "s.csv"
        code, stdout, err = run_cli(capsys, "analyze", "--graph", str(edges), "--values",
                                    str(values), "--sigma-sq", "1", "--test-node", tested,
                                    "--trace-out", str(trace), "--scatter-out", str(scatter))
        assert (code, stdout) == (4, "") and "need at least two vectors" in err
        assert not trace.exists() and not scatter.exists()

    def test_no_outputs_requested_exits_2(self, tiny_dataset_files, tmp_path, capsys,
                                          adjacency_builds):
        edges, values = tiny_dataset_files
        # nothing to write, or a trace without its node: refused before any split is prepared
        for outputs in ([], ["--trace-out", str(tmp_path / "t.csv")]):
            code, _, _ = run_cli(capsys, "analyze", "--graph", str(edges), "--values",
                                 str(values), "--seed", "1", *outputs)
            assert code == 2
        assert adjacency_builds == []


class TestPrepareOnce:
    @pytest.mark.parametrize("command, output_flags", [
        ("analyze", ("--trace-out", "--scatter-out")),
        ("train", ("--model-out",)),
    ])
    def test_auto_sigma_builds_adjacency_once(self, tiny_dataset_files, tmp_path, capsys,
                                              adjacency_builds, command, output_flags):
        # selection and the run share one split: sampled and tested vectors, built once each
        edges, values = tiny_dataset_files
        dataset = skg.load_dataset(edges, values)
        tested = skg.split_sample(dataset.node_ids, 0.4, 1)[1]
        argv = ["--test-node", tested[0]] if command == "analyze" else []
        for flag in output_flags:
            argv += [flag, str(tmp_path / flag.lstrip("-"))]
        code, _, _ = run_cli(capsys, command, "--graph", str(edges), "--values", str(values),
                             "--features", "64", "--seed", "1", "--sigma-sq", "auto", *argv)
        assert code == 0
        assert len(adjacency_builds) == 2

    @pytest.mark.parametrize("extra, builds", [((), 1), (("--refine",), 2)])
    def test_plain_select_builds_only_the_sampled_vectors(self, tiny_dataset_files, capsys,
                                                          adjacency_builds, extra, builds):
        edges, values = tiny_dataset_files
        code, _, _ = run_cli(capsys, "select", "--graph", str(edges), "--values", str(values),
                             "--features", "16", "--seed", "1", *extra)
        assert code == 0
        assert len(adjacency_builds) == builds
        sampled = adjacency_builds[0][0]
        assert adjacency_builds[0] == (sampled, sampled)

    @pytest.mark.parametrize("extra", [(), ("--fixed-split",)])
    def test_sweep_prepares_each_seed_once(self, tiny_dataset_files, tmp_path, capsys,
                                           adjacency_builds, extra):
        # selection builds the sampled vectors once; each seed's task prepares its
        # split (a pinned one: the base seed's) and builds both sets of vectors once
        edges, values = tiny_dataset_files
        code, _, _ = run_cli(capsys, "sweep", "--graph", str(edges), "--values", str(values),
                             "--features", "16", "--seed", "1", "--repeats", "2",
                             "--grid-points", "3", "--out", str(tmp_path / "s.csv"), *extra)
        assert code == 0
        assert len(adjacency_builds) == 5


class TestParser:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(capsys, "select", "--bogus")[0] == 2

    def test_version(self, capsys):
        code, stdout, _ = run_cli(capsys, "--version")
        assert code == 0 and stdout.startswith("skg ")

    @pytest.mark.parametrize("argv", [
        ["stats", "--graph", "g"],
        ["select", "--graph", "g", "--values", "v"],
        ["train", "--graph", "g", "--values", "v", "--model-out", "m"],
        ["predict", "--model", "m", "--graph", "g"],
        ["sweep", "--graph", "g", "--values", "v", "--out", "s"],
        ["analyze", "--graph", "g", "--values", "v"],
    ])
    def test_defaults_are_the_library_defaults(self, argv):
        from skg.cli import _run_config, build_parser
        assert _run_config(build_parser().parse_args(argv)) == (skg.RunConfig(), 0)

    def test_jobs_environment_variable_is_not_read(self, tiny_dataset_files, monkeypatch,
                                                   capsys):
        # --jobs (default 1) is the only way to set the worker count
        edges, _ = tiny_dataset_files
        monkeypatch.setenv("SKG_JOBS", "abc")
        code, stdout, err = run_cli(capsys, "--version")
        assert code == 0 and stdout.startswith("skg ") and err == ""
        code, stdout, err = run_cli(capsys, "stats", "--graph", str(edges))
        assert code == 0 and err == "" and json.loads(stdout)["n_sampled"] > 0
        args = skg.cli.build_parser().parse_args(
            ["sweep", "--graph", "g", "--values", "v", "--out", "s"])
        assert args.jobs == 1

    def test_first_order_da_flag(self, tiny_dataset_files, capsys):
        edges, values = tiny_dataset_files
        code, stdout, _ = run_cli(capsys, "select", "--graph", str(edges), "--values",
                                  str(values), "--features", "64", "--seed", "1",
                                  "--first-order-da")
        assert code == 0
        report = json.loads(stdout)
        assert report["sigma_sq_da"]["source"] == "first-order"
        d_sq_max = report["d_sq_max"]["value"]
        assert report["sigma_sq_da"]["value"] == pytest.approx(d_sq_max / 0.2, rel=1e-12)


class TestRepeatedMain:
    """``main`` may run many times in one process; it builds its parser once."""

    def test_command_replaced_after_a_call_runs(self, monkeypatch, tmp_path, capsys):
        # the cached parser holds no command function: main looks up cmd_stats per call
        assert run_cli(capsys, "stats", "--graph", str(tmp_path / "missing.csv"))[0] == 3
        graphs = []
        monkeypatch.setattr(skg.cli, "cmd_stats", lambda args: graphs.append(args.graph) or 0)
        assert run_cli(capsys, "stats", "--graph", "g") == (0, "", "")
        assert graphs == ["g"]

    def test_no_option_value_leaks_between_calls(self, tiny_dataset_files, monkeypatch,
                                                 capsys):
        jobs = []
        monkeypatch.setattr(skg.cli, "cmd_sweep", lambda args: jobs.append(args.jobs) or 0)
        sweep = ["sweep", "--graph", "g", "--values", "v", "--out", "s"]
        assert run_cli(capsys, *sweep, "--jobs", "2")[0] == run_cli(capsys, *sweep)[0] == 0
        assert jobs == [2, 1]
        edges, values = tiny_dataset_files
        select = ["select", "--graph", str(edges), "--values", str(values), "--features", "64"]
        plain = run_cli(capsys, *select)
        refined = run_cli(capsys, *select, "--refine")
        assert plain[0] == refined[0] == 0
        assert json.loads(refined[1])["noise_up"]["source"] == "refined"
        assert json.loads(plain[1])["noise_up"]["source"] != "refined"
        assert run_cli(capsys, *select) == plain

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], [], ["select", "--bogus"], ["train", "--graph", "g"],
        *([command, "--help"] for command in
          ("stats", "select", "train", "predict", "sweep", "analyze")),
    ])
    def test_help_and_errors_same_on_first_and_later_calls(self, argv, capsys):
        skg.cli.build_parser.cache_clear()
        first = run_cli(capsys, *argv)
        assert first[1].startswith(("usage: skg", "skg ")) or first[2].startswith("usage: skg")
        assert [run_cli(capsys, *argv) for _ in range(2)] == [first, first]
