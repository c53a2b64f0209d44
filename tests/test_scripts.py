"""The desk-scale experiment script, run end to end at a tiny size."""

import importlib.util
import json
from pathlib import Path

import jsonschema

import skg

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_synthetic_experiment_writes_every_table(tmp_path, capsys):
    script = load_script()
    out = tmp_path / "experiment"
    code = script.main(["--out", str(out), "--nodes", "30", "--communities", "2",
                        "--features", "16", "--repeats", "2", "--grid-points", "3", "--seed", "5"])
    assert code == 0 and "selected variance" in capsys.readouterr().out

    dataset = skg.planted_community_dataset(n_nodes=30, n_communities=2, p_in=0.8, p_out=0.05,
                                            value_noise=0.02, seed=5)
    config = skg.RunConfig(n_features=16)
    report = json.loads((out / "selection_report.json").read_text())
    jsonschema.validate(report, skg.SELECTION_REPORT_SCHEMA)
    assert report == skg.resolve_sigma_sq(dataset, config, seed=5).to_dict()
    assert len((out / "values.csv").read_text().splitlines()) == 30

    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "sigma_sq,gnmse_mean,gnmse_std,repeats,is_theoretical_ed"
    assert sum(line.endswith(",true") for line in sweep[1:]) == 1

    n = len(skg.prepare(dataset, config, seed=5).sampled)
    for regime in ("chaos", "extending", "selected", "averaging"):
        trace = (out / f"trace_{regime}.csv").read_text().splitlines()
        assert trace[0] == "i,B,F,alpha,alpha_flag" and len(trace) == 1 + 3 * n
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "d_sq,abs_dy" and len(scatter) == 1 + n * (n - 1) // 2


def test_base_seed_split_is_prepared_once(tmp_path, monkeypatch, capsys):
    # selection, traces and scatter share the run seed's split (2 builds); the sweep
    # prepares each of its 2 seeds' splits in that seed's task (2 builds each)
    # (every adjacency build, dense or not, is one sort of the graph's arcs)
    builds = []
    original = skg.graph_data._Nonzeros.of_graph

    def counted(graph, sampled, referencing):
        builds.append((sampled, referencing))
        return original(graph, sampled, referencing)

    monkeypatch.setattr(skg.graph_data._Nonzeros, "of_graph", staticmethod(counted))
    code = load_script().main(["--out", str(tmp_path / "experiment"), "--nodes", "40",
                               "--repeats", "2", "--grid-points", "3"])
    assert code == 0 and "selected variance" in capsys.readouterr().out
    assert len(builds) == 6
