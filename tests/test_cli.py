"""CLI coverage: config parsing, each subcommand end to end, exit codes."""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import volgraph
from volgraph.cli import dataclass_from_config, main, parse_kv_config
from volgraph.dataio import SyntheticConfig, load_transcripts
from volgraph.errors import ConfigError
from volgraph.gnn import attention_export_rows, market_export_rows
from volgraph.graphbuild import EdgeTable, load_graph_dir, save_graph_dir
from volgraph.numcore import no_grad
from volgraph.pipeline import ModelConfig, load_checkpoint, prepare_quarter, transductive_split

TINY_MODEL_CONFIG = """\
# tiny run for test speed
d_hidden = 8
dialogue_layers = 1
dialogue_heads = 2   # must divide d_hidden
network_layers = 2
mlp_hidden = 8
d_s = 8
d_p = 2
d_u = 2
d_r = 2
d_q = 2
max_sentences = 16
max_utterances = 8
max_epochs = 2
seed = 0
"""


def tiny_model_config(lines: str) -> str:
    """``TINY_MODEL_CONFIG`` with ``lines`` in place of its own lines for their keys.

    A config file may set a key only once.
    """
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in TINY_MODEL_CONFIG.splitlines(keepends=True)
            if line.split("=")[0].strip() not in keys]
    return "".join(kept) + lines + "\n"


TINY_SYNTH_CONFIG = """\
n_companies = 10
n_quarters = 12
d_s = 8
"""


class TestConfigParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# header\n\nlr = 0.001  # inline\n\nseed=3\n")
        assert parse_kv_config(p) == {"lr": "0.001", "seed": "3"}

    def test_bad_line_reports_lineno(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lr = 0.1\nnot a kv line\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_kv_config(p)

    def test_value_may_contain_equals(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("note = a=b\n")
        assert parse_kv_config(p) == {"note": "a=b"}

    def test_model_config_coercion(self):
        cfg = dataclass_from_config(
            ModelConfig,
            {
                "lr": "0.01",
                "d_hidden": "16",
                "dialogue_heads": "2",
                "joint_heads": "true",
                "taus": "3,7",
            },
        )
        assert cfg.lr == 0.01
        assert cfg.d_hidden == 16
        assert cfg.joint_heads is True
        assert cfg.taus == (3, 7)

    def test_d_ff_int(self):
        # the feed-forward block is always 4·d_hidden wide: d_ff is no setting
        with pytest.raises(ConfigError, match="unknown config key 'd_ff' for ModelConfig"):
            dataclass_from_config(ModelConfig, {"d_ff": "32"})

    @pytest.mark.parametrize("raw", ["3,,7", "3,7,", ",3"])
    def test_empty_tuple_item_rejected(self, raw):
        with pytest.raises(ConfigError, match="for config key taus"):
            dataclass_from_config(ModelConfig, {"taus": raw})

    def test_retired_network_heads_key_rejected(self):
        with pytest.raises(ConfigError, match="network_heads"):
            dataclass_from_config(ModelConfig, {"network_heads": "1"})

    @pytest.mark.parametrize("raw,want", [("1", True), ("yes", True), ("off", False), ("0", False)])
    def test_bool_spellings(self, raw, want):
        cfg = dataclass_from_config(ModelConfig, {"joint_heads": raw})
        assert cfg.joint_heads is want

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            dataclass_from_config(ModelConfig, {"joint_heads": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            dataclass_from_config(ModelConfig, {"bogus": "1"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError):
            dataclass_from_config(ModelConfig, {"d_hidden": "eight"})

    def test_synthetic_config_keys(self):
        cfg = dataclass_from_config(
            SyntheticConfig, {"n_companies": "4", "n_quarters": "2", "d_s": "8"}
        )
        assert (cfg.n_companies, cfg.n_quarters, cfg.d_s) == (4, 2, 8)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the whole workflow once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    (root / "synth.cfg").write_text(TINY_SYNTH_CONFIG)
    assert main(["gen-synth", "--seed", "3", "--out", str(data), "--config", str(root / "synth.cfg")]) == 0

    graph_dir = root / "graph"
    assert (
        main(
            [
                "build-graph",
                "--quarter", "2014Q4",
                "--transcripts", str(data / "transcripts.jsonl"),
                "--relations", str(data / "relations.csv"),
                "--prices", str(data / "prices.csv"),
                "--out", str(graph_dir),
                "--report", str(root / "ingest.json"),
            ]
        )
        == 0
    )

    cfg_path = root / "model.cfg"
    cfg_path.write_text(TINY_MODEL_CONFIG)
    ckpt = root / "model.npz"
    assert (
        main(
            [
                "train",
                "--config", str(cfg_path),
                "--data", str(data),
                "--out", str(ckpt),
                "--history", str(root / "history.json"),
            ]
        )
        == 0
    )
    return {"root": root, "data": data, "graph": graph_dir, "ckpt": ckpt}


class TestGenSynth:
    def test_outputs_and_manifest(self, workdir):
        data = workdir["data"]
        for name in ("transcripts.jsonl", "prices.csv", "relations.csv", "gen.json"):
            assert (data / name).exists()
        manifest = json.loads((data / "gen.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["n_companies"] == 10
        calls = load_transcripts(data / "transcripts.jsonl")
        assert len(calls) == 10 * 12

    @pytest.mark.parametrize(
        "line, message",
        [
            ("sentence_noise = nan", "sentence_noise must be finite, got nan"),
            ("call_slots =", "call_slots must not be empty"),
            ("start_year = 0", "years 0..3 are not all in 1..9999"),
            ("start_year = 9999", "years 9999..10002 are not all in 1..9999"),
            ("n_quarters = 100000", "years 2014..27014 are not all in 1..9999"),
        ],
        ids=["nan-noise", "no-call-slots", "year-0", "past-year-9999", "too-many-quarters"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["gen-synth", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-synth", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


def _edit_csv(path, edit):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(edit(rows))


def _set_first(column, value):
    def edit(rows):
        rows[1][rows[0].index(column)] = value
        return rows

    return edit


def _copy_first(columns):
    """An edit that copies the first data row's values in ``columns`` onto the second."""
    def edit(rows):
        for k in map(rows[0].index, columns):
            rows[2][k] = rows[1][k]
        return rows

    return edit


# name -> (file, edit of its csv rows or None to delete it, text the error must hold)
GRAPH_CORRUPTIONS = {
    "edges-without-day_gap": ("edges.csv", lambda rows: [r[:4] for r in rows],
                              "missing column day_gap"),
    "non-integer-day_gap": ("edges.csv", _set_first("day_gap", "1.5"),
                            "column day_gap: invalid literal for int() with base 10: '1.5'"),
    "src-9999": ("edges.csv", _set_first("src", "9999"), "row 1: src 9999 is not a node id"),
    "src-negative": ("edges.csv", _set_first("src", "-1"), "row 1: src -1 is not a node id"),
    "short-row": ("edges.csv", lambda rows: rows[:2] + [rows[2][:3]] + rows[3:],
                  "row 2: 3 fields, the header has 5"),
    "missing-edges": ("edges.csv", None, "missing edges.csv"),
    "nodes-without-label_7": ("nodes.csv", lambda rows: [r[:5] + r[6:] for r in rows],
                              "missing column label_7"),
    "nan-similarity": ("edges.csv", _set_first("similarity", "nan"),
                       "row 1: similarity nan is not finite"),
    "inf-weight": ("edges.csv", _set_first("temporal_weight", "inf"),
                   "row 1: temporal_weight inf is not finite"),
    "truncated-edges": ("edges.csv", lambda rows: rows[:-1], "graph.json says"),
    "dropped-node": ("nodes.csv", lambda rows: rows[:-1], "graph.json says 10"),
    # one call on two nodes
    "repeated-call": ("nodes.csv", _copy_first(("company_id", "call_id", "call_date")),
                      "row 2: call_id"),
    "repeated-company": ("nodes.csv", _copy_first(("company_id",)), "row 2: company_id"),
    # a node has every label or none, each a finite number
    "nan-label_3": ("nodes.csv", _set_first("label_3", "nan"), "row 1: labels ['nan', '-"),
    "blank-label_7": ("nodes.csv", _set_first("label_7", ""),
                      "row 1: could not convert string to float: ''"),
    "non-numeric-label": ("nodes.csv", _set_first("label_15", "high"),
                          "row 1: could not convert string to float: 'high'"),
}


class TestBuildGraphAndAudit:
    def test_graph_dir_loads(self, workdir):
        graph = load_graph_dir(workdir["graph"])
        assert graph.n_nodes == 10
        assert str(graph.quarter) == "2014Q4"
        assert graph.labels.shape == (10, 3) and graph.labeled.all()

    def test_ingest_report_written(self, workdir):
        report = json.loads((workdir["root"] / "ingest.json").read_text())
        assert isinstance(report, dict)

    def test_ingest_report_lists_the_quarters_own_label_exclusions(self, workdir, tmp_path):
        # prices cut inside 2017Q1 leave some of its calls and every 2017Q2
        # call without a label; the report of a 2017Q1 build names the
        # unlabeled nodes of its graph and no call of another quarter
        data = tmp_path / "data"
        data.mkdir()
        with (workdir["data"] / "prices.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        with (data / "prices.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows[:1] + [r for r in rows[1:] if r[1] <= "2017-02-28"])
        report = tmp_path / "ingest.json"
        assert main(["build-graph", "--quarter", "2017Q1",
                     "--transcripts", str(workdir["data"] / "transcripts.jsonl"),
                     "--relations", str(workdir["data"] / "relations.csv"),
                     "--prices", str(data / "prices.csv"),
                     "--out", str(tmp_path / "graph"), "--report", str(report)]) == 0
        graph = load_graph_dir(tmp_path / "graph")
        unlabeled = [c.call_id for c, ok in zip(graph.calls, graph.labeled) if not ok]
        assert 0 < len(unlabeled) < graph.n_nodes
        excluded = [e["call_id"] for e in json.loads(report.read_text())["label_exclusions"]]
        assert sorted(excluded) == sorted(unlabeled)

    def test_audit_clean_graph(self, workdir, capsys):
        rc = main(["audit-leakage", "--graph", str(workdir["graph"])])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_audit_flags_future_edge(self, workdir, tmp_path, capsys):
        graph = load_graph_dir(workdir["graph"])
        order = np.argsort(graph.days, kind="stable")
        late, early = int(order[-1]), int(order[0])
        assert graph.calls[late].call_date > graph.calls[early].call_date
        e = graph.edges
        graph.edges = EdgeTable(
            src=np.append(e.src, late),
            dst=np.append(e.dst, early),
            temporal_weight=np.append(e.temporal_weight, 0.5),
            similarity=np.append(e.similarity, 0.9),
            day_gap=np.append(e.day_gap, graph.days[late] - graph.days[early]),
        )
        bad_dir = tmp_path / "bad_graph"
        save_graph_dir(graph, bad_dir)
        rc = main(["audit-leakage", "--graph", str(bad_dir)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "1 violations" in out

    @pytest.mark.parametrize("command", ["audit-leakage", "predict"])
    @pytest.mark.parametrize("corruption", sorted(GRAPH_CORRUPTIONS))
    def test_corrupt_graph_dir_exits_2(self, workdir, tmp_path, capsys, corruption, command):
        name, edit, message = GRAPH_CORRUPTIONS[corruption]
        bad = tmp_path / "graph"
        shutil.copytree(workdir["graph"], bad)
        if edit is None:
            (bad / name).unlink()
        else:
            _edit_csv(bad / name, edit)
        argv = [command, "--graph", str(bad)]
        if command == "predict":
            argv += ["--model", str(workdir["ckpt"]), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and message in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["audit-leakage", "predict"])
    def test_calls_outside_the_quarter_exit_2(self, workdir, tmp_path, capsys, command):
        # every call a year later in both files, so calls.jsonl still matches
        # nodes.csv and the edges keep their gaps: only the quarter is wrong
        bad = tmp_path / "graph"
        shutil.copytree(workdir["graph"], bad)

        def later(date: str) -> str:
            return dt.date.fromisoformat(date).replace(year=2015).isoformat()

        def edit(rows):
            k = rows[0].index("call_date")
            return rows[:1] + [r[:k] + [later(r[k])] + r[k + 1:] for r in rows[1:]]

        _edit_csv(bad / "nodes.csv", edit)
        calls = [json.loads(line) for line in (bad / "calls.jsonl").read_text().splitlines()]
        (bad / "calls.jsonl").write_text(
            "".join(json.dumps({**c, "date": later(c["date"])}) + "\n" for c in calls)
        )
        first = load_graph_dir(workdir["graph"]).calls[0]
        argv = [command, "--graph", str(bad)]
        if command == "predict":
            argv += ["--model", str(workdir["ckpt"]), "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: call {first.call_id} dated 2015-")
        assert "lies outside 2014Q4" in err
        assert not (tmp_path / "p.csv").exists()

    def test_calls_sharing_a_call_id_exit_2(self, workdir, tmp_path, capsys):
        # two companies' calls of one quarter under one call_id
        lines = (workdir["data"] / "transcripts.jsonl").read_text().splitlines()
        calls = [c for c in map(json.loads, lines) if c["call_id"].endswith("-2014Q4")][:2]
        calls[1]["call_id"] = calls[0]["call_id"]
        transcripts = tmp_path / "t.jsonl"
        transcripts.write_text("".join(json.dumps(c) + "\n" for c in calls))
        argv = ["build-graph", "--quarter", "2014Q4", "--transcripts", str(transcripts),
                "--relations", str(workdir["data"] / "relations.csv"),
                "--out", str(tmp_path / "g")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: duplicate call_id {calls[0]['call_id']} in 2014Q4")
        assert not (tmp_path / "g").exists()

    def test_empty_quarter_exits_2(self, workdir, tmp_path, capsys):
        data = workdir["data"]
        argv = ["build-graph", "--quarter", "2030Q1",
                "--transcripts", str(data / "transcripts.jsonl"),
                "--relations", str(data / "relations.csv"), "--out", str(tmp_path / "g")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no calls in 2030Q1" in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("quarter, year", [("99999Q1", 99999), ("0Q1", 0)])
    def test_quarter_year_out_of_range_exits_2(self, workdir, tmp_path, capsys, quarter, year):
        data = workdir["data"]
        argv = ["build-graph", "--quarter", quarter,
                "--transcripts", str(data / "transcripts.jsonl"),
                "--relations", str(data / "relations.csv"), "--out", str(tmp_path / "g")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: year {year} outside 1..9999\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["predict", "export-attention"])
    def test_zero_node_graph_dir_exits_2(self, workdir, tmp_path, capsys, command):
        # a 0-node directory, as build-graph wrote for an empty quarter before
        empty = tmp_path / "graph"
        shutil.copytree(workdir["graph"], empty)
        manifest = json.loads((empty / "graph.json").read_text())
        manifest.update(n_nodes=0, n_edges=0)
        (empty / "graph.json").write_text(json.dumps(manifest))
        for name in ("nodes.csv", "edges.csv"):
            _edit_csv(empty / name, lambda rows: rows[:1])
        (empty / "calls.jsonl").write_text("")
        out = tmp_path / "out.csv"
        argv = [command, "--model", str(workdir["ckpt"]), "--graph", str(empty), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no calls in 2014Q4" in err
        assert not out.exists()

    def test_audit_missing_dir_exits_2(self, tmp_path, capsys):
        rc = main(["audit-leakage", "--graph", str(tmp_path / "nope")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


def _append_first(pick):
    """An edit of edges.csv data rows that repeats the first row ``pick`` accepts."""
    return lambda rows: rows + [next(r for r in rows if pick(r))]


# name -> (edit of the edges.csv data rows, the error text it must give)
EDGE_ROW_FAULTS = {
    "repeated-edge": (_append_first(lambda r: r[0] == "0" and r[1] != "0"),
                      "appears more than once"),
    "missing-self-loop": (lambda rows: [r for r in rows if r[:2] != ["1", "1"]],
                          "node 1 has 0 self-loops"),
    "repeated-self-loop": (_append_first(lambda r: r[:2] == ["1", "1"]),
                           "node 1 has 2 self-loops"),
}


class TestEdgeRowFaults:
    """Rows the builder never writes; the manifest's edge count is kept in step."""

    @pytest.mark.parametrize("command", ["audit-leakage", "predict", "export-attention"])
    @pytest.mark.parametrize("fault", sorted(EDGE_ROW_FAULTS))
    def test_exits_2(self, workdir, tmp_path, capsys, fault, command):
        edit, message = EDGE_ROW_FAULTS[fault]
        bad = tmp_path / "graph"
        shutil.copytree(workdir["graph"], bad)
        _edit_csv(bad / "edges.csv", lambda rows: rows[:1] + edit(rows[1:]))
        with (bad / "edges.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        manifest = json.loads((bad / "graph.json").read_text())
        manifest["n_edges"] = len(rows)
        (bad / "graph.json").write_text(json.dumps(manifest))
        if fault == "repeated-edge":
            src, dst = rows[-1][:2]
            message = f"edge ({src}, {dst}) {message}"
        out = tmp_path / "out.csv"
        argv = [command, "--graph", str(bad)]
        if command != "audit-leakage":
            argv += ["--model", str(workdir["ckpt"]), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "edges.csv" in err and message in err
        assert list(tmp_path.iterdir()) == [bad]


@pytest.fixture(scope="module")
def synth_2015q2_graph(tmp_path_factory):
    """gen-synth seed 1 and its 2015Q2 build-graph directory, built through the CLI."""
    root = tmp_path_factory.mktemp("synth1")
    synth = root / "synth"
    assert main(["gen-synth", "--seed", "1", "--out", str(synth)]) == 0
    assert main([
        "build-graph", "--quarter", "2015Q2",
        "--transcripts", str(synth / "transcripts.jsonl"),
        "--relations", str(synth / "relations.csv"),
        "--prices", str(synth / "prices.csv"),
        "--out", str(root / "graph"),
    ]) == 0
    return root / "graph"


class TestTranscriptsMatchNodes:
    # calls.jsonl is joined to nodes.csv by call_id; the company and date
    # must agree too, or the model would read a transcript for the wrong node
    @pytest.mark.parametrize(
        "edit",
        [{"company_id": "ZZZ", "date": "2015-06-30"}, {"company_id": "ZZZ"}, {"date": "2015-06-30"}],
    )
    def test_mismatched_first_call_exits_2(self, synth_2015q2_graph, tmp_path, capsys, edit):
        bad = tmp_path / "graph"
        shutil.copytree(synth_2015q2_graph, bad)
        lines = (bad / "calls.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert (first["call_id"], first["company_id"], first["date"]) == (
            "C000-2015Q2", "C000", "2015-04-29"
        )
        first.update(edit)
        (bad / "calls.jsonl").write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["audit-leakage", "--graph", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "calls.jsonl has C000-2015Q2 as" in err
        assert "nodes.csv row 1 as C000 on 2015-04-29" in err

    def test_unedited_directory_audits_clean(self, synth_2015q2_graph, capsys):
        assert main(["audit-leakage", "--graph", str(synth_2015q2_graph)]) == 0
        assert "0 violations" in capsys.readouterr().out


class TestMissingInputs:
    """A missing input file or a malformed flag value ends in exit 2, not a traceback."""

    @pytest.mark.parametrize("flag", ["--transcripts", "--relations", "--prices"])
    def test_build_graph_missing_file_exits_2(self, workdir, tmp_path, capsys, flag):
        data = workdir["data"]
        inputs = {"--transcripts": data / "transcripts.jsonl",
                  "--relations": data / "relations.csv", "--prices": data / "prices.csv"}
        inputs[flag] = tmp_path / "nope"
        argv = ["build-graph", "--quarter", "2014Q4", "--out", str(tmp_path / "g")]
        argv += [x for flag_path in inputs.items() for x in map(str, flag_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing input file") and str(tmp_path / "nope") in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("command", ["train", "gen-synth"])
    def test_missing_config_file_exits_2(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--data", str(workdir["data"]), "--out", str(out)],
            "gen-synth": ["gen-synth", "--seed", "1", "--out", str(out)],
        }[command]
        assert main(argv + ["--config", str(tmp_path / "nope.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing input file") and str(tmp_path / "nope.cfg") in err
        assert not out.exists()

    def test_non_integer_ratios_exit_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "masks.json"
        argv = ["split-transductive", "--graph", str(workdir["graph"]), "--ratios", "a,b,c",
                "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --ratios") and "'a,b,c'" in err
        assert not out.exists()


def _insert_bad_byte(path: Path, lineno: int) -> None:
    """Put a byte that is not UTF-8 after the first byte of line ``lineno`` of ``path``."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:1] + b"\xff" + lines[lineno - 1][1:]
    path.write_bytes(b"\n".join(lines))


def _ascii_locale_env() -> dict:
    """A child environment whose locale encodes only ASCII, with ``volgraph`` importable."""
    src = str(Path(volgraph.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


class TestNonUtf8Inputs:
    """Every text input is read as UTF-8: a byte that does not decode is one error line."""

    @pytest.mark.parametrize("name", ["transcripts.jsonl", "prices.csv", "relations.csv"])
    def test_data_file_exits_2(self, workdir, tmp_path, capsys, name):
        data = tmp_path / "data"
        shutil.copytree(workdir["data"], data)
        _insert_bad_byte(data / name, 3)
        argv = ["build-graph", "--quarter", "2014Q4", "--out", str(tmp_path / "g"),
                "--transcripts", str(data / "transcripts.jsonl"),
                "--relations", str(data / "relations.csv"), "--prices", str(data / "prices.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: not UTF-8 text [{data / name}:3]\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("name", ["graph.json", "nodes.csv", "edges.csv", "calls.jsonl"])
    def test_graph_file_exits_2(self, workdir, tmp_path, capsys, name):
        bad = tmp_path / "graph"
        shutil.copytree(workdir["graph"], bad)
        _insert_bad_byte(bad / name, 3)
        assert main(["audit-leakage", "--graph", str(bad)]) == 2
        if name == "calls.jsonl":  # read by the transcripts loader
            want = f"not UTF-8 text [{bad / name}:3]"
        else:
            want = f"{bad / name}:3: not UTF-8 text"
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_non_ascii_ids_round_trip_under_an_ascii_locale(self, workdir, tmp_path):
        # files are read and written as UTF-8 whatever the locale's encoding
        data = tmp_path / "data"
        data.mkdir()
        for name in ("transcripts.jsonl", "prices.csv", "relations.csv"):
            text = (workdir["data"] / name).read_text(encoding="utf-8")
            (data / name).write_text(text.replace("C000", "\u00c7000"), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "volgraph.cli", "build-graph", "--quarter", "2014Q4",
             "--transcripts", str(data / "transcripts.jsonl"),
             "--relations", str(data / "relations.csv"), "--prices", str(data / "prices.csv"),
             "--out", str(tmp_path / "graph")],
            capture_output=True, text=True, env=_ascii_locale_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        graph = load_graph_dir(tmp_path / "graph")
        assert "\u00c7000" in {c.company_id for c in graph.calls}
        assert "\u00c7000".encode("utf-8") in (tmp_path / "graph" / "nodes.csv").read_bytes()

    @pytest.mark.parametrize("command", ["train", "gen-synth"])
    def test_config_file_exits_2(self, workdir, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        if command == "train":
            cfg.write_text(TINY_MODEL_CONFIG)
            argv = ["train", "--data", str(workdir["data"]), "--out", str(out)]
        else:
            cfg.write_text(TINY_SYNTH_CONFIG)
            argv = ["gen-synth", "--seed", "1", "--out", str(out)]
        _insert_bad_byte(cfg, 3)
        assert main(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: not UTF-8 text\n"
        assert not out.exists()


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestByteOrderMark:
    """A UTF-8 input that starts with a byte-order mark, as some editors and
    spreadsheet exports write it, reads as the same file without one."""

    @pytest.mark.parametrize("name", [
        "transcripts.jsonl", "prices.csv", "relations.csv",
        "graph.json", "nodes.csv", "edges.csv", "calls.jsonl", "config",
    ])
    def test_same_result_as_the_plain_file(self, workdir, tmp_path, name):
        if name == "config":  # the same parsed config
            plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
            plain.write_text(TINY_MODEL_CONFIG, encoding="utf-8")
            bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
            parse = lambda path: dataclass_from_config(ModelConfig, parse_kv_config(path))
            assert parse(bom) == parse(plain)
            return
        source = workdir["data"] if (workdir["data"] / name).exists() else workdir["graph"]
        copy = tmp_path / source.name
        shutil.copytree(source, copy)
        (copy / name).write_bytes(b"\xef\xbb\xbf" + (copy / name).read_bytes())
        if source == workdir["data"]:  # the same graph directory, byte for byte
            argv = ["build-graph", "--quarter", "2014Q4", "--out", str(tmp_path / "g"),
                    "--transcripts", str(copy / "transcripts.jsonl"),
                    "--relations", str(copy / "relations.csv"), "--prices", str(copy / "prices.csv")]
            assert main(argv) == 0
            assert _tree_bytes(tmp_path / "g") == _tree_bytes(workdir["graph"])
        else:  # the same predictions
            for graph, out in ((workdir["graph"], "plain.csv"), (copy, "bom.csv")):
                argv = ["predict", "--model", str(workdir["ckpt"]), "--graph", str(graph),
                        "--out", str(tmp_path / out)]
                assert main(argv) == 0
            assert (tmp_path / "bom.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestStdout:
    def test_predictions_print_as_utf8_under_an_ascii_locale(self, workdir, tmp_path):
        # the rows on stdout are the --out file's bytes whatever the locale
        graph = tmp_path / "graph"
        shutil.copytree(workdir["graph"], graph)
        for name in ("nodes.csv", "calls.jsonl"):
            text = (graph / name).read_text(encoding="utf-8")
            (graph / name).write_text(text.replace("C000", "\u00c7000"), encoding="utf-8")
        argv = [sys.executable, "-m", "volgraph.cli", "predict", "--model", str(workdir["ckpt"]),
                "--graph", str(graph)]
        env = _ascii_locale_env()
        to_file = subprocess.run(argv + ["--out", str(tmp_path / "preds.csv")],
                                 capture_output=True, env=env, timeout=300)
        assert to_file.returncode == 0, to_file.stderr
        to_stdout = subprocess.run(argv, capture_output=True, env=env, timeout=300)
        assert to_stdout.returncode == 0, to_stdout.stderr
        assert "\u00c7000".encode("utf-8") in to_stdout.stdout
        assert to_stdout.stdout == (tmp_path / "preds.csv").read_bytes()


class TestTrainEval:
    def test_checkpoint_and_history(self, workdir):
        models, config = load_checkpoint(workdir["ckpt"])
        assert sorted(models) == [3, 7, 15]
        assert config.max_epochs == 2
        history = json.loads((workdir["root"] / "history.json").read_text())
        assert sorted(history) == ["tau15", "tau3", "tau7"]
        for h in history.values():
            assert sorted(h) == ["best_epoch", "best_val_mse", "stopped_epoch", "train_loss",
                                 "val_mse"]
            assert 1 <= len(h["train_loss"]) <= 2
            assert len(h["val_mse"]) == len(h["train_loss"])

    def test_eval_report_schema(self, workdir):
        report_path = workdir["root"] / "eval.json"
        rc = main(
            [
                "eval",
                "--model", str(workdir["ckpt"]),
                "--data", str(workdir["data"]),
                "--report", str(report_path),
                "--split", "test",
            ]
        )
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["format"] == "volgraph-report/1"
        assert payload["split"] == "test"
        for tau in (3, 7, 15):
            m, b = payload["model"][f"mse_{tau}"], payload["v_past"][f"mse_{tau}"]
            assert payload["model"][f"r2_{tau}"] == pytest.approx(1.0 - m / b, rel=1e-12)
            assert payload["v_past"][f"r2_{tau}"] == 0.0
            assert payload["model"]["n_samples"][str(tau)] == payload["v_past"]["n_samples"][str(tau)] > 0

    def test_failed_report_write_keeps_old_file(self, workdir, tmp_path, monkeypatch):
        report_path = tmp_path / "eval.json"
        report_path.write_text('{"old": "report"}')

        def fail_partway(obj, fh, **kwargs):
            fh.write('{"format": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", fail_partway)
        argv = ["eval", "--model", str(workdir["ckpt"]), "--data", str(workdir["data"]),
                "--report", str(report_path)]
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert report_path.read_text() == '{"old": "report"}'
        assert [p.name for p in tmp_path.iterdir()] == ["eval.json"]

    def test_bad_config_key_exits_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus = 1\n")
        rc = main(["train", "--config", str(bad), "--data", str(workdir["data"]), "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines,prefix",
        [
            # d_ff is retired: any value of it, in range or not, is refused as a key
            ("d_ff = -3", "unknown config key 'd_ff' for ModelConfig"),
            ("d_ff = 0", "unknown config key 'd_ff' for ModelConfig"),
            ("taus = 7,7", "taus must"),
            ("taus = 7,7\njoint_heads = true", "taus must"),
            ("seed = -1", "seed must"),
        ],
        ids=["d_ff-negative", "d_ff-zero", "taus-repeated", "taus-repeated-joint", "seed-negative"],
    )
    def test_bad_config_value_exits_2(self, workdir, tmp_path, capsys, lines, prefix):
        bad = tmp_path / "bad.cfg"
        bad.write_text(tiny_model_config(lines))
        rc = main(["train", "--config", str(bad), "--data", str(workdir["data"]),
                   "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix}")
        assert not (tmp_path / "x.npz").exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("d_ff = 32", "unknown config key 'd_ff' for ModelConfig"),
            ("seed = 1\nmax_epochs = 1\nseed = 2", "{cfg}:3: key 'seed' already set on line 1"),
            ("taus = 3,,7", "bad value '3,,7' for config key taus"),
        ],
        ids=["retired-d_ff", "repeated-key", "empty-tuple-item"],
    )
    def test_config_file_exits_2_with_one_error_line(self, workdir, tmp_path, capsys, lines,
                                                     message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(lines + "\n")
        rc = main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
                   "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "x.npz").exists()

    def test_diverging_training_exits_2(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_MODEL_CONFIG + "lr = 1e30\n")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--config", str(cfg), "--data", str(workdir["data"]),
                       "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        # the line names the op whose output overflowed
        assert err == (
            "error: training diverged at epoch 1: masked_mse_tensor produced non-finite values\n"
        )
        assert not (tmp_path / "x.npz").exists()

    def test_diverging_training_prints_one_error_line(self, workdir, tmp_path):
        # in a fresh interpreter, where numpy's overflow warnings would reach
        # stderr as they do in a shell; the error line must be all there is
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_MODEL_CONFIG + "lr = 1e30\n")
        src = str(Path(volgraph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "volgraph.cli", "train", "--config", str(cfg),
             "--data", str(workdir["data"]), "--out", str(tmp_path / "x.npz")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: training diverged at epoch 1")

    def test_checkpoint_with_bad_d_ff_exits_2(self, workdir, tmp_path, capsys):
        with np.load(workdir["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(str(arrays["__manifest__"]))
        manifest["config"]["d_ff"] = 32  # a parent's manifest holds null, which still loads
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        rc = main(["eval", "--model", str(bad), "--data", str(workdir["data"]),
                   "--report", str(tmp_path / "eval.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: config key 'd_ff' is no longer supported\n"
        assert not (tmp_path / "eval.json").exists()


    @pytest.mark.parametrize("missing", ["dir", "prices.csv"])
    def test_missing_data_file_exits_2(self, workdir, tmp_path, capsys, missing):
        data = tmp_path / "data"
        if missing != "dir":
            data.mkdir()
            for name in ("transcripts.jsonl", "prices.csv", "relations.csv"):
                if name != missing:
                    (data / name).write_bytes((workdir["data"] / name).read_bytes())
        want = data / ("transcripts.jsonl" if missing == "dir" else missing)
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(want) in err
        assert not (tmp_path / "x.npz").exists()


    def test_non_finite_close_exits_2(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("transcripts.jsonl", "relations.csv"):
            (data / name).write_bytes((workdir["data"] / name).read_bytes())
        with (workdir["data"] / "prices.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        company = rows[1][0]
        own = [i for i, row in enumerate(rows) if i and row[0] == company]
        for i in own[::40]:
            rows[i][2] = "nan"
        with (data / "prices.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        rc = main(["train", "--config", str(workdir["root"] / "model.cfg"),
                   "--data", str(data), "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite adjusted_close nan")
        assert f"{data / 'prices.csv'}:{own[0] + 1}" in err
        assert not (tmp_path / "x.npz").exists()


    def test_quarter_without_labeled_calls_is_left_out(self, workdir, tmp_path, capsys):
        # prices that end 3 days into 2017Q2 give none of its calls a window:
        # the quarter drops out of the test split instead of ending the run
        data = tmp_path / "data"
        data.mkdir()
        for name in ("transcripts.jsonl", "relations.csv"):
            (data / name).write_bytes((workdir["data"] / name).read_bytes())
        with (workdir["data"] / "prices.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        with (data / "prices.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows[:1] + [r for r in rows[1:] if r[1] < "2017-04-04"])
        ckpt, report = tmp_path / "x.npz", tmp_path / "eval.json"
        rc = main(["train", "--config", str(workdir["root"] / "model.cfg"),
                   "--data", str(data), "--out", str(ckpt)])
        assert rc == 0, capsys.readouterr().err
        assert main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        calls = load_transcripts(data / "transcripts.jsonl")
        in_2017q1 = sum(dt.date(2017, 1, 1) <= c.call_date < dt.date(2017, 4, 1) for c in calls)
        assert in_2017q1 > 0
        assert payload["model"]["n_samples"] == {str(t): in_2017q1 for t in (3, 7, 15)}

    def test_non_finite_sentence_vector_exits_2(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("prices.csv", "relations.csv"):
            (data / name).write_bytes((workdir["data"] / name).read_bytes())
        lines = (workdir["data"] / "transcripts.jsonl").read_text().splitlines()
        call = json.loads(lines[4])
        roles = [s["role"] for s in call["sentences"]]
        j = next(j for j, role in enumerate(roles) if role in ("executive", "analyst"))
        call["sentences"][j]["vector"][0] = float("nan")
        lines[4] = json.dumps(call)
        (data / "transcripts.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--config", str(workdir["root"] / "model.cfg"),
                   "--data", str(data), "--out", str(tmp_path / "x.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: call {call['call_id']}: sentence {j} vector is not finite")
        assert f"{data / 'transcripts.jsonl'}:5" in err
        assert not (tmp_path / "x.npz").exists()


def _zip_records(data: bytes) -> dict[str, int]:
    """Offsets of a checkpoint's first and last (the manifest's) central-directory
    records and of its end-of-directory record."""
    end = data.rfind(b"PK\x05\x06")
    count, _, first = struct.unpack("<HII", data[end + 10 : end + 20])
    last = first
    for _ in range(count - 1):
        name, extra, comment = struct.unpack("<HHH", data[last + 28 : last + 34])
        last += 46 + name + extra + comment
    assert data[first : first + 4] == data[last : last + 4] == b"PK\x01\x02"
    assert data[last + 46 : last + 62] == b"__manifest__.npy"
    return {"first-param": first, "manifest": last, "end": end}


class TestPredict:
    def test_csv_matches_model(self, workdir, tmp_path):
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(workdir["ckpt"]), "--graph", str(workdir["graph"]), "--out", str(out)])
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        graph = load_graph_dir(workdir["graph"])
        assert len(rows) == graph.n_nodes

        from volgraph.pipeline import prepare_quarter

        models, _ = load_checkpoint(workdir["ckpt"])
        prepared = prepare_quarter(graph)
        for row in rows:
            i = int(row["node_id"])
            assert row["company_id"] == graph.calls[i].company_id
            for tau in (3, 7, 15):
                # repr round-trips floats exactly
                assert float(row[f"pred_{tau}"]) == models[tau].predict(prepared)[tau][i]

    def test_stdout_mode(self, workdir, capsys):
        rc = main(["predict", "--model", str(workdir["ckpt"]), "--graph", str(workdir["graph"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("node_id,company_id,call_id,call_date,pred_3")


    # a parameter array that is not real numbers, or that is not finite
    BAD_VALUES = {
        "string_array": lambda a: np.full(a.shape, "abc"),
        "complex_array": lambda a: a + 1j,
        "nan_array": lambda a: np.where(np.arange(a.size).reshape(a.shape) == 1, np.nan, a),
    }

    @pytest.mark.parametrize(
        "corruption", ["missing_array", "unknown_config_key", "key_bias", *BAD_VALUES]
    )
    def test_corrupt_checkpoint_exits_2(self, workdir, tmp_path, capsys, corruption):
        with np.load(workdir["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(str(arrays["__manifest__"]))
        key = manifest["params"][1]
        if corruption == "missing_array":
            del arrays[manifest["params"][0]]
        elif corruption == "unknown_config_key":
            manifest["config"]["bogus"] = 1
        elif corruption == "key_bias":  # only format 1 held one
            key = f"{key.split('/')[0]}/dialogue.layer0.attn.k.b"
            arrays[key] = np.zeros(8)
        else:
            arrays[key] = self.BAD_VALUES[corruption](arrays[key])
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way to the error
            rc = main(["predict", "--model", str(bad), "--graph", str(workdir["graph"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if corruption in ("key_bias", *self.BAD_VALUES):
            scope, name = key.split("/")
            assert err.count("\n") == 1
            assert "bad.npz" in err and f"scope {scope}" in err and name in err

    # (record, its length): the fixed part of the zip central-directory records
    # of the first parameter and of the manifest, and the end-of-directory record
    ZIP_RECORDS = {"first-param": 46, "manifest": 46, "end": 22}

    @pytest.mark.parametrize(
        "record, offset",
        [(record, offset) for record, n in ZIP_RECORDS.items() for offset in range(n)],
        ids=lambda v: f"{v:02d}" if isinstance(v, int) else v,
    )
    def test_damaged_zip_directory_loads_or_exits_2(self, workdir, tmp_path, capsys, record,
                                                     offset):
        data = bytearray(workdir["ckpt"].read_bytes())
        start = _zip_records(data)[record]
        data[start + offset] ^= 0xFF
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data)
        try:
            models, _ = load_checkpoint(bad)
        except ConfigError:
            rc = main(["predict", "--model", str(bad), "--graph", str(workdir["graph"])])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}") and err.count("\n") == 1
            return
        saved, _ = load_checkpoint(workdir["ckpt"])
        for tau, model in models.items():
            want = saved[tau].store.state_arrays()
            got = model.store.state_arrays()
            assert list(got) == list(want)
            for name in want:
                assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("record", ["first-param", "manifest"])
    def test_encrypted_zip_member_exits_2(self, workdir, tmp_path, capsys, record):
        data = bytearray(workdir["ckpt"].read_bytes())
        start = _zip_records(data)[record]
        data[start + 8] |= 1  # the general-purpose flag bit that marks encryption
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data)
        rc = main(["predict", "--model", str(bad), "--graph", str(workdir["graph"])])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and "encrypted" in err and err.count("\n") == 1

    def test_overflowing_checkpoint_exits_2(self, workdir, tmp_path, capsys):
        with np.load(workdir["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        for name in json.loads(str(arrays["__manifest__"]))["params"]:
            arrays[name] = arrays[name] * 1e200
        bad = tmp_path / "huge.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "preds.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["predict", "--model", str(bad), "--graph", str(workdir["graph"]),
                       "--out", str(out)])
        assert rc == 2
        # the first op of the forward, the dialogue encoder's input projection, overflows
        assert capsys.readouterr().err == "error: _pack_calls produced non-finite values\n"
        assert not out.exists()

    def test_format_1_checkpoint_loads_without_its_key_bias(self, workdir, tmp_path):
        # format 1 also held each dialogue layer's attention key bias, which
        # the softmax cancels; such a checkpoint predicts as one without it
        with np.load(workdir["ckpt"]) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(str(arrays["__manifest__"]))
        for scope in set(manifest["scopes"].values()):
            arrays[f"{scope}/dialogue.layer0.attn.k.b"] = np.linspace(-1.0, 1.0, 8)
        manifest["format"] = "volgraph-checkpoint/1"
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        old = tmp_path / "old.npz"
        np.savez(old, **arrays)
        outs = [tmp_path / "new.csv", tmp_path / "old.csv"]
        for model, out in zip((workdir["ckpt"], old), outs):
            assert main(["predict", "--model", str(model), "--graph", str(workdir["graph"]),
                         "--out", str(out)]) == 0
        assert outs[0].read_text() == outs[1].read_text()

    @pytest.mark.parametrize("corruption", ["no_config", "no_scopes", "not_zip"])
    def test_eval_unreadable_checkpoint_exits_2(self, workdir, tmp_path, capsys, corruption):
        bad = tmp_path / "bad.npz"
        if corruption == "not_zip":
            bad.write_bytes(b"not a model!")
        else:
            with np.load(workdir["ckpt"]) as data:
                arrays = {k: data[k] for k in data.files}
            manifest = json.loads(str(arrays["__manifest__"]))
            del manifest[corruption[3:]]
            arrays["__manifest__"] = np.array(json.dumps(manifest))
            np.savez(bad, **arrays)
        rc = main(
            ["eval", "--model", str(bad), "--data", str(workdir["data"]),
             "--report", str(tmp_path / "r.json"), "--split", "test"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.npz" in err


class TestExportAttention:
    def test_rows_and_normalization(self, workdir, tmp_path):
        out = tmp_path / "attn.csv"
        rc = main(
            ["export-attention", "--model", str(workdir["ckpt"]), "--graph", str(workdir["graph"]), "--out", str(out)]
        )
        assert rc == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        graph = load_graph_dir(workdir["graph"])
        n_layers = 2  # from TINY_MODEL_CONFIG
        assert len(rows) == n_layers * len(graph.edges)
        sums: dict[tuple, float] = {}
        for row in rows:
            key = (int(row["layer"]), int(row["dst"]))
            sums[key] = sums.get(key, 0.0) + float(row["gamma"])
        assert all(abs(s - 1.0) < 1e-9 for s in sums.values())

    def test_market_file_beside_out(self, workdir, tmp_path, capsys):
        out = tmp_path / "attn.csv"
        argv = ["export-attention", "--model", str(workdir["ckpt"]),
                "--graph", str(workdir["graph"]), "--out", str(out)]
        assert main(argv) == 0
        market = tmp_path / "attn.market.csv"
        assert f"-> {market}" in capsys.readouterr().out
        with market.open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["layer", "date", "node", "beta", "delta"]
        # the diagnostics the file was written from, recomputed here
        models, _ = load_checkpoint(workdir["ckpt"])
        prepared = prepare_quarter(load_graph_dir(workdir["graph"]))
        with no_grad():
            _, _, diag = models[min(models)].forward(prepared)
        arrays = prepared.arrays
        for layer, deltas in enumerate(diag.delta):
            mine = [r for r in rows if int(r["layer"]) == layer]
            assert sorted(int(r["node"]) for r in mine) == list(range(prepared.graph.n_nodes))
            for i, (date, delta) in enumerate(zip(arrays.dates, deltas)):
                on_date = [r for r in mine if r["date"] == date.isoformat()]
                nodes = [int(r["node"]) for r in on_date]
                assert nodes == np.flatnonzero(arrays.node_group == i).tolist()
                assert sum(float(r["beta"]) for r in on_date) == pytest.approx(1.0, abs=1e-12)
                assert all(float(r["delta"]) == delta for r in on_date)

    def test_explicit_tau(self, workdir, tmp_path):
        out = tmp_path / "attn7.csv"
        rc = main(
            [
                "export-attention",
                "--model", str(workdir["ckpt"]),
                "--graph", str(workdir["graph"]),
                "--out", str(out),
                "--tau", "7",
            ]
        )
        assert rc == 0
        assert out.exists()

    def test_unknown_tau_exits_2(self, workdir, tmp_path, capsys):
        rc = main(
            [
                "export-attention",
                "--model", str(workdir["ckpt"]),
                "--graph", str(workdir["graph"]),
                "--out", str(tmp_path / "x.csv"),
                "--tau", "5",
            ]
        )
        assert rc == 2
        assert "tau=5" in capsys.readouterr().err


class TestSplitTransductive:
    def test_masks_partition_nodes(self, workdir, tmp_path):
        out = tmp_path / "masks.json"
        rc = main(["split-transductive", "--graph", str(workdir["graph"]), "--out", str(out)])
        assert rc == 0
        masks = json.loads(out.read_text())
        graph = load_graph_dir(workdir["graph"])
        all_ids = sorted(masks["train"] + masks["val"] + masks["test"])
        assert all_ids == list(range(graph.n_nodes))
        assert len(masks["train"]) == graph.n_nodes * 7 // 10

    def test_stdout_mode(self, workdir, capsys):
        rc = main(["split-transductive", "--graph", str(workdir["graph"])])
        assert rc == 0
        masks = json.loads(capsys.readouterr().out)
        assert set(masks) == {"train", "val", "test"}


class TestNodeIdsOutOfDateOrder:
    """nodes.csv in (date, company) order is the builder's choice, not a rule of the format."""

    def test_results_follow_the_calls(self, workdir, tmp_path):
        graph = load_graph_dir(workdir["graph"])
        n = graph.n_nodes
        perm = np.random.default_rng(0).permutation(n)  # node i becomes node perm[i]

        def renumber(columns):
            def edit(rows):
                for k in map(rows[0].index, columns):
                    for row in rows[1:]:
                        row[k] = str(perm[int(row[k])])
                return rows

            return edit

        moved = tmp_path / "graph"
        shutil.copytree(workdir["graph"], moved)
        _edit_csv(moved / "nodes.csv", renumber(["node_id"]))
        _edit_csv(moved / "edges.csv", renumber(["src", "dst"]))
        permuted = load_graph_dir(moved)
        assert [permuted.calls[j].call_id for j in perm] == [c.call_id for c in graph.calls]
        assert (np.diff(permuted.days) < 0).any()

        # each call keeps its date index and gap
        a, b = prepare_quarter(graph), prepare_quarter(permuted)
        assert b.arrays.node_group[perm].tolist() == a.arrays.node_group.tolist()
        assert (b.arrays.dates, b.arrays.date_gaps) == (a.arrays.dates, a.arrays.date_gaps)
        assert np.array_equal(b.mask[perm], a.mask)
        assert permuted.labels[perm].tobytes() == graph.labels.tobytes()

        # the masks stay chronological, with the same counts
        want = transductive_split(graph, (7, 1, 2))
        got = transductive_split(permuted, (7, 1, 2))
        days = permuted.days
        for name in want:
            assert got[name].sum() == want[name].sum()
        assert days[got["train"]].max() <= days[got["val"]].min()
        assert days[got["val"]].max() <= days[got["test"]].min()

        # predictions and export rows match by call; within-date sums change order
        ids_a = [c.call_id for c in graph.calls]
        ids_b = [c.call_id for c in permuted.calls]
        models, _ = load_checkpoint(workdir["ckpt"])
        for tau, model in models.items():
            with no_grad():
                preds_a, _, diag_a = model.forward(a)
                preds_b, _, diag_b = model.forward(b)
            np.testing.assert_allclose(preds_b[tau].data[perm], preds_a[tau].data, rtol=1e-12)
            attn_a, attn_b = (
                {(layer, ids[src], ids[dst]): (g, over)
                 for layer, src, dst, g, over in attention_export_rows(p.arrays, diag)}
                for ids, p, diag in ((ids_a, a, diag_a), (ids_b, b, diag_b))
            )
            market_a, market_b = (
                {(layer, ids[node]): (date, beta, delta)
                 for layer, date, node, beta, delta in market_export_rows(p.arrays, diag)}
                for ids, p, diag in ((ids_a, a, diag_a), (ids_b, b, diag_b))
            )
            assert attn_b.keys() == attn_a.keys() and market_b.keys() == market_a.keys()
            for key, values in attn_a.items():
                np.testing.assert_allclose(attn_b[key], values, rtol=1e-12, err_msg=str(key))
            for key, (date, *values) in market_a.items():
                assert market_b[key][0] == date
                np.testing.assert_allclose(market_b[key][1:], values, rtol=1e-12, err_msg=str(key))


class TestSingleWindow:
    def test_eval_reports_the_checkpoint_window(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "tau3.cfg"
        cfg.write_text(tiny_model_config("taus = 3\nmax_epochs = 1"))
        ckpt, report = tmp_path / "tau3.npz", tmp_path / "eval.json"
        data = str(workdir["data"])
        assert main(["train", "--config", str(cfg), "--data", data, "--out", str(ckpt)]) == 0
        assert capsys.readouterr().out.startswith("tau3: stopped epoch 1,")
        assert main(["eval", "--model", str(ckpt), "--data", data, "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        for side in ("model", "v_past"):
            assert list(payload[side]) == ["mse_mean", "mse_3", "r2_3", "n_samples"]
            assert payload[side]["mse_mean"] == payload[side]["mse_3"]
            assert list(payload[side]["n_samples"]) == ["3"]


class TestJointTraining:
    def test_joint_checkpoint_round_trip(self, workdir, tmp_path):
        cfg = tmp_path / "joint.cfg"
        cfg.write_text(tiny_model_config("joint_heads = true\nmax_epochs = 1"))
        ckpt = tmp_path / "joint.npz"
        rc = main(["train", "--config", str(cfg), "--data", str(workdir["data"]), "--out", str(ckpt)])
        assert rc == 0
        models, config = load_checkpoint(ckpt)
        assert config.joint_heads
        assert len({id(m) for m in models.values()}) == 1


def _fail_csv_writes(monkeypatch):
    """csv writers write their first row, then fail."""
    real = csv.writer

    class Failing:
        def __init__(self, fh, *args, **kwargs):
            self.inner = real(fh, *args, **kwargs)

        def writerow(self, row):
            self.inner.writerow(row)
            raise OSError("disk full")

    monkeypatch.setattr(csv, "writer", Failing)


def _fail_json_dumps(monkeypatch):
    def fail_partway(obj, fh, **kwargs):
        fh.write('{"ok": ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", fail_partway)


class _HalfWrittenFile:
    """Writes half of its first write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


def _fail_file_write(monkeypatch, name):
    """The atomic write of the file called ``name`` fails partway."""
    import volgraph.atomic

    def failing_open(file, mode, encoding=None, newline=None):
        fh = open(file, mode, encoding=encoding, newline=newline)
        return _HalfWrittenFile(fh) if Path(file).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(volgraph.atomic, "open", failing_open, raising=False)


class TestAtomicOutputs:
    @pytest.mark.parametrize(
        "command", ["predict", "export-attention", "split-transductive", "build-graph",
                    "audit-leakage"]
    )
    def test_failed_write_keeps_old_file(self, workdir, tmp_path, monkeypatch, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result"
        out.write_bytes(b"old bytes")
        model, graph, data = str(workdir["ckpt"]), str(workdir["graph"]), workdir["data"]
        argv = {
            "predict": ["predict", "--model", model, "--graph", graph, "--out", str(out)],
            "export-attention": ["export-attention", "--model", model, "--graph", graph,
                                 "--out", str(out)],
            "split-transductive": ["split-transductive", "--graph", graph, "--out", str(out)],
            "build-graph": ["build-graph", "--quarter", "2014Q4",
                            "--transcripts", str(data / "transcripts.jsonl"),
                            "--relations", str(data / "relations.csv"),
                            "--out", str(tmp_path / "graph"), "--report", str(out)],
            "audit-leakage": ["audit-leakage", "--graph", graph, "--report", str(out)],
        }[command]
        if command in ("predict", "export-attention"):
            _fail_csv_writes(monkeypatch)
        else:
            _fail_json_dumps(monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert out.read_bytes() == b"old bytes"
        assert [p.name for p in out_dir.iterdir()] == ["result"]

    @pytest.mark.parametrize(
        "command, name",
        [("gen-synth", name) for name in ("transcripts.jsonl", "prices.csv", "relations.csv",
                                          "gen.json")]
        + [("build-graph", name) for name in ("graph.json", "nodes.csv", "edges.csv",
                                              "calls.jsonl")],
    )
    def test_failed_file_write_keeps_old_bytes(self, workdir, tmp_path, monkeypatch, command,
                                               name):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / name).write_bytes(b"old bytes")
        data = workdir["data"]
        argv = {
            "gen-synth": ["gen-synth", "--seed", "3", "--out", str(out_dir)],
            "build-graph": ["build-graph", "--quarter", "2014Q4",
                            "--transcripts", str(data / "transcripts.jsonl"),
                            "--relations", str(data / "relations.csv"), "--out", str(out_dir)],
        }[command]
        _fail_file_write(monkeypatch, name)
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert (out_dir / name).read_bytes() == b"old bytes"
        assert not [p.name for p in out_dir.iterdir() if p.name.startswith(".")]
