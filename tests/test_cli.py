import argparse
import dataclasses
import http.client
import json
import os
import platform
import select
import subprocess
import sys

import numpy as np
import pytest

import talentrank
from talentrank import ranker
from talentrank.cli import _build_parser, run, stage_seed
from talentrank.corpus import (
    EntityId,
    Impression,
    MemberProfile,
    ProfileStore,
    Query,
    Session,
    SessionStore,
    SynthConfig,
    synth_corpus,
)
from talentrank.graph_embed import MAX_EXACT_VERTICES, EmbedConfig, EmbeddingTable
from talentrank.neural import TrainConfig, init_mlp
from talentrank.ranker import FeatureSchema, RankingModel
from talentrank.semantic_match import DssmConfig

NESTED = "[" * 200_000 + "]" * 200_000  # deeper than json.loads can recurse
SRC = os.path.dirname(os.path.dirname(talentrank.__file__))


def read(path):
    with open(path, "rb") as f:
        return f.read()


def ranker_file(tmp_path, schema=FeatureSchema()):
    """An untrained one-hidden-layer ranker over `schema`, saved."""
    model = tmp_path / "model.txt"
    RankingModel(schema, init_mlp(schema.width, (4,), "relu", 0), "pointwise", 0, 0).save(
        str(model))
    return model


def synth_args(out, seed=7, members=60, sessions=30, extra=()):
    return [
        "synth", "--seed", str(seed), "--out", str(out),
        "--members", str(members), "--sessions", str(sessions),
        "--impressions-per-session", "6", "--entities-per-cluster", "8",
    ] + list(extra)


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(synth_args(a)) == 0
        assert run(synth_args(b)) == 0
        for name in ("profiles.jsonl", "sessions.jsonl", "oracle.json"):
            assert read(a / name) == read(b / name), name

    def test_different_seeds_differ(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(synth_args(a, seed=1))
        run(synth_args(b, seed=2))
        assert read(a / "sessions.jsonl") != read(b / "sessions.jsonl")

    def test_bad_count_is_data_error(self, tmp_path):
        assert run(synth_args(tmp_path / "x", extra=["--members", "0"])) == 2

    def test_unset_flags_keep_config_defaults(self, tmp_path):
        assert run(["synth", "--seed", "4", "--out", str(tmp_path / "cli")]) == 0
        profiles, sessions, _ = synth_corpus(SynthConfig(), stage_seed(4, "synth"))
        profiles.save(str(tmp_path / "profiles.jsonl"))
        sessions.save(str(tmp_path / "sessions.jsonl"))
        for name in ("profiles.jsonl", "sessions.jsonl"):
            assert read(tmp_path / "cli" / name) == read(tmp_path / name), name

    def test_module_entry_point_writes_corpus(self, tmp_path):
        subprocess.run([sys.executable, "-m", "talentrank.cli", *synth_args(tmp_path / "a")],
                       env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=120)
        assert run(synth_args(tmp_path / "b")) == 0
        for name in ("profiles.jsonl", "sessions.jsonl", "oracle.json"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name), name


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_no_subcommand(self):
        assert run([]) == 1

    def test_missing_required_flag(self):
        assert run(["synth", "--seed", "1"]) == 1

    def test_unknown_flag(self, tmp_path):
        assert run(synth_args(tmp_path / "x", extra=["--bogus", "1"])) == 1


class TestFieldFlags:
    """Flags that set a config field: one group per subcommand, no CLI default."""

    CONFIGS = {"synth": SynthConfig, "train-embed": EmbedConfig, "train-dssm": DssmConfig,
               "train-ranker": TrainConfig}

    def test_field_flags_name_fields_and_have_no_default(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        seen = {}
        for name, command in commands.items():
            for group in command._action_groups:
                if group.title and group.title.endswith(" fields"):
                    seen[name] = group.title
                    cls = self.CONFIGS[name]
                    assert group.title == f"{cls.__name__} fields"
                    fields = {f.name for f in dataclasses.fields(cls)}
                    for action in group._group_actions:
                        assert action.dest in fields, (name, action.option_strings)
                        assert action.default is argparse.SUPPRESS, (name, action.option_strings)
        assert set(seen) == set(self.CONFIGS)

    def test_every_field_but_seed_has_a_flag(self):
        """A field no flag sets is a setting no caller sets; the stage seed
        comes from `--seed` through stage_seed."""
        commands = next(a for a in _build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for name, cls in self.CONFIGS.items():
            group = next(g for g in commands[name]._action_groups
                         if g.title == f"{cls.__name__} fields")
            flagged = {action.dest for action in group._group_actions}
            fields = {f.name for f in dataclasses.fields(cls)} - {"seed"}
            assert fields <= flagged, (name, sorted(fields - flagged))

    def test_train_ranker_sets_every_schema_field(self, tmp_path, monkeypatch):
        """train-ranker builds the FeatureSchema from its flags and tables: a
        field it leaves to the default is a setting no caller sets."""
        given = []

        class Recording(FeatureSchema):
            def __init__(self, **kwargs):
                given.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(ranker, "FeatureSchema", Recording)
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus)) == 0
        assert run(["train-ranker", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"), "--hidden", "2",
                    "--epochs", "1", "--out", str(tmp_path / "model.txt")]) == 0
        assert [set(kwargs) for kwargs in given] == [
            {f.name for f in dataclasses.fields(FeatureSchema)}]


class TestBadValues:
    """A bad flag value is a usage error (1) or a typed data error (2),
    never a traceback or a silent fix-up."""

    @pytest.fixture()
    def corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(synth_args(out)) == 0
        return out

    def inputs(self, corpus):
        return ["--profiles", str(corpus / "profiles.jsonl"),
                "--sessions", str(corpus / "sessions.jsonl")]

    @pytest.mark.parametrize("command, flag, value", [
        ("train-ranker", "--hidden", "x"),
        ("train-dssm", "--arch", "1,q"),
        ("evaluate", "--k", "1,x"),
    ])
    def test_malformed_list_is_usage_error(self, corpus, tmp_path, capsys, command, flag, value):
        out = ["--report" if command == "evaluate" else "--out", str(tmp_path / "out")]
        model = ["--model", str(tmp_path / "model.txt")] if command == "evaluate" else []
        assert run([command, *model, *self.inputs(corpus), flag, value, *out]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: expected comma-separated int values, got {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value", [
        ("train-ranker", "--hidden", "-3"),
        ("train-ranker", "--hidden", "0"),
        ("train-ranker", "--hidden", "4,0"),
        ("train-dssm", "--arch", "-1"),
        ("train-dssm", "--arch", "0"),
    ])
    def test_width_below_one_is_data_error(self, corpus, tmp_path, capsys, command, flag, value):
        out = tmp_path / "model.txt"
        assert run([command, *self.inputs(corpus), flag, value, "--epochs", "1",
                    "--out", str(out)]) == 2
        assert "hidden layer widths must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture()
    def graph(self, corpus, tmp_path):
        path = tmp_path / "skill.graph"
        assert run(["build-graph", "--profiles", str(corpus / "profiles.jsonl"),
                    "--namespace", "skill", "--out", str(path)]) == 0
        return path

    @pytest.mark.parametrize("flags, message", [
        (["--emb-measures", "dot"], "--emb-measures needs --tables"),
        (["--hadamard"], "--hadamard needs --tables"),
        (["--emb-measures", "bogus"], "argument --emb-measures: invalid choice 'bogus'"),
        (["--valid-fraction", "7"], "--valid-fraction must be in [0, 1), got 7.0"),
        (["--valid-fraction", "1"], "--valid-fraction must be in [0, 1), got 1.0"),
        (["--valid-fraction", "-0.1"], "--valid-fraction must be in [0, 1), got -0.1"),
        (["--valid-fraction", "nan"], "--valid-fraction must be in [0, 1), got nan"),
    ], ids=["measures_no_tables", "hadamard_no_tables", "bad_measure", "fraction_7",
            "fraction_1", "fraction_negative", "fraction_nan"])
    def test_ranker_flag_it_would_ignore_is_usage_error(self, corpus, tmp_path, capsys, flags,
                                                        message):
        out = tmp_path / "model.txt"
        assert run(["train-ranker", *self.inputs(corpus), *flags, "--epochs", "1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_context_out_without_second_order_is_usage_error(self, graph, tmp_path, capsys):
        out, context = tmp_path / "skill.emb", tmp_path / "context.emb"
        assert run(["train-embed", "--graph", str(graph), "--namespace", "skill",
                    "--order", "first", "--context-out", str(context), "--out", str(out)]) == 1
        assert "--context-out needs a second-order table" in capsys.readouterr().err
        assert not out.exists() and not context.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train-embed", "--learning-rate", "nan"),
        ("train-embed", "--learning-rate", "inf"),
        ("train-ranker", "--learning-rate", "nan"),
        ("train-ranker", "--learning-rate", "inf"),
        ("train-ranker", "--l2", "nan"),
        ("train-dssm", "--learning-rate", "nan"),
        ("train-dssm", "--gamma", "nan"),
        ("train-dssm", "--gamma", "inf"),
    ])
    def test_non_finite_value_is_data_error(self, corpus, graph, tmp_path, capsys, command, flag,
                                            value):
        out = tmp_path / "out.txt"
        inputs = (["--graph", str(graph), "--namespace", "skill"] if command == "train-embed"
                  else self.inputs(corpus))
        assert run([command, *inputs, flag, value, "--epochs", "1", "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_embed_learning_rate_stops_before_training(self, graph, tmp_path):
        # a child process, so a descent that never returns fails the test by timeout
        proc = subprocess.run(
            [sys.executable, "-m", "talentrank.cli", "train-embed", "--graph", str(graph),
             "--namespace", "skill", "--learning-rate", "inf", "--out", str(tmp_path / "e.emb")],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "learning_rate must be finite and > 0, got inf" in proc.stderr

    def test_empty_width_list_trains_a_linear_ranker(self, corpus, tmp_path):
        out = tmp_path / "model.txt"
        assert run(["train-ranker", *self.inputs(corpus), "--hidden", "", "--epochs", "1",
                    "--out", str(out)]) == 0
        assert "num_layers 0" in out.read_text()

    @pytest.mark.parametrize("port", ["-1", "65536", "70000"])
    def test_port_out_of_range_is_data_error(self, corpus, tmp_path, capsys, port):
        assert run(["serve", "--model", str(ranker_file(tmp_path)),
                    "--profiles", str(corpus / "profiles.jsonl"), "--port", port]) == 2
        assert f"port must be in 0..65535, got {port}" in capsys.readouterr().err

    def test_port_checked_before_anything_loads(self, tmp_path, capsys):
        assert run(["serve", "--model", str(tmp_path / "missing.txt"),
                    "--profiles", str(tmp_path / "missing.jsonl"), "--port", "70000"]) == 2
        assert "port must be in 0..65535, got 70000" in capsys.readouterr().err

    @pytest.mark.parametrize("schema, table_dim, message", [
        (FeatureSchema(embedding_namespaces=("skill",)), None,
         "no embedding table for namespace 'skill'"),
        (FeatureSchema(embedding_namespaces=("skill",), include_hadamard=True, embedding_dim=4),
         8, "table for 'skill' has dim 8, schema expects 4"),
    ], ids=["missing_table", "hadamard_dim"])
    def test_model_that_does_not_fit_the_tables_stops_serve(self, corpus, tmp_path, schema,
                                                            table_dim, message):
        tables = []
        if table_dim is not None:
            path = tmp_path / "skill.emb"
            EmbeddingTable(table_dim, "concat", [EntityId("skill", i) for i in range(4)],
                           np.ones((4, table_dim))).save(str(path))
            tables = ["--tables", f"skill={path}"]
        # a child process, so a serve that starts anyway fails the test by timeout
        proc = subprocess.run(
            [sys.executable, "-m", "talentrank.cli", "serve",
             "--model", str(ranker_file(tmp_path, schema)),
             "--profiles", str(corpus / "profiles.jsonl"), *tables, "--port", "0"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "serving on" not in proc.stdout
        assert f"talentrank serve: model does not fit the index: {message}" in proc.stderr

    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_table_the_model_does_not_name_is_data_error(self, corpus, tmp_path, capsys,
                                                          command):
        # a skill-only model given a title table too; the title file is not
        # a table, so the refusal must come before any table loads
        skill, title = tmp_path / "skill.emb", tmp_path / "title.emb"
        EmbeddingTable(4, "concat", [EntityId("skill", i) for i in range(4)],
                       np.ones((4, 4))).save(str(skill))
        title.write_text("junk\n")
        model = ranker_file(tmp_path, FeatureSchema(embedding_namespaces=("skill",)))
        tables = ["--tables", f"title={title}", "--tables", f"skill={skill}"]
        out = tmp_path / "report.csv"
        if command == "serve":
            # a child process, so a serve that starts anyway fails the test by timeout
            proc = subprocess.run(
                [sys.executable, "-m", "talentrank.cli", "serve", "--model", str(model),
                 "--profiles", str(corpus / "profiles.jsonl"), *tables, "--port", "0"],
                env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
            code, err = proc.returncode, proc.stderr
            assert "serving on" not in proc.stdout
        else:
            code = run(["evaluate", "--model", str(model), *self.inputs(corpus), *tables,
                        "--report", str(out)])
            err = capsys.readouterr().err
        assert code == 2
        assert err == (f"talentrank {command}: the model uses no embedding table for "
                       "namespace 'title'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-ranker", "evaluate", "serve"])
    @pytest.mark.parametrize("namespaces, message", [
        (("skill", "foo"), "argument --tables: unknown namespace 'foo'"),
        (("skill", "skill"), "--tables gives namespace 'skill' more than once"),
    ], ids=["unknown_namespace", "repeated_namespace"])
    def test_bad_tables_is_usage_error(self, corpus, tmp_path, capsys, command, namespaces,
                                       message):
        tables = []
        for i, ns in enumerate(namespaces):
            path = tmp_path / f"table{i}.emb"
            path.write_text("dim=2 kind=concat\n")  # a table with no rows
            tables += ["--tables", f"{ns}={path}"]
        out = tmp_path / "out.txt"
        if command == "serve":
            # a child process, so a serve that starts anyway fails the test by timeout
            proc = subprocess.run(
                [sys.executable, "-m", "talentrank.cli", "serve",
                 "--model", str(ranker_file(tmp_path)),
                 "--profiles", str(corpus / "profiles.jsonl"), *tables, "--port", "0"],
                env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
            code, err = proc.returncode, proc.stderr
            assert "serving on" not in proc.stdout
        else:
            inputs = self.inputs(corpus)
            if command == "evaluate":
                inputs = ["--model", str(ranker_file(tmp_path)), *inputs, "--report", str(out)]
            else:
                inputs = [*inputs, "--epochs", "1", "--out", str(out)]
            code, err = run([command, *inputs, *tables]), capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_member_id_stops_serve(self, corpus, tmp_path):
        profiles = tmp_path / "profiles.jsonl"
        lines = (corpus / "profiles.jsonl").read_text().splitlines(keepends=True)
        profiles.write_text("".join(lines + lines[3:4]))
        # a child process, so a serve that starts anyway fails the test by timeout
        proc = subprocess.run(
            [sys.executable, "-m", "talentrank.cli", "serve", "--model", str(ranker_file(tmp_path)),
             "--profiles", str(profiles), "--port", "0"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "serving on" not in proc.stdout
        repeated = json.loads(lines[3])["member_id"]
        assert proc.stderr == f"talentrank serve: duplicate member_id {repeated}\n"


class TestPipeline:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        out = tmp_path / "corpus"
        assert run(synth_args(out)) == 0
        return out

    def test_build_graph_and_embed(self, corpus_dir, tmp_path):
        graph = tmp_path / "skill.graph"
        assert run(["build-graph", "--profiles", str(corpus_dir / "profiles.jsonl"),
                    "--namespace", "skill", "--out", str(graph)]) == 0
        assert graph.exists() and graph.stat().st_size > 0
        emb = tmp_path / "skill.emb"
        assert run(["train-embed", "--graph", str(graph), "--namespace", "skill",
                    "--order", "concat", "--dim", "4", "--epochs", "30",
                    "--seed", "3", "--out", str(emb)]) == 0
        header = emb.read_text().splitlines()[0]
        assert header == "dim=8 kind=concat"

    def test_embed_deterministic(self, corpus_dir, tmp_path):
        graph = tmp_path / "skill.graph"
        run(["build-graph", "--profiles", str(corpus_dir / "profiles.jsonl"),
             "--namespace", "skill", "--out", str(graph)])
        a = tmp_path / "a.emb"
        b = tmp_path / "b.emb"
        args = ["train-embed", "--graph", str(graph), "--namespace", "skill",
                "--order", "first", "--dim", "4", "--epochs", "20", "--seed", "3"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_edgeless_graph_is_data_error(self, tmp_path, capsys):
        graph = tmp_path / "empty.graph"
        graph.write_text("")
        code = run(["train-embed", "--graph", str(graph), "--namespace", "skill",
                    "--mode", "exact", "--out", str(tmp_path / "x.emb")])
        assert code == 2
        assert "edge" in capsys.readouterr().err

    def test_train_rank_evaluate_serve_artifacts(self, corpus_dir, tmp_path):
        graph = tmp_path / "skill.graph"
        run(["build-graph", "--profiles", str(corpus_dir / "profiles.jsonl"),
             "--namespace", "skill", "--out", str(graph)])
        emb = tmp_path / "skill.emb"
        run(["train-embed", "--graph", str(graph), "--namespace", "skill",
             "--order", "concat", "--dim", "4", "--epochs", "30", "--seed", "3",
             "--out", str(emb)])
        model = tmp_path / "model.txt"
        assert run(["train-ranker", "--profiles", str(corpus_dir / "profiles.jsonl"),
                    "--sessions", str(corpus_dir / "sessions.jsonl"),
                    "--tables", f"skill={emb}", "--objective", "pairwise_hinge",
                    "--hidden", "8", "--epochs", "3", "--seed", "5",
                    "--out", str(model)]) == 0
        report = tmp_path / "report.csv"
        assert run(["evaluate", "--model", str(model),
                    "--profiles", str(corpus_dir / "profiles.jsonl"),
                    "--sessions", str(corpus_dir / "sessions.jsonl"),
                    "--tables", f"skill={emb}", "--k", "1,5,25",
                    "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("prec,")) == 3
        assert any(l.startswith("auc,,") for l in lines)

    def test_ranker_deterministic(self, corpus_dir, tmp_path):
        model_args = ["train-ranker", "--profiles", str(corpus_dir / "profiles.jsonl"),
                      "--sessions", str(corpus_dir / "sessions.jsonl"),
                      "--objective", "pointwise", "--hidden", "6",
                      "--epochs", "2", "--seed", "11"]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(model_args + ["--out", str(a)]) == 0
        assert run(model_args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_ranker_trains_on_member_ids_beyond_int64(self, tmp_path):
        huge = 2**64
        profiles = ProfileStore([
            MemberProfile(3, frozenset({EntityId("skill", 1)}), frozenset(), frozenset(), "java"),
            MemberProfile(huge, frozenset({EntityId("skill", huge)}), frozenset(), frozenset(),
                          "sales"),
        ])
        query = Query(keywords="java", facet_skills=frozenset({EntityId("skill", 1)}))
        sessions = SessionStore(
            Session(sid, 100 + sid, query, (Impression(3, 1, 0), Impression(huge, 0, 1)))
            for sid in range(50))  # a validation split of 10 sessions ranks by Prec@25
        profiles.save(str(tmp_path / "profiles.jsonl"))
        sessions.save(str(tmp_path / "sessions.jsonl"))
        assert run(["train-ranker", "--profiles", str(tmp_path / "profiles.jsonl"),
                    "--sessions", str(tmp_path / "sessions.jsonl"), "--objective", "pairwise_hinge",
                    "--hidden", "4", "--epochs", "2", "--seed", "1",
                    "--out", str(tmp_path / "model.txt")]) == 0

    def test_sampled_mode_default_learning_rate_trains(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=2000, extra=["--entities-per-cluster", "30"])) == 0
        graph = tmp_path / "skill.graph"
        assert run(["build-graph", "--profiles", str(corpus / "profiles.jsonl"),
                    "--namespace", "skill", "--out", str(graph)]) == 0
        assert run(["train-embed", "--graph", str(graph), "--namespace", "skill",
                    "--mode", "sampled", "--order", "first", "--epochs", "20",
                    "--out", str(tmp_path / "skill.emb")]) == 0, capsys.readouterr().err

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(["build-graph", "--profiles", str(tmp_path / "nope.jsonl"),
                    "--namespace", "skill", "--out", str(tmp_path / "g.txt")]) == 2


class TestLoaderErrors:
    @pytest.fixture()
    def world(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus)) == 0
        model = tmp_path / "model.txt"
        assert run(["train-ranker", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"), "--objective", "pointwise",
                    "--hidden", "4", "--epochs", "1", "--seed", "1", "--out", str(model)]) == 0
        return corpus, model

    def evaluate(self, corpus, model, tmp_path, tables=()):
        return run(["evaluate", "--model", str(model),
                    "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"), *tables,
                    "--report", str(tmp_path / "report.csv")])

    def test_truncated_model_is_data_error(self, world, tmp_path, capsys):
        corpus, model = world
        lines = model.read_text().splitlines(keepends=True)
        for keep in (1, 3, 5, 7, len(lines) - 1):
            cut = tmp_path / f"cut{keep}.txt"
            cut.write_text("".join(lines[:keep]))
            assert self.evaluate(corpus, cut, tmp_path) == 2, keep
            assert "talentrank evaluate:" in capsys.readouterr().err

    def test_malformed_graph_is_data_error(self, tmp_path, capsys):
        for i, text in enumerate(("1 2 3\n1 2 5\n", "1 2 3\n2 1 3\n", "1 2 3\n1 x 2\n",
                                  "1 2 3\n1 3 2.5\n", "1 2 3\n1 3\n")):
            graph = tmp_path / f"bad{i}.graph"
            graph.write_text(text)
            assert run(["train-embed", "--graph", str(graph), "--namespace", "skill",
                        "--mode", "exact", "--out", str(tmp_path / "x.emb")]) == 2, text
            assert "line 2" in capsys.readouterr().err

    def test_oversized_exact_second_order_is_data_error(self, tmp_path, capsys):
        graph = tmp_path / "path.graph"
        graph.write_text("".join(f"{v} {v + 1} 1\n" for v in range(MAX_EXACT_VERTICES)))
        assert run(["train-embed", "--graph", str(graph), "--namespace", "skill",
                    "--mode", "exact", "--order", "second", "--dim", "2", "--epochs", "1",
                    "--out", str(tmp_path / "x.emb")]) == 2
        assert "sampled mode" in capsys.readouterr().err

    def test_deeply_nested_corpus_record_is_data_error(self, world, tmp_path, capsys):
        corpus, _ = world
        nested = tmp_path / "nested.jsonl"
        nested.write_text(NESTED + "\n")
        assert run(["build-graph", "--profiles", str(nested), "--namespace", "skill",
                    "--out", str(tmp_path / "g.txt")]) == 2
        assert "line 1: invalid record" in capsys.readouterr().err
        assert run(["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(nested), "--out", str(tmp_path / "dssm.txt")]) == 2
        assert "line 1: invalid record" in capsys.readouterr().err

    def test_deeply_nested_schema_is_data_error(self, world, tmp_path, capsys):
        corpus, model = world
        lines = model.read_text().splitlines(keepends=True)
        assert lines[4].startswith("schema ")
        nested = tmp_path / "nested.txt"
        nested.write_text("".join(lines[:4]) + f"schema {NESTED}\n" + "".join(lines[5:]))
        assert self.evaluate(corpus, nested, tmp_path) == 2
        assert "talentrank evaluate: malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda lines: [*lines[:3], "epochs_run -3", *lines[4:]],
        lambda lines: [*lines[:6], lines[6].replace("layer 0 ", "layer 9 "), *lines[7:]],
        *(lambda lines, fields=fields: [*lines[:4], "schema " + json.dumps(
            {"embedding_dim": 0, "embedding_measures": ["dot"], "embedding_namespaces": [],
             "include_hadamard": False, **fields}), *lines[5:]]
          for fields in ({"embedding_namespaces": ["skill", "skill"]}, {"embedding_dim": True},
                         {"embedding_dim": -4}, {"embedding_dim": 3.5, "include_hadamard": True})),
        lambda lines: [*lines, "junk"],
    ], ids=["negative_epochs_run", "layer_index", "repeated_namespace", "dim_as_bool",
            "negative_dim", "dim_as_float", "trailing_line"])
    def test_damaged_model_header_is_data_error(self, world, tmp_path, capsys, edit):
        corpus, model = world
        model.write_text("\n".join(edit(model.read_text().splitlines())) + "\n")
        assert self.evaluate(corpus, model, tmp_path) == 2
        assert "talentrank evaluate: malformed model file" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["2 concat", "dim=2 kind=concat junk=1"])
    def test_damaged_table_header_is_data_error(self, world, tmp_path, capsys, header):
        corpus, _ = world
        # a model that uses skill tables, so the table is read
        model = ranker_file(tmp_path, FeatureSchema(embedding_namespaces=("skill",)))
        emb = tmp_path / "bad.emb"
        emb.write_text(f"{header}\n1 0.1 0.2\n")
        assert self.evaluate(corpus, model, tmp_path, ["--tables", f"skill={emb}"]) == 2
        assert "line 1: expected a 'dim=<d> kind=<kind>' header" in capsys.readouterr().err

    def test_malformed_embedding_table_is_data_error(self, world, tmp_path, capsys):
        corpus, _ = world
        model = ranker_file(tmp_path, FeatureSchema(embedding_namespaces=("skill",)))
        for i, row in enumerate(("abc 0.1 0.2", "1 0.1 x")):
            emb = tmp_path / f"bad{i}.emb"
            emb.write_text(f"dim=2 kind=concat\n{row}\n")
            assert self.evaluate(corpus, model, tmp_path, ["--tables", f"skill={emb}"]) == 2
            assert "line 2" in capsys.readouterr().err

    def test_non_utf8_inputs_are_data_errors(self, world, tmp_path, capsys):
        corpus, model = world
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\n")
        assert run(["build-graph", "--profiles", str(bad), "--namespace", "skill",
                    "--out", str(tmp_path / "g.txt")]) == 2
        assert "line 1: not UTF-8 text: byte 0xff" in capsys.readouterr().err
        assert self.evaluate(corpus, bad, tmp_path) == 2
        assert "talentrank evaluate: not UTF-8 text" in capsys.readouterr().err
        # the bad byte sits on the second line of an otherwise valid file
        sessions = tmp_path / "sessions.jsonl"
        sessions.write_bytes((corpus / "sessions.jsonl").read_bytes().split(b"\n")[0]
                             + b"\n\xff\n")
        assert run(["evaluate", "--model", str(model),
                    "--profiles", str(corpus / "profiles.jsonl"), "--sessions", str(sessions),
                    "--report", str(tmp_path / "report.csv")]) == 2
        assert "line 2: not UTF-8 text: byte 0xff" in capsys.readouterr().err
        assert run(["export", "--dssm", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "talentrank export: not UTF-8 text" in capsys.readouterr().err


class TestDssmCli:
    def test_train_and_export(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=40, sessions=12)) == 0
        model = tmp_path / "dssm.txt"
        assert run(["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"),
                    "--arch", "8", "--output-dim", "4", "--epochs", "1",
                    "--negatives", "2", "--seed", "1", "--out", str(model)]) == 0
        out = tmp_path / "exports"
        assert run(["export", "--dssm", str(model), "--out", str(out)]) == 0
        for ns in ("skill", "title", "company"):
            path = out / f"supervised_{ns}.emb"
            assert path.exists()
            assert path.read_text().splitlines()[0] == "dim=4 kind=supervised"

    def test_truncated_model_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=40, sessions=12)) == 0
        model = tmp_path / "dssm.txt"
        assert run(["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"), "--arch", "3",
                    "--output-dim", "2", "--epochs", "1", "--negatives", "2",
                    "--seed", "1", "--out", str(model)]) == 0
        lines = model.read_text().splitlines(keepends=True)
        for keep in range(len(lines)):
            cut = tmp_path / "cut.txt"
            cut.write_text("".join(lines[:keep]))
            assert run(["export", "--dssm", str(cut), "--out", str(tmp_path / "x")]) == 2, keep
            assert "talentrank export:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        # the doc arm cut to its first two layers: 100 outputs against the query arm's 50
        lambda lines: [*lines[:lines.index("doc_arm") + 1], "num_layers 2",
                       *lines[lines.index("doc_arm") + 2:-52]],
        lambda lines: [*lines[:3], "trigram_vocab " + json.dumps(json.loads(
            lines[3].split(" ", 1)[1])[:-1]), *lines[4:]],
        # a repeated entry that keeps the vocabulary's width
        lambda lines: [*lines[:3], "trigram_vocab " + json.dumps(
            (lambda grams: grams + grams[:1])(json.loads(lines[3].split(" ", 1)[1]))), *lines[4:]],
        lambda lines: [*lines[:9], lines[9].replace("layer 0 ", "layer 9 "), *lines[10:]],
        lambda lines: [*lines, "junk"],
    ], ids=["doc_arm_cut", "trigram_vocab_short", "repeated_trigram_vocab", "layer_index",
            "trailing_line"])
    def test_inconsistent_model_is_data_error(self, tmp_path, capsys, edit):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=40, sessions=12)) == 0
        model = tmp_path / "dssm.txt"
        assert run(["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"), "--epochs", "1",
                    "--negatives", "2", "--seed", "1", "--out", str(model)]) == 0
        model.write_text("\n".join(edit(model.read_text().splitlines())) + "\n")
        assert run(["export", "--dssm", str(model), "--out", str(tmp_path / "x")]) == 2
        assert "talentrank export: malformed model file" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_deeply_nested_trigram_vocab_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=40, sessions=12)) == 0
        model = tmp_path / "dssm.txt"
        assert run(["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(corpus / "sessions.jsonl"), "--arch", "3",
                    "--output-dim", "2", "--epochs", "1", "--negatives", "2",
                    "--seed", "1", "--out", str(model)]) == 0
        lines = model.read_text().splitlines(keepends=True)
        assert lines[3].startswith("trigram_vocab ")
        lines[3] = f"trigram_vocab {NESTED}\n"
        model.write_text("".join(lines))
        assert run(["export", "--dssm", str(model), "--out", str(tmp_path / "x")]) == 2
        assert "talentrank export: malformed model file" in capsys.readouterr().err

    def test_session_member_missing_from_profiles_is_data_error(self, tmp_path, capsys):
        # the missing member sits in a session with no positive, so it would
        # never be drawn as a negative; it is refused all the same
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=40, sessions=12)) == 0
        lines = (corpus / "sessions.jsonl").read_text().splitlines()
        record = json.loads(lines[-1])
        record["session_id"] = 999
        record["impressions"] = [{**imp, "label": 0} for imp in record["impressions"]]
        record["impressions"][0]["member_id"] = 10**6
        sessions = tmp_path / "sessions.jsonl"
        sessions.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
        model = tmp_path / "dssm.txt"
        assert run(["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                    "--sessions", str(sessions), "--arch", "3", "--output-dim", "2",
                    "--epochs", "1", "--negatives", "2", "--out", str(model)]) == 2
        assert ("talentrank train-dssm: session 999: member 1000000 not in profile store"
                in capsys.readouterr().err)
        assert not model.exists()

    def test_dssm_deterministic(self, tmp_path):
        corpus = tmp_path / "corpus"
        run(synth_args(corpus, members=40, sessions=12))
        args = ["train-dssm", "--profiles", str(corpus / "profiles.jsonl"),
                "--sessions", str(corpus / "sessions.jsonl"),
                "--arch", "8", "--output-dim", "4", "--epochs", "1",
                "--negatives", "2", "--seed", "1"]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)


class TestConfigFile:
    def test_config_values_applied_and_overridden(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("members=40\nsessions=12\n")
        a = tmp_path / "a"
        assert run(["synth", "--config", str(cfg), "--seed", "1", "--out", str(a),
                    "--impressions-per-session", "6", "--entities-per-cluster", "8"]) == 0
        b = tmp_path / "b"
        assert run(synth_args(b, seed=1, members=40, sessions=12)) == 0
        assert read(a / "sessions.jsonl") == read(b / "sessions.jsonl")
        # a later flag overrides the config value
        c = tmp_path / "c"
        assert run(["synth", "--config", str(cfg), "--seed", "1", "--out", str(c),
                    "--impressions-per-session", "6", "--entities-per-cluster", "8",
                    "--sessions", "20"]) == 0
        d = tmp_path / "d"
        assert run(synth_args(d, seed=1, members=40, sessions=20)) == 0
        assert read(c / "sessions.jsonl") == read(d / "sessions.jsonl")

    @pytest.mark.parametrize("form", [["--config={}"], ["--conf", "{}"]],
                             ids=["equals", "abbreviated"])
    def test_config_forms_argparse_accepts_are_applied(self, tmp_path, form):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("members=40\nsessions=12\n")
        a = tmp_path / "a"
        assert run(["synth", *(part.format(cfg) for part in form), "--seed", "1", "--out", str(a),
                    "--impressions-per-session", "6", "--entities-per-cluster", "8"]) == 0
        b = tmp_path / "b"
        assert run(synth_args(b, seed=1, members=40, sessions=12)) == 0
        assert read(a / "sessions.jsonl") == read(b / "sessions.jsonl")

    def test_config_key_of_a_renamed_field_flag(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus)) == 0
        args = ["train-ranker", "--profiles", str(corpus / "profiles.jsonl"),
                "--sessions", str(corpus / "sessions.jsonl"), "--objective", "pointwise",
                "--epochs", "1", "--seed", "2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hidden=3,2\nl2=0.01\n")
        assert run(args + ["--config", str(cfg), "--out", str(tmp_path / "a.txt")]) == 0
        assert run(args + ["--hidden", "3,2", "--l2", "0.01",
                           "--out", str(tmp_path / "b.txt")]) == 0
        assert read(tmp_path / "a.txt") == read(tmp_path / "b.txt")

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_real_option=1\n")
        assert run(["synth", "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "x")]) == 1

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"members=40\n\xff\n")
        assert run(["synth", "--config", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "bad config file: not UTF-8 text: byte 0xff" in err
        assert "Traceback" not in err

    def test_repeated_config_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.cfg"
        a.write_text("members=50\n")
        b = tmp_path / "b.cfg"
        b.write_text("members=77\n")
        out = tmp_path / "x"
        assert run(["synth", "--config", str(a), "--config", str(b), "--seed", "1",
                    "--out", str(out)]) == 1
        assert "--config given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_store_true_flag_takes_true_or_false(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus)) == 0
        emb = tmp_path / "skill.emb"
        emb.write_text("dim=2 kind=concat\n" + "".join(f"{i} 0.{i} -0.5\n" for i in range(40)))
        args = ["train-ranker", "--profiles", str(corpus / "profiles.jsonl"),
                "--sessions", str(corpus / "sessions.jsonl"), "--tables", f"skill={emb}",
                "--objective", "pointwise", "--hidden", "4", "--epochs", "1", "--seed", "2"]

        def train(name, config=None, extra=()):
            out = tmp_path / name
            head = args[:1]
            if config is not None:
                (tmp_path / f"{name}.cfg").write_text(config)
                head += ["--config", str(tmp_path / f"{name}.cfg")]
            return run(head + args[1:] + list(extra) + ["--out", str(out)]), out

        results = {name: train(name, *how) for name, how in {
            "on_config": ("hadamard=true\n",), "on_flag": (None, ["--hadamard"]),
            "off_config": ("hadamard = False\n",), "off": (),
        }.items()}
        assert all(code == 0 for code, _ in results.values())
        on = read(results["on_config"][1])
        assert on == read(results["on_flag"][1])
        assert read(results["off_config"][1]) == read(results["off"][1]) != on
        assert train("bad", "hadamard=yes\n")[0] == 1


class TestStageSeed:
    def test_distinct_per_stage_and_stable(self):
        assert stage_seed(7, "synth") != stage_seed(7, "ranker")
        assert stage_seed(7, "synth") == stage_seed(7, "synth")
        assert 0 <= stage_seed(123, "dssm") < 2**32


class TestBlasThreads:
    """Artifacts do not depend on the BLAS thread count. Each stage runs in
    its own interpreter, because OpenBLAS reads its thread count when it
    loads; the sizes put the embedding, DSSM and ranker products past the
    size at which OpenBLAS splits a product across threads."""

    def cli(self, threads, argv):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=os.path.dirname(os.path.dirname(talentrank.__file__)))
        subprocess.run([sys.executable, "-c", "from talentrank.cli import main; main()", *argv],
                       env=env, check=True, timeout=300)

    def test_artifacts_identical_at_one_and_two_threads(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run(synth_args(corpus, members=200, sessions=100,
                              extra=["--entities-per-cluster", "40"])) == 0
        profiles, sessions = str(corpus / "profiles.jsonl"), str(corpus / "sessions.jsonl")
        graph = tmp_path / "skill.graph"
        assert run(["build-graph", "--profiles", profiles, "--namespace", "skill",
                    "--out", str(graph)]) == 0
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            self.cli(threads, ["train-embed", "--graph", str(graph), "--namespace", "skill",
                               "--mode", "exact", "--order", "concat", "--dim", "64",
                               "--epochs", "20", "--seed", "3", "--out", str(out / "skill.emb")])
            self.cli(threads, ["train-dssm", "--profiles", profiles, "--sessions", sessions,
                               "--epochs", "1", "--seed", "3", "--out", str(out / "dssm.txt")])
            self.cli(threads, ["train-ranker", "--profiles", profiles, "--sessions", sessions,
                               "--tables", f"skill={out / 'skill.emb'}",
                               "--objective", "pairwise_hinge", "--hidden", "100,100",
                               "--batch-size", "256", "--epochs", "2", "--seed", "3",
                               "--out", str(out / "ranker.txt")])
            outputs[threads] = {name: read(out / name)
                                for name in ("skill.emb", "dssm.txt", "ranker.txt")}
        for name, data in outputs[1].items():
            assert data == outputs[2][name], name


class TestServeStartup:
    def test_serving_line_reaches_a_pipe_once_the_socket_listens(self, tmp_path):
        """A supervisor reading serve's stdout through a pipe, with Python's
        block buffering left on, sees the line, and the port then answers."""
        profiles = tmp_path / "profiles.jsonl"
        synth_corpus(SynthConfig(members=50, sessions=1), seed=1)[0].save(str(profiles))
        model = ranker_file(tmp_path)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "talentrank.cli", "serve", "--model", str(model),
             "--profiles", str(profiles), "--port", "0"],
            stdout=subprocess.PIPE, env=dict(env, PYTHONPATH=SRC), text=True)
        try:
            assert select.select([proc.stdout], [], [], 60)[0], "no line within 60 s"
            line = proc.stdout.readline()
            assert line.startswith("serving on http://127.0.0.1:")
            conn = http.client.HTTPConnection("127.0.0.1", int(line.rsplit(":", 1)[1]), timeout=10)
            conn.request("GET", "/health")
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=30)


def minor_faults(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[7])  # field 10, minflt


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not os.path.exists("/proc/self/stat"),
                    reason="pins glibc's malloc; faults are read from /proc")
class TestServeAllocator:
    def test_steady_state_requests_take_no_page_faults(self, tmp_path):
        """Each request's ~800 KB second-pass temporaries (1000 candidates x
        100 hidden units) come from the heap, not from a fresh mmap."""
        profiles = tmp_path / "profiles.jsonl"
        synth_corpus(SynthConfig(members=3000, sessions=1), seed=1)[0].save(str(profiles))
        model = tmp_path / "model.txt"
        schema = FeatureSchema()
        net = init_mlp(schema.width, (100, 100, 100), "relu", 0)
        RankingModel(schema, net, "pointwise", 0, 0).save(str(model))
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1", OPENBLAS_NUM_THREADS="1")
        proc = subprocess.Popen(
            [sys.executable, "-c", "from talentrank.cli import main; main()", "serve",
             "--model", str(model), "--profiles", str(profiles), "--port", "0"],
            stdout=subprocess.PIPE, env=env, text=True)
        try:
            port = int(proc.stdout.readline().rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            body = json.dumps({"keywords": "c0w1 c1w2", "k": 10})  # every member qualifies

            def search():
                conn.request("POST", "/search", body, {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200 and json.loads(response.read())["results"]

            for _ in range(40):
                search()
            before = minor_faults(proc.pid)
            for _ in range(200):
                search()
            per_request = (minor_faults(proc.pid) - before) / 200
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=30)
        assert per_request < 10, per_request
