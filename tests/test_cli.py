import argparse
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvdr import cli
from mvdr.cli import _prefix_metrics, build_parser, main, parse_config
from mvdr.corpus import (
    Document,
    GeneratedQuerySet,
    Query,
    TrainingTriple,
    load_generated_queries,
    write_corpus,
    write_generated_queries,
    write_qrels,
    write_queries,
    write_triples,
)
from mvdr.corpus import Qrels, load_corpus, load_queries
from mvdr.encoder import EncoderConfig, encode_queries, init_params, save_params
from mvdr.evaluation import RunEntry, compute_metric, run_from_ranked_lists, write_run
from mvdr.index import FlatIndex, build_index, save_index, search, search_corpus
from mvdr.selftest import random_index


class TestConfigFile:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "corpus = data/corpus.tsv\n"
            "seed=7\n"
            "mode =  de \n"
        )
        assert parse_config(path) == {"corpus": "data/corpus.tsv", "seed": 7, "mode": "de"}

    def test_unknown_key_named_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("corpus = x\nbogus = 1\n")
        with pytest.raises(ValueError, match=r"run\.cfg:2: unknown config key 'bogus'"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ValueError, match="duplicate config key"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config(path)


def _write_world(tmp_path):
    """A 6-doc corpus with queries, judgments, and triples on disk."""
    docs = [
        Document("d1", "solar panels convert sunlight into electricity"),
        Document("d2", "the court ruled on the appeal last spring"),
        Document("d3", "rivers carry sediment toward the delta"),
        Document("d4", "a vaccine primes the immune system"),
        Document("d5", "the bridge spans a tidal strait"),
        Document("d6", "markets closed higher after the report"),
    ]
    queries = [
        Query("q1", "solar electricity"),
        Query("q2", "court appeal"),
        Query("q3", "river delta sediment"),
    ]
    qrels = Qrels({("q1", "d1"): 1, ("q2", "d2"): 1, ("q3", "d3"): 1})
    by_id = {d.doc_id: d for d in docs}
    triples = [
        TrainingTriple(queries[0], by_id["d1"], (by_id["d2"], by_id["d3"])),
        TrainingTriple(queries[1], by_id["d2"], (by_id["d4"], by_id["d5"])),
        TrainingTriple(queries[2], by_id["d3"], (by_id["d6"], by_id["d1"])),
        TrainingTriple(Query("q4", "immune vaccine"), by_id["d4"], (by_id["d5"], by_id["d6"])),
    ]
    paths = {
        "corpus": tmp_path / "corpus.tsv",
        "queries": tmp_path / "queries.tsv",
        "qrels": tmp_path / "qrels.txt",
        "triples": tmp_path / "triples.jsonl",
    }
    write_corpus(docs, paths["corpus"])
    write_queries(queries, paths["queries"])
    write_qrels(qrels, paths["qrels"])
    write_triples(triples, paths["triples"])
    return paths


ENCODER_FLAGS = [
    "--embed-dim", "8",
    "--hash-buckets", "512",
    "--ngram-orders", "1",
    "--max-query-tokens", "8",
    "--max-doc-tokens", "12",
]


class TestStagedCommands:
    def test_full_stage_sequence(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        gen = tmp_path / "gen.jsonl"
        ckpt = tmp_path / "model.ckpt"
        index = tmp_path / "index.mvix"
        run = tmp_path / "run.trec"
        metrics = tmp_path / "metrics.csv"

        assert main([
            "gen-queries", "--corpus", str(paths["corpus"]), "--out", str(gen),
            "--views", "3", "--seed", "5",
        ]) == 0
        sets = load_generated_queries(gen)
        assert len(sets) == 6 and all(len(s.queries) == 3 for s in sets)

        assert main([
            "train", "--corpus", str(paths["corpus"]), "--triples", str(paths["triples"]),
            "--gen-queries", str(gen), "--out", str(ckpt),
            "--mode", "dce", "--batch-size", "4", "--pretrain-batch-size", "4",
            "--negatives", "2", "--lr", "0.02",
            "--pretrain-epochs", "1", "--finetune-epochs", "2", "--seed", "5",
            *ENCODER_FLAGS,
        ]) == 0
        assert ckpt.exists()

        assert main([
            "index", "--checkpoint", str(ckpt), "--corpus", str(paths["corpus"]),
            "--mode", "dce", "--gen-queries", str(gen), "--out", str(index),
        ]) == 0
        assert index.exists()

        assert main([
            "search", "--checkpoint", str(ckpt), "--index", str(index),
            "--queries", str(paths["queries"]), "--out", str(run), "--topk", "4",
        ]) == 0
        assert len(run.read_text().splitlines()) == 12

        assert main([
            "eval", "--run", str(run), "--qrels", str(paths["qrels"]),
            "--metrics", "mrr@10,ndcg@10", "--out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "mrr@10" in out and "ndcg@10" in out
        assert metrics.read_text().startswith("metric,value\n")

    def test_search_writes_the_run_of_search_corpus(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        params = init_params(EncoderConfig(embed_dim=8, hash_buckets=512), seed=3)
        ckpt, index_path = tmp_path / "model.ckpt", tmp_path / "index.mvix"
        save_params(params, ckpt)
        index = build_index(params, load_corpus(paths["corpus"]), mode="de")
        save_index(index, index_path)
        got, want = tmp_path / "got.trec", tmp_path / "want.trec"
        assert main([
            "search", "--checkpoint", str(ckpt), "--index", str(index_path),
            "--queries", str(paths["queries"]), "--out", str(got), "--topk", "4", "--tag", "t",
        ]) == 0
        ranked = search_corpus(params, index, load_queries(paths["queries"]), 4)
        write_run(run_from_ranked_lists(ranked, tag="t"), want)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_text().splitlines()) == 12

    def test_verbose_train_logs_each_epoch(self, tmp_path, caplog):
        paths = _write_world(tmp_path)
        args = [
            "train", "--corpus", str(paths["corpus"]), "--triples", str(paths["triples"]),
            "--mode", "de", "--batch-size", "2", "--negatives", "2", "--finetune-epochs", "3",
            *ENCODER_FLAGS,
        ]
        quiet, verbose = tmp_path / "quiet.ckpt", tmp_path / "verbose.ckpt"
        loss_trace = tmp_path / "loss_trace.csv"
        assert main([*args, "--out", str(quiet)]) == 0
        with caplog.at_level(logging.INFO, logger="mvdr.trainer"):
            assert main(["-v", *args, "--out", str(verbose), "--loss-trace", str(loss_trace)]) == 0
        lines = [
            r.getMessage() for r in caplog.records
            if r.name == "mvdr.trainer" and " epoch " in r.getMessage()
        ]
        assert [line.split(" loss ")[0] for line in lines] == [
            f"finetune epoch {e}/3" for e in (1, 2, 3)
        ]
        # each line reports the mean of its epoch's step losses, not the last batch's
        losses = [float(row.split(",")[2]) for row in loss_trace.read_text().splitlines()[1:]]
        per_epoch = len(losses) // 3
        assert per_epoch > 1 and len(losses) == 3 * per_epoch
        means = [sum(losses[e * per_epoch : (e + 1) * per_epoch]) / per_epoch for e in range(3)]
        assert [line.split(" loss ")[1] for line in lines] == [f"{m:.4f}" for m in means]
        assert verbose.read_bytes() == quiet.read_bytes()

    def test_train_rejects_orders_the_checkpoint_cannot_store(self, tmp_path, capsys, monkeypatch):
        # the header stores each n-gram order as one byte
        paths = _write_world(tmp_path)
        ckpt = tmp_path / "model.ckpt"

        def no_training(*args, **kwargs):
            raise AssertionError("training started with an encoder the checkpoint cannot store")

        monkeypatch.setattr(cli, "train", no_training)
        flags = [*ENCODER_FLAGS]
        flags[flags.index("--ngram-orders") + 1] = "1,300"
        code = main([
            "train", "--corpus", str(paths["corpus"]), "--triples", str(paths["triples"]),
            "--out", str(ckpt), "--mode", "de", "--batch-size", "2", "--negatives", "2",
            *flags,
        ])
        assert code == 1
        assert "error: ngram_orders" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_analyze_checks_metric_before_building_index(self, tmp_path, capsys, monkeypatch):
        paths = _write_world(tmp_path)
        gen, ckpt = tmp_path / "gen.jsonl", tmp_path / "model.ckpt"
        assert main([
            "gen-queries", "--corpus", str(paths["corpus"]), "--out", str(gen), "--views", "2",
        ]) == 0
        save_params(init_params(EncoderConfig(embed_dim=8, hash_buckets=512), seed=0), ckpt)

        def no_index(*args, **kwargs):
            raise AssertionError("index built before the metric was checked")

        monkeypatch.setattr(cli, "build_index", no_index)
        out_dir = tmp_path / "analysis"
        with pytest.raises(SystemExit) as exited:
            main([
                "analyze", "--gen-queries", str(gen), "--queries", str(paths["queries"]),
                "--qrels", str(paths["qrels"]), "--checkpoint", str(ckpt),
                "--corpus", str(paths["corpus"]), "--metrics", "mrr@ten", "--out-dir", str(out_dir),
            ])
        assert exited.value.code == 2
        assert "error: argument --metrics: bad metric spec 'mrr@ten'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_analyze_rejects_queries_for_documents_outside_the_corpus(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        gen, ckpt = tmp_path / "gen.jsonl", tmp_path / "model.ckpt"
        assert main([
            "gen-queries", "--corpus", str(paths["corpus"]), "--out", str(gen), "--views", "2",
        ]) == 0
        n_lines = len(gen.read_text().splitlines())
        with gen.open("a") as handle:
            handle.write('{"doc_id": "ghost", "queries": ["haunted house", "old ghost"]}\n')
        save_params(init_params(EncoderConfig(embed_dim=8, hash_buckets=512), seed=0), ckpt)
        out_dir = tmp_path / "analysis"
        code = main([
            "analyze", "--gen-queries", str(gen), "--queries", str(paths["queries"]),
            "--qrels", str(paths["qrels"]), "--checkpoint", str(ckpt),
            "--corpus", str(paths["corpus"]), "--out-dir", str(out_dir),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {gen}:{n_lines + 1}: unknown doc_id 'ghost'" in err
        assert not out_dir.exists()

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all 7 suites passed" in out

    def test_index_dce_requires_views(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        assert main([
            "train", "--corpus", str(paths["corpus"]), "--triples", str(paths["triples"]),
            "--out", str(ckpt), "--mode", "de", "--batch-size", "4", "--negatives", "2",
            "--finetune-epochs", "1", *ENCODER_FLAGS,
        ]) == 0
        capsys.readouterr()
        # the flags are checked before the checkpoint is read, even a missing one
        for checkpoint, mode_flags in ((ckpt, ["--mode", "dce"]), (tmp_path / "nope.ckpt", [])):
            code = main([
                "index", "--checkpoint", str(checkpoint), "--corpus", str(paths["corpus"]),
                *mode_flags, "--out", str(tmp_path / "index.mvix"),
            ])
            assert code == 1
            assert "error: --mode dce requires --gen-queries" in capsys.readouterr().err
        assert not (tmp_path / "index.mvix").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--topk", "0"], "search_topk must be >= 1, got 0"),
            (["search", "--tag", "a b"], "tag 'a b' is empty or contains whitespace"),
            (["train", "--batch-size", "1"], "batch sizes must be >= 2"),
            (["gen-queries", "--views", "0"], "k_views must be >= 1, got 0"),
            # the flag's parser checks metric specs, so argparse reports them
            (["eval", "--metrics", "mrr@ten"], "argument --metrics: bad metric spec 'mrr@ten'"),
            (
                ["eval", "--metrics", "mrr@10,ndcg@10, MRR@10"],
                "argument --metrics: metric spec 'MRR@10' repeats 'mrr@10'",
            ),
            (["eval", "--rel-threshold", "0"], "rel_threshold must be >= 1, got 0"),
            # a non-UTF-8 argument byte reaches Python as a lone surrogate
            (["search", "--tag", os.fsdecode(b"t\xff")], "tag 't\\udcff' cannot be encoded as UTF-8"),
        ],
        ids=[
            "search-topk", "search-tag", "train-batch-size", "gen-queries-views", "eval-metrics",
            "eval-repeated-metric", "eval-rel-threshold", "search-unwritable-tag",
        ],
    )
    def test_bad_settings_fail_before_any_input_is_read(self, tmp_path, capsys, argv, message):
        missing = str(tmp_path / "missing")
        inputs = {
            "search": ["--checkpoint", missing, "--index", missing, "--queries", missing],
            "train": ["--corpus", missing, "--triples", missing],
            "gen-queries": ["--corpus", missing],
            "eval": ["--run", missing, "--qrels", missing],
        }[argv[0]]
        out = tmp_path / "out"
        try:
            code = main([*argv, *inputs, "--out", str(out)])
        except SystemExit as exited:  # a usage error
            code = exited.code
        assert code == (2 if message.startswith("argument ") else 1)
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "No such file" not in err
        assert not out.exists()

    def test_analyze_rejects_empty_generated_queries(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        gen = tmp_path / "gen.jsonl"
        gen.write_text("")
        out_dir = tmp_path / "analysis"
        code = main([
            "analyze", "--gen-queries", str(gen), "--queries", str(paths["queries"]),
            "--qrels", str(paths["qrels"]), "--out-dir", str(out_dir),
        ])
        assert code == 1
        assert "error: no generated queries to analyze" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_analyze_checkpoint_requires_corpus(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        missing = str(tmp_path / "missing")
        out_dir = tmp_path / "analysis"
        code = main([
            "analyze", "--gen-queries", missing, "--queries", str(paths["queries"]),
            "--qrels", str(paths["qrels"]), "--out-dir", str(out_dir), "--checkpoint", missing,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: --checkpoint requires --corpus for the view sweep" in err
        assert not out_dir.exists()

    def test_missing_file_reports_error(self, tmp_path, capsys):
        code = main([
            "gen-queries", "--corpus", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "g"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def pipeline_config(tmp_path, paths, out_dir, extra="", name="pipeline.cfg"):
    cfg = tmp_path / name
    cfg.write_text(
        f"corpus = {paths['corpus']}\n"
        f"queries = {paths['queries']}\n"
        f"qrels = {paths['qrels']}\n"
        f"triples = {paths['triples']}\n"
        f"out_dir = {out_dir}\n"
        "mode = dce\n"
        "seed = 11\n"
        "views = 3\n"
        "embed_dim = 8\n"
        "hash_buckets = 512\n"
        "ngram_orders = 1\n"
        "max_query_tokens = 8\n"
        "max_doc_tokens = 12\n"
        "batch_size = 4\n"
        "pretrain_batch_size = 4\n"
        "negatives_per_positive = 2\n"
        "learning_rate = 0.02\n"
        "epochs_pretrain = 1\n"
        "epochs_finetune = 2\n"
        "search_topk = 4\n"
        + extra
    )
    return cfg


class TestPipeline:
    def test_produces_all_outputs(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra="analyze = true\n")
        assert main(["pipeline", "--config", str(cfg)]) == 0
        for name in (
            "gen_queries.jsonl",
            "model.ckpt",
            "loss_trace.csv",
            "index.mvix",
            "run.trec",
            "metrics.csv",
            "quality.csv",
            "diversity.csv",
            "sweep.csv",
        ):
            assert (out_dir / name).exists(), name
        assert "pipeline outputs" in capsys.readouterr().out

    def test_reruns_are_byte_identical_across_threads(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        cfg_a = pipeline_config(tmp_path, paths, tmp_path / "a", name="a.cfg")
        cfg_b = pipeline_config(tmp_path, paths, tmp_path / "b", name="b.cfg")
        assert main(["pipeline", "--config", str(cfg_a), "--threads", "1"]) == 0
        assert main(["pipeline", "--config", str(cfg_b), "--threads", "4"]) == 0
        for name in ("gen_queries.jsonl", "model.ckpt", "index.mvix", "run.trec", "metrics.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between thread counts"

    @pytest.mark.parametrize(
        "old, new, where",
        [
            ("search_topk = 4", "search_topk = 0", None),
            ("ngram_orders = 1", "ngram_orders = 1,300", None),
            ("search_topk = 4", "search_topk = 4\nrun_tag = a b", None),
            ("views = 3", "views = 0", None),
            ("learning_rate = 0.02", "learning_rate = inf", None),
            # a value that its key's parser rejects is named by its line
            ("search_topk = 4", "search_topk = 4\nanalyze = maybe",
             ":21: config key 'analyze': 'maybe' is not a boolean"),
            ("search_topk = 4", "search_topk = 4\nmetrics = ,",
             ":21: config key 'metrics': no metrics requested"),
            ("search_topk = 4", "search_topk = 4\nmetrics = mrr@ten",
             ":21: config key 'metrics': bad metric spec 'mrr@ten': 'ten' is not an integer"),
            ("search_topk = 4", "search_topk = 4\nmetrics = mrr@10,ndcg@10,MRR@10",
             ":21: config key 'metrics': metric spec 'MRR@10' repeats 'mrr@10'"),
        ],
        ids=[
            "topk", "ngram-orders", "run-tag", "views", "learning-rate-inf",
            "analyze-not-boolean", "no-metrics", "metric", "repeated-metric",
        ],
    )
    def test_bad_settings_fail_before_any_output(self, tmp_path, capsys, old, new, where):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        if where is not None:
            assert err == f"error: {cfg}{where}\n"
        assert not out_dir.exists()

    def test_given_views_give_the_generating_runs_outputs(self, tmp_path, capsys):
        # a gen_queries key loads the views instead of generating them, and
        # writes no copy of them
        paths = _write_world(tmp_path)
        generating = tmp_path / "generating"
        assert main(["pipeline", "--config", str(pipeline_config(tmp_path, paths, generating))]) == 0
        given = tmp_path / "given"
        extra = f"gen_queries = {generating / 'gen_queries.jsonl'}\n"
        cfg = pipeline_config(tmp_path, paths, given, extra=extra, name="given.cfg")
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert not (given / "gen_queries.jsonl").exists()
        for name in ("model.ckpt", "loss_trace.csv", "index.mvix", "run.trec", "metrics.csv"):
            assert (given / name).read_bytes() == (generating / name).read_bytes(), name

    def test_missing_input_leaves_no_output_dir(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        paths["queries"].unlink()
        cfg = pipeline_config(tmp_path, paths, out_dir)
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["false", "true"])
    def test_tie_params_key_fails_before_any_input_is_read(self, tmp_path, capsys, value):
        # queries and documents share one tower, so it is not a setting
        paths = _write_world(tmp_path)
        paths["corpus"].unlink()
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra=f"tie_params = {value}\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:21: unknown config key 'tie_params'" in err
        assert "No such file" not in err
        assert not out_dir.exists()

    def test_corpus_format_key_fails_before_any_input_is_read(self, tmp_path, capsys):
        # the corpus reader tells JSON lines from TSV lines itself
        paths = _write_world(tmp_path)
        paths["corpus"].unlink()
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra="corpus_format = jsonl\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:21: unknown config key 'corpus_format'" in err
        assert "No such file" not in err
        assert not out_dir.exists()

    def test_warmup_fraction_key_fails_before_any_input_is_read(self, tmp_path, capsys):
        # every stage warms up over a fixed 10 % of its steps
        paths = _write_world(tmp_path)
        paths["corpus"].unlink()
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra="warmup_fraction = 0.2\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:21: unknown config key 'warmup_fraction'" in err
        assert "No such file" not in err
        assert not out_dir.exists()

    def test_missing_required_key(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"corpus = {paths['corpus']}\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert "missing required key" in capsys.readouterr().err

    def test_a_bad_value_is_reported_before_a_missing_key(self, tmp_path, capsys):
        # main checks every value before the pipeline looks for its inputs
        paths = _write_world(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"corpus = {paths['corpus']}\nviews = 0\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert "error: k_views must be >= 1, got 0" in capsys.readouterr().err


def test_a_settings_error_stops_every_command_before_it_runs(tmp_path, monkeypatch, capsys):
    # main checks the settings of every subcommand, so no command body runs
    # when they fail; an empty file stands for every required path
    empty = tmp_path / "empty"
    empty.write_text("")

    def bad_settings(flags, config=None):
        raise ValueError("bad setting")

    entered = []

    def recorded(name, func):
        def wrapper(*args):
            entered.append(name)
            return func(*args)
        return wrapper

    monkeypatch.setattr(cli, "_settings", bad_settings)
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subparsers.choices.items():
        name = sub.get_default("func").__name__
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        argv = [command]
        for action in sub._actions:
            if action.required:
                argv += [action.option_strings[0], str(empty)]
        assert main(argv) == 1, command
        assert "error: bad setting" in capsys.readouterr().err, command
    assert len(subparsers.choices) == 8
    assert entered == []


def test_every_subcommand_flag_defaults_to_none():
    # defaults live in cli._DEFAULTS and the config dataclasses only; every
    # config key but analyze has a flag
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flagged = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert action.default is None, (command, action.dest, action.default)
                flagged.add(action.dest)
    assert flagged & set(cli._CONFIG_KEYS) == set(cli._CONFIG_KEYS) - {"analyze"}


def test_untie_flag_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = ["train", "--corpus", missing, "--triples", missing, "--out", missing, "--untie"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mvdr ") and "mvdr: error: unrecognized arguments: --untie" in err


def test_corpus_format_flag_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = ["gen-queries", "--corpus", missing, "--out", missing, "--corpus-format", "jsonl"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mvdr ")
    assert "mvdr: error: unrecognized arguments: --corpus-format jsonl" in err


def test_warmup_flag_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = ["train", "--corpus", missing, "--triples", missing, "--out", missing, "--warmup", "0.2"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mvdr ")
    assert "mvdr: error: unrecognized arguments: --warmup 0.2" in err


def test_every_integer_setting_but_seed_rejects_minus_one():
    # counts, sizes and thresholds are range-checked before any input is read
    flags = build_parser().parse_args(["pipeline", "--config", "run.cfg"])
    cli._settings(flags, {})
    for key, parse in cli._CONFIG_KEYS.items():
        if parse is int and key != "seed":
            with pytest.raises(ValueError):
                cli._settings(flags, {key: -1})


def test_every_float_setting_rejects_inf_and_nan():
    # a non-finite learning rate would train a checkpoint of non-finite weights
    flags = build_parser().parse_args(["pipeline", "--config", "run.cfg"])
    for key, parse in cli._CONFIG_KEYS.items():
        if parse is float:
            for text in ("inf", "nan"):
                with pytest.raises(ValueError, match=key):
                    cli._settings(flags, {key: parse(text)})


@pytest.mark.parametrize(
    "key, flag, value, message",
    [
        ("ngram_orders", "--ngram-orders", "1,x", "bad n-gram orders '1,x': expected e.g. '1,2'"),
        ("embed_dim", "--embed-dim", "x", "invalid int value: 'x'"),
        ("learning_rate", "--lr", "x", "invalid float value: 'x'"),
    ],
)
def test_a_bad_flag_value_is_reported_by_its_config_key_parser(
    tmp_path, capsys, key, flag, value, message
):
    argv = ["train", "--corpus", "c", "--triples", "t", "--out", "o", flag, value]
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert f"error: argument {flag}: {message}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg}:2: config key {key!r}: ")):
        parse_config(cfg)


def test_serving_commands_load_neither_openssl_nor_numpy_random(tmp_path):
    # OpenSSL's libcrypto (through hashlib) and numpy.random each add
    # megabytes of RSS; only the commands that draw random streams need them
    paths = _write_world(tmp_path)
    docs = load_corpus(paths["corpus"])
    gen, ckpt = tmp_path / "gen.jsonl", tmp_path / "model.ckpt"
    index, run = tmp_path / "index.mvix", tmp_path / "run.trec"
    write_generated_queries(
        [GeneratedQuerySet(d.doc_id, (d.text.split()[0], d.text.split()[-1])) for d in docs], gen
    )
    save_params(init_params(EncoderConfig(embed_dim=8, hash_buckets=512), seed=0), ckpt)
    commands = [
        ["index", "--checkpoint", str(ckpt), "--corpus", str(paths["corpus"]),
         "--mode", "dce", "--gen-queries", str(gen), "--out", str(index)],
        ["search", "--checkpoint", str(ckpt), "--index", str(index),
         "--queries", str(paths["queries"]), "--out", str(run), "--topk", "4"],
        ["eval", "--run", str(run), "--qrels", str(paths["qrels"]),
         "--out", str(tmp_path / "metrics.csv")],
        ["analyze", "--gen-queries", str(gen), "--queries", str(paths["queries"]),
         "--qrels", str(paths["qrels"]), "--checkpoint", str(ckpt),
         "--corpus", str(paths["corpus"]), "--out-dir", str(tmp_path / "analysis")],
    ]
    code = (
        "import sys\n"
        "preloaded = '_hashlib' in sys.modules\n"
        "from mvdr.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(preloaded, codes, '_hashlib' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    last = result.stdout.splitlines()[-1]
    if last.startswith("True "):
        pytest.skip("the interpreter loads _hashlib at start-up")
    assert last == "False [0, 0, 0, 0] False False"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang: str) -> list[str]:
    """The bodies of README's fenced code blocks of language ``lang``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


class TestReadmeExamples:
    def test_every_command_parses(self):
        # a renamed flag or subcommand fails here rather than leaving the README stale
        commands = [
            shlex.split(line)
            for block in _readme_blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("mvdr ")
        ]
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert {argv[1] for argv in commands} == set(subparsers.choices)

    def test_settings_table_names_each_keys_flag_and_commands(self):
        # one row per config key: its flag, and every command that takes that flag
        text = README.read_text(encoding="utf-8")
        table = text.split("| config key | flag | commands |\n", 1)[1].split("\n\n", 1)[0]
        lines = table.splitlines()[1:]  # below the header's | --- | row
        rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines]
        assert sorted(row[0] for row in rows) == sorted(cli._CONFIG_KEYS)
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for key, flag, commands in rows:
            flags = {
                command: action.option_strings
                for command, sub in subparsers.choices.items()
                for action in sub._actions
                if action.dest == key
            }
            listed = [] if commands == "none" else [c.strip(" `") for c in commands.split(",")]
            assert flags == {command: [flag] for command in listed}, key

    def test_config_example_passes_every_settings_check(self, tmp_path):
        (block,) = _readme_blocks("ini")
        path = tmp_path / "run.cfg"
        path.write_text(block, encoding="utf-8")
        config = parse_config(path)
        assert config
        cli._settings(build_parser().parse_args(["pipeline", "--config", str(path)]), config)


STAGED_OUTPUTS = (
    "gen_queries.jsonl", "model.ckpt", "loss_trace.csv", "index.mvix", "run.trec", "metrics.csv",
)


def _run_staged(paths, staged, mode):
    """Runs every staged command into the new directory ``staged`` with the
    settings of :func:`pipeline_config`."""
    staged.mkdir()
    gen = staged / "gen_queries.jsonl"
    ckpt = staged / "model.ckpt"
    index = staged / "index.mvix"
    run = staged / "run.trec"
    assert main([
        "gen-queries", "--corpus", str(paths["corpus"]), "--out", str(gen),
        "--views", "3", "--max-query-tokens", "8", "--seed", "11",
    ]) == 0
    assert main([
        "train", "--corpus", str(paths["corpus"]), "--triples", str(paths["triples"]),
        "--gen-queries", str(gen), "--out", str(ckpt),
        "--loss-trace", str(staged / "loss_trace.csv"),
        "--mode", mode, "--batch-size", "4", "--pretrain-batch-size", "4",
        "--negatives", "2", "--lr", "0.02",
        "--pretrain-epochs", "1", "--finetune-epochs", "2", "--seed", "11",
        *ENCODER_FLAGS,
    ]) == 0
    assert main([
        "index", "--checkpoint", str(ckpt), "--corpus", str(paths["corpus"]),
        "--mode", mode, "--gen-queries", str(gen), "--out", str(index),
    ]) == 0
    assert main([
        "search", "--checkpoint", str(ckpt), "--index", str(index),
        "--queries", str(paths["queries"]), "--out", str(run), "--topk", "4",
    ]) == 0
    assert main([
        "eval", "--run", str(run), "--qrels", str(paths["qrels"]),
        "--out", str(staged / "metrics.csv"),
    ]) == 0


class TestStagedMatchesPipeline:
    @pytest.mark.parametrize("mode", ["dce", "de"])
    def test_same_bytes_for_one_seed(self, tmp_path, capsys, mode):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "pipeline"
        cfg = pipeline_config(tmp_path, paths, out_dir)
        assert main(["pipeline", "--config", str(cfg), "--mode", mode]) == 0

        staged = tmp_path / "staged"
        _run_staged(paths, staged, mode)
        for name in STAGED_OUTPUTS:
            assert (staged / name).read_bytes() == (out_dir / name).read_bytes(), name

    def test_jsonl_corpus_and_queries_give_the_tsv_bytes(self, tmp_path, capsys):
        # the readers tell JSON lines from TSV lines, so no setting names the format
        paths = _write_world(tmp_path)
        _run_staged(paths, tmp_path / "tsv", "dce")
        for name, kind in (("corpus", "doc_id"), ("queries", "query_id")):
            records = []
            for line in paths[name].read_text().splitlines():
                item_id, text = line.split("\t")
                records.append(json.dumps({kind: item_id, "text": text}))
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(f"{record}\n" for record in records))
        _run_staged(paths, tmp_path / "jsonl", "dce")
        for name in STAGED_OUTPUTS:
            want = (tmp_path / "tsv" / name).read_bytes()
            assert (tmp_path / "jsonl" / name).read_bytes() == want, name


def _sweep_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "k,mean_max_rouge_l,retrieval_metric"
    return [line.split(",") for line in lines[1:]]


class TestPipelineSweep:
    def test_retrieval_column_matches_analyze(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra="analyze = true\n")
        assert main(["pipeline", "--config", str(cfg)]) == 0
        rows = _sweep_rows(out_dir / "sweep.csv")
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(row[2] for row in rows), rows
        # every view: the sweep ranks as the run does, so the first metric agrees
        metrics = (out_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "metric,value"
        assert rows[-1][2] == metrics[1].split(",")[1]

        reports = tmp_path / "reports"
        assert main([
            "analyze", "--gen-queries", str(out_dir / "gen_queries.jsonl"),
            "--queries", str(paths["queries"]), "--qrels", str(paths["qrels"]),
            "--checkpoint", str(out_dir / "model.ckpt"), "--corpus", str(paths["corpus"]),
            "--run", str(out_dir / "run.trec"), "--topk", "4", "--out-dir", str(reports),
        ]) == 0
        for name in ("sweep.csv", "quality.csv", "diversity.csv", "levels.csv"):
            assert (reports / name).read_bytes() == (out_dir / name).read_bytes(), name

    def test_first_of_metrics_is_the_analysis_metric(self, tmp_path, capsys):
        # a pipeline's metrics key and analyze --metrics choose it alike
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        extra = "analyze = true\nmetrics = ndcg@10,mrr@10\n"
        assert main(["pipeline", "--config", str(pipeline_config(tmp_path, paths, out_dir, extra))]) == 0
        lines = (out_dir / "metrics.csv").read_text().splitlines()[1:]
        metrics = dict(line.split(",") for line in lines)
        assert metrics["ndcg@10"] != metrics["mrr@10"]  # else the test cannot tell them apart
        assert _sweep_rows(out_dir / "sweep.csv")[-1][2] == metrics["ndcg@10"]

        reports = tmp_path / "reports"
        assert main([
            "analyze", "--gen-queries", str(out_dir / "gen_queries.jsonl"),
            "--queries", str(paths["queries"]), "--qrels", str(paths["qrels"]),
            "--checkpoint", str(out_dir / "model.ckpt"), "--corpus", str(paths["corpus"]),
            "--run", str(out_dir / "run.trec"), "--topk", "4", "--metrics", "ndcg@10",
            "--out-dir", str(reports),
        ]) == 0
        for name in ("sweep.csv", "quality.csv", "diversity.csv", "levels.csv"):
            assert (reports / name).read_bytes() == (out_dir / name).read_bytes(), name

    def test_single_view_mode_leaves_retrieval_empty(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra="analyze = true\n")
        assert main(["pipeline", "--config", str(cfg), "--mode", "de"]) == 0
        rows = _sweep_rows(out_dir / "sweep.csv")
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(row[2] == "" for row in rows), rows

    def test_single_view_mode_without_pretraining_still_analyzes(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        outs = {}
        for analyze in ("true", "false"):
            out_dir = outs[analyze] = tmp_path / f"analyze-{analyze}"
            cfg = pipeline_config(
                tmp_path, paths, out_dir, extra=f"analyze = {analyze}\n", name=f"{analyze}.cfg"
            )
            text = cfg.read_text().replace("mode = dce", "mode = de")
            cfg.write_text(text.replace("epochs_pretrain = 1", "epochs_pretrain = 0"))
            assert main(["pipeline", "--config", str(cfg)]) == 0
        analyzed = outs["true"]
        for name in ("gen_queries.jsonl", "quality.csv", "diversity.csv", "levels.csv"):
            assert (analyzed / name).exists(), name
        rows = _sweep_rows(analyzed / "sweep.csv")
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(row[2] == "" for row in rows), rows
        assert not (outs["false"] / "gen_queries.jsonl").exists()
        for name in ("model.ckpt", "run.trec"):
            assert (analyzed / name).read_bytes() == (outs["false"] / name).read_bytes(), name


class TestPrefixMetrics:
    def test_each_prefix_equals_search_over_truncated_index(self, rng, monkeypatch):
        cfg = EncoderConfig(embed_dim=8, hash_buckets=64, ngram_orders=(1, 2), max_query_tokens=8)
        params = init_params(cfg, seed=3)
        index = random_index(rng, n_docs=40, k_views=4, dim=8)
        texts = ["solar panels", "court appeal", "river delta sediment", "vaccine", "a b c", "panels"]
        queries = [Query(f"q{i}", text) for i, text in enumerate(texts)]
        qrels = Qrels({
            (q.query_id, index.doc_ids[int(d)]): int(rng.integers(0, 3))
            for q in queries for d in rng.choice(index.n_docs, size=6, replace=False)
        })
        settings = {"search_topk": 12, "rel_threshold": 1, "run_tag": "t"}
        embs = encode_queries(params, texts)
        views = index.matrix.reshape(index.n_docs, index.k_views, index.embed_dim)

        def no_entry(*args, **kwargs):
            raise AssertionError("_prefix_metrics built a RunEntry")

        for metric in ("mrr@10", "recall@5", "recall@12", "ndcg@10"):
            with monkeypatch.context() as patch:
                patch.setattr(RunEntry, "__init__", no_entry)
                got = _prefix_metrics(params, index, queries, qrels, settings, metric)
            want = []
            for k in range(1, index.k_views + 1):
                prefix = FlatIndex(views[:, :k].reshape(-1, index.embed_dim), index.doc_ids, k)
                ranked = [search(prefix, emb, 12, query_id=q.query_id) for q, emb in zip(queries, embs)]
                want.append(compute_metric(metric, run_from_ranked_lists(ranked, tag="t"), qrels).aggregate)
            assert got == want, metric
        assert len(set(got)) > 1
