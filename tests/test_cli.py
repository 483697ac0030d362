import pytest

from mvdr.cli import main, parse_config
from mvdr.corpus import (
    Document,
    Query,
    TrainingTriple,
    load_generated_queries,
    write_corpus,
    write_qrels,
    write_queries,
    write_triples,
)
from mvdr.corpus import Qrels


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
        assert parse_config(path) == {"corpus": "data/corpus.tsv", "seed": "7", "mode": "de"}

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

    def test_selftest_command(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all 6 suites passed" in out

    def test_index_dce_requires_views(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        ckpt = tmp_path / "model.ckpt"
        assert main([
            "train", "--corpus", str(paths["corpus"]), "--triples", str(paths["triples"]),
            "--out", str(ckpt), "--mode", "de", "--batch-size", "4", "--negatives", "2",
            "--finetune-epochs", "1", *ENCODER_FLAGS,
        ]) == 0
        code = main([
            "index", "--checkpoint", str(ckpt), "--corpus", str(paths["corpus"]),
            "--mode", "dce", "--out", str(tmp_path / "index.mvix"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

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

    def test_missing_required_key(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"corpus = {paths['corpus']}\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert "missing required key" in capsys.readouterr().err


class TestStagedMatchesPipeline:
    def test_same_bytes_for_one_seed(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "pipeline"
        assert main(["pipeline", "--config", str(pipeline_config(tmp_path, paths, out_dir))]) == 0

        staged = tmp_path / "staged"
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
            "--mode", "dce", "--batch-size", "4", "--pretrain-batch-size", "4",
            "--negatives", "2", "--lr", "0.02",
            "--pretrain-epochs", "1", "--finetune-epochs", "2", "--seed", "11",
            *ENCODER_FLAGS,
        ]) == 0
        assert main([
            "index", "--checkpoint", str(ckpt), "--corpus", str(paths["corpus"]),
            "--mode", "dce", "--gen-queries", str(gen), "--out", str(index),
        ]) == 0
        assert main([
            "search", "--checkpoint", str(ckpt), "--index", str(index),
            "--queries", str(paths["queries"]), "--out", str(run), "--topk", "4",
        ]) == 0
        assert main([
            "eval", "--run", str(run), "--qrels", str(paths["qrels"]),
            "--out", str(staged / "metrics.csv"),
        ]) == 0
        for name in (
            "gen_queries.jsonl", "model.ckpt", "loss_trace.csv", "index.mvix", "run.trec",
            "metrics.csv",
        ):
            assert (staged / name).read_bytes() == (out_dir / name).read_bytes(), name


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

        reports = tmp_path / "reports"
        assert main([
            "analyze", "--gen-queries", str(out_dir / "gen_queries.jsonl"),
            "--queries", str(paths["queries"]), "--qrels", str(paths["qrels"]),
            "--checkpoint", str(out_dir / "model.ckpt"), "--corpus", str(paths["corpus"]),
            "--topk", "4", "--out-dir", str(reports),
        ]) == 0
        assert (reports / "sweep.csv").read_bytes() == (out_dir / "sweep.csv").read_bytes()
        assert (reports / "quality.csv").read_bytes() == (out_dir / "quality.csv").read_bytes()

    def test_single_view_mode_leaves_retrieval_empty(self, tmp_path, capsys):
        paths = _write_world(tmp_path)
        out_dir = tmp_path / "out"
        cfg = pipeline_config(tmp_path, paths, out_dir, extra="analyze = true\n")
        assert main(["pipeline", "--config", str(cfg), "--mode", "de"]) == 0
        rows = _sweep_rows(out_dir / "sweep.csv")
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(row[2] == "" for row in rows), rows
