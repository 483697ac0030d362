"""Command-line interface.

Subcommands cover each pipeline stage (gen-queries, train, index, search,
eval, analyze), an end-to-end ``pipeline`` driven by a key=value config
file, and ``selftest`` for the built-in reference checks. Each stage is one
function that its subcommand and ``pipeline`` both call, so for one seed
the staged commands and ``pipeline`` write the same bytes, regardless of
``--threads``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__, analysis, evaluation
from .corpus import Document, GeneratedQuerySet, Qrels, Query, TrainingTriple
from .corpus import load_corpus, load_generated_queries, load_qrels, load_queries, load_triples
from .corpus import write_generated_queries
from .encoder import EncoderConfig, EncoderParams, encode_queries
from .encoder import init_params, load_params, save_params
from .hashing import derive_seed
from .index import FlatIndex, batch_search, build_index, first_views, load_index, save_index
from .querygen import SamplingConfig, fit_qg, generate_corpus
from .selftest import run_selftest
from .trainer import TraceEntry, TrainConfig, train, write_loss_trace

log = logging.getLogger(__name__)

# Flag and config-key values by setting name; a missing name is unset.
Settings = Mapping[str, object]
QueryEmbeddings = Sequence[tuple[str, np.ndarray]]


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad n-gram orders {text!r}: expected e.g. '1,2'") from None


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


# config key -> parser of its value. Staged-command flags store into the
# same names, so one settings mapping serves both.
_CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(
        ("corpus", "corpus_format", "queries", "qrels", "triples", "gen_queries", "out_dir",
         "mode", "metrics", "run_tag"),
        str,
    ),
    **dict.fromkeys(
        ("seed", "threads", "views", "sampling_top_k", "embed_dim", "hash_buckets",
         "max_query_tokens", "max_doc_tokens", "batch_size", "pretrain_batch_size",
         "negatives_per_positive", "epochs_pretrain", "epochs_finetune", "search_topk",
         "rel_threshold"),
        int,
    ),
    "learning_rate": float,
    "warmup_fraction": float,
    "ngram_orders": _parse_orders,
    "tie_params": _parse_bool,
    "analyze": _parse_bool,
}

# Defaults of the settings that no config dataclass owns; EncoderConfig,
# TrainConfig and SamplingConfig hold the defaults of their own fields.
_DEFAULTS = {
    "corpus_format": "tsv",
    "out_dir": "out",
    "seed": 0,
    "threads": 1,
    "search_topk": 10,
    "metrics": "mrr@10,recall@1000,ndcg@10",
    "rel_threshold": 1,
    "run_tag": evaluation.DEFAULT_RUN_TAG,
    "analyze": False,
}


def parse_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are ignored; unknown or duplicate keys
    are errors.
    """
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{line_no}: duplicate config key {key!r}")
            values[key] = value
    return values


def _settings(flags: argparse.Namespace, config: Mapping[str, str] | None = None) -> dict:
    """Flags over config-file values over the defaults; a None flag is unset."""
    merged: dict[str, object] = dict(_DEFAULTS)
    for key, text in (config or {}).items():
        try:
            merged[key] = _CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    merged.update((key, value) for key, value in vars(flags).items() if value is not None)
    return merged


def _given(settings: Settings, *keys: str, **renamed: str) -> dict[str, object]:
    """Config dataclass keyword arguments from the settings that are set."""
    names = dict(zip(keys, keys)) | renamed
    return {field: settings[key] for field, key in names.items() if key in settings}


def _train_config(settings: Settings) -> TrainConfig:
    return TrainConfig(
        seed=derive_seed(settings["seed"], "train"),
        **_given(
            settings, "mode", "batch_size", "pretrain_batch_size", "negatives_per_positive",
            "learning_rate", "warmup_fraction", "epochs_pretrain", "epochs_finetune",
        ),
    )


# ---------------------------------------------------------------------------
# Stages: one function each, shared by the staged commands and the pipeline


def gen_queries_stage(corpus: Sequence[Document], settings: Settings) -> list[GeneratedQuerySet]:
    """Pseudo-queries for every document, drawn from stage seed ``querygen``."""
    sampling = SamplingConfig(
        **_given(settings, "max_query_tokens", k_views="views", top_k="sampling_top_k")
    )
    model = fit_qg(corpus, seed=settings["seed"])
    seed = derive_seed(settings["seed"], "querygen")
    return generate_corpus(model, corpus, sampling, seed=seed, threads=settings["threads"])


def train_stage(
    settings: Settings, train_cfg: TrainConfig, triples: Sequence[TrainingTriple],
    corpus: Sequence[Document], generated: Sequence[GeneratedQuerySet] | None,
) -> tuple[EncoderParams, list[TraceEntry]]:
    """Initialise an encoder from stage seed ``init`` and train it."""
    encoder_cfg = EncoderConfig(
        **_given(settings, "embed_dim", "hash_buckets", "ngram_orders", "tie_params",
                 "max_query_tokens", "max_doc_tokens")
    )
    params = init_params(encoder_cfg, derive_seed(settings["seed"], "init"))
    trace = train(params, triples, train_cfg, corpus=corpus, generated=generated)
    return params, trace


def _embed_queries(params: EncoderParams, queries: Sequence[Query]) -> QueryEmbeddings:
    embs = encode_queries(params, [q.text for q in queries])
    return [(q.query_id, emb) for q, emb in zip(queries, embs)]


def search_stage(
    index: FlatIndex, query_embs: QueryEmbeddings, settings: Settings
) -> evaluation.Run:
    ranked = batch_search(index, query_embs, settings["search_topk"], threads=settings["threads"])
    return evaluation.run_from_ranked_lists(ranked, tag=settings["run_tag"])


def eval_stage(
    run: evaluation.Run, qrels: Qrels, settings: Settings
) -> list[evaluation.MetricReport]:
    specs = [s.strip() for s in settings["metrics"].split(",") if s.strip()]
    if not specs:
        raise ValueError("no metrics requested")
    rel = settings["rel_threshold"]
    reports = [evaluation.compute_metric(spec, run, qrels, rel_threshold=rel) for spec in specs]
    for report in reports:
        print(f"{report.name}\t{report.aggregate:.6f}\t({report.n_queries} queries)")
    return reports


def analyze_stage(
    out_dir: Path, generated: Sequence[GeneratedQuerySet], queries: Sequence[Query], qrels: Qrels,
    settings: Settings, metric: str, run: evaluation.Run | None = None,
    index: FlatIndex | None = None, query_embs: QueryEmbeddings = (),
) -> None:
    """Write quality.csv, diversity.csv, levels.csv and sweep.csv.

    ``run`` gives the per-level ``metric``. ``index``, built with every
    view, fills the sweep's retrieval column: each k searches the index's
    first k views with ``query_embs``.
    """
    if not generated:
        raise ValueError("no generated queries to analyze")
    rel_threshold = settings["rel_threshold"]
    query_text = {q.query_id: q.text for q in queries}
    gold_by_doc: dict[str, list[str]] = {}
    for query_id in qrels.query_ids():
        if query_id not in query_text:
            continue
        for doc_id in qrels.relevant_docs(query_id, threshold=rel_threshold):
            gold_by_doc.setdefault(doc_id, []).append(query_text[query_id])

    out_dir.mkdir(parents=True, exist_ok=True)
    quality = analysis.quality_records(generated, gold_by_doc)
    analysis.write_quality_csv(quality, out_dir / "quality.csv")

    k_views = min(len(qset.queries) for qset in generated)
    if k_views >= 2:
        records = analysis.diversity_records(generated)
        analysis.write_diversity_csv(records, out_dir / "diversity.csv")
        metric_by_doc = None
        if run is not None:
            report = evaluation.compute_metric(metric, run, qrels, rel_threshold=rel_threshold)
            positives = {
                query_id: qrels.relevant_docs(query_id, threshold=rel_threshold)
                for query_id in qrels.query_ids()
            }
            metric_by_doc = analysis.doc_metric_from_queries(report.per_query, positives)
        quality_by_doc = {r.doc_id: r.max_rouge_l for r in quality}
        summaries = analysis.level_summaries(records, metric_by_doc, quality_by_doc)
        analysis.write_level_csv(summaries, out_dir / "levels.csv")

    retrieval_eval = None
    if index is not None:

        def retrieval_eval(truncated: Sequence[GeneratedQuerySet]) -> float:
            prefix = first_views(index, len(truncated[0].queries))
            prefix_run = search_stage(prefix, query_embs, settings)
            return evaluation.compute_metric(
                metric, prefix_run, qrels, rel_threshold=rel_threshold
            ).aggregate

    points = analysis.sweep_views(range(1, k_views + 1), generated, gold_by_doc, retrieval_eval)
    analysis.write_sweep_csv(points, out_dir / "sweep.csv")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_queries(args: argparse.Namespace) -> int:
    settings = _settings(args)
    corpus = load_corpus(settings["corpus"], fmt=settings["corpus_format"])
    sets = gen_queries_stage(corpus, settings)
    write_generated_queries(sets, settings["out"])
    print(f"wrote {len(sets)} query sets ({len(sets[0].queries)} views each) to {settings['out']}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    settings = _settings(args)
    corpus = load_corpus(settings["corpus"], fmt=settings["corpus_format"])
    triples = load_triples(settings["triples"])
    gen_path = settings.get("gen_queries")
    generated = load_generated_queries(gen_path, corpus=corpus) if gen_path else None
    params, trace = train_stage(settings, _train_config(settings), triples, corpus, generated)
    save_params(params, settings["out"])
    if "loss_trace" in settings:
        write_loss_trace(trace, settings["loss_trace"])
    final = trace[-1].loss if trace else float("nan")
    print(f"trained {len(trace)} steps (final loss {final:.4f}); checkpoint at {settings['out']}")
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    settings = _settings(args)
    params = load_params(settings["checkpoint"])
    corpus = load_corpus(settings["corpus"], fmt=settings["corpus_format"])
    generated = None
    if settings["mode"] == "dce":
        if "gen_queries" not in settings:
            raise ValueError("--mode dce requires --gen-queries")
        generated = load_generated_queries(settings["gen_queries"], corpus=corpus)
    index = build_index(
        params, corpus, mode=settings["mode"], generated=generated, threads=settings["threads"]
    )
    save_index(index, settings["out"])
    print(f"indexed {index.n_docs} docs ({index.n_rows} rows) to {settings['out']}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    settings = _settings(args)
    params = load_params(settings["checkpoint"])
    index = load_index(settings["index"])
    queries = load_queries(settings["queries"])
    run = search_stage(index, _embed_queries(params, queries), settings)
    evaluation.write_run(run, settings["out"])
    print(f"searched {len(queries)} queries (top {settings['search_topk']}) into {settings['out']}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    settings = _settings(args)
    run = evaluation.load_run(settings["run"])
    reports = eval_stage(run, load_qrels(settings["qrels"]), settings)
    if "out" in settings:
        evaluation.write_metrics_csv(reports, settings["out"])
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    settings = _settings(args)
    generated = load_generated_queries(settings["gen_queries"])
    queries = load_queries(settings["queries"])
    qrels = load_qrels(settings["qrels"])
    run = evaluation.load_run(settings["run"]) if "run" in settings else None
    index, query_embs = None, ()
    if "checkpoint" in settings:
        if "corpus" not in settings:
            raise ValueError("--checkpoint requires --corpus for the view sweep")
        params = load_params(settings["checkpoint"])
        corpus = load_corpus(settings["corpus"], fmt=settings["corpus_format"])
        index = build_index(params, corpus, "dce", generated, threads=settings["threads"])
        query_embs = _embed_queries(params, queries)
    out_dir = Path(settings["out_dir"])
    analyze_stage(
        out_dir, generated, queries, qrels, settings, settings["metric"], run, index, query_embs
    )
    print(f"analysis written to {out_dir}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest()
    failed = 0
    for result in results:
        status = "ok" if result.passed else "FAIL"
        print(f"{status:4s} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} suites failed")
        return 1
    print(f"all {len(results)} suites passed")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config)
    missing = [key for key in ("corpus", "queries", "qrels", "triples") if key not in cfg]
    if missing:
        raise ValueError(f"config is missing required key {missing[0]!r}")
    # command-line --mode, --seed, --out-dir and --threads override the file
    settings = _settings(args, cfg)
    train_cfg = _train_config(settings)
    mode = train_cfg.mode
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus = load_corpus(settings["corpus"], fmt=settings["corpus_format"])
    queries = load_queries(settings["queries"])
    qrels = load_qrels(settings["qrels"])
    triples = load_triples(settings["triples"])

    generated = None
    if mode == "dce" or train_cfg.epochs_pretrain > 0:
        if "gen_queries" in settings:
            generated = load_generated_queries(settings["gen_queries"], corpus=corpus)
        else:
            generated = gen_queries_stage(corpus, settings)
            write_generated_queries(generated, out_dir / "gen_queries.jsonl")
        log.info("pipeline: %d generated query sets ready", len(generated))

    params, trace = train_stage(settings, train_cfg, triples, corpus, generated)
    save_params(params, out_dir / "model.ckpt")
    write_loss_trace(trace, out_dir / "loss_trace.csv")

    index = build_index(params, corpus, mode=mode, generated=generated, threads=settings["threads"])
    save_index(index, out_dir / "index.mvix")

    query_embs = _embed_queries(params, queries)
    run = search_stage(index, query_embs, settings)
    evaluation.write_run(run, out_dir / "run.trec")

    reports = eval_stage(run, qrels, settings)
    evaluation.write_metrics_csv(reports, out_dir / "metrics.csv")

    if settings["analyze"] and generated is not None:
        # a single-view index has no views to slice for the sweep
        dce_index = index if mode == "dce" else None
        metric = reports[0].name
        analyze_stage(
            out_dir, generated, queries, qrels, settings, metric, run, dce_index, query_embs
        )

    print(f"pipeline outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
#
# Flags store into the setting names of ``_CONFIG_KEYS`` and default to
# None, so unset flags fall back to ``_DEFAULTS`` or the config dataclasses.


def _add_encoder_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("encoder")
    group.add_argument("--embed-dim", type=int)
    group.add_argument("--hash-buckets", type=int)
    group.add_argument("--ngram-orders", type=_parse_orders, help="comma-separated, e.g. 1,2")
    group.add_argument(
        "--untie", dest="tie_params", action="store_false", default=None,
        help="give query and document towers separate weights",
    )
    group.add_argument("--max-query-tokens", type=int)
    group.add_argument("--max-doc-tokens", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdr",
        description="Multi-view dense retrieval: generate queries, train, index, search, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--threads", type=int, help="worker threads (default: 1); never changes outputs"
        )

    def add_corpus_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--corpus-format", choices=("tsv", "jsonl"))

    p = sub.add_parser("gen-queries", help="generate pseudo-queries for a corpus")
    p.add_argument("--corpus", required=True)
    add_corpus_format(p)
    p.add_argument("--out", required=True)
    p.add_argument("--views", type=int, help="queries per document")
    p.add_argument("--top-k", dest="sampling_top_k", type=int, help="sampling pool size")
    p.add_argument("--max-query-tokens", type=int)
    p.add_argument("--seed", type=int)
    add_threads(p)
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("train", help="train an encoder on triples")
    p.add_argument("--corpus", required=True)
    add_corpus_format(p)
    p.add_argument("--triples", required=True)
    p.add_argument("--gen-queries", help="generated queries (needed for pretraining)")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--mode", choices=("de", "dce"))
    p.add_argument("--batch-size", type=int)
    p.add_argument("--pretrain-batch-size", type=int)
    p.add_argument(
        "--negatives", dest="negatives_per_positive", type=int, help="hard negatives per positive"
    )
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--warmup", dest="warmup_fraction", type=float)
    p.add_argument("--pretrain-epochs", dest="epochs_pretrain", type=int)
    p.add_argument("--finetune-epochs", dest="epochs_finetune", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss-trace", help="write per-step loss CSV here")
    _add_encoder_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="encode a corpus into a flat index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    add_corpus_format(p)
    p.add_argument("--mode", choices=("de", "dce"), default="dce")
    p.add_argument("--gen-queries")
    p.add_argument("--out", required=True)
    add_threads(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="run queries against an index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True, help="run file path")
    p.add_argument("--topk", dest="search_topk", type=int)
    p.add_argument("--tag", dest="run_tag")
    add_threads(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="score a run file against judgments")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics")
    p.add_argument("--rel-threshold", type=int)
    p.add_argument("--out", help="also write metric,value CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="query-set quality/diversity reports")
    p.add_argument("--gen-queries", required=True)
    p.add_argument("--queries", required=True, help="gold queries (TSV)")
    p.add_argument("--qrels", required=True)
    p.add_argument("--run", help="run file for per-level retrieval averages")
    p.add_argument("--metric", default="mrr@10")
    p.add_argument("--rel-threshold", type=int)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--checkpoint", help="encode an index with every view for the view sweep")
    p.add_argument("--corpus")
    add_corpus_format(p)
    p.add_argument("--topk", dest="search_topk", type=int)
    add_threads(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=("de", "dce"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")
    add_threads(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("selftest", help="run built-in reference checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
