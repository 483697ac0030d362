"""Command-line interface.

Subcommands cover each pipeline stage (gen-queries, train, index, search,
eval, analyze), an end-to-end ``pipeline`` driven by a key=value config
file, and ``selftest`` for the built-in reference checks. ``main`` checks
every command's settings before the command runs. Each stage is one
function that its subcommand and ``pipeline`` both call, so for one seed
the staged commands and ``pipeline`` write the same bytes. Every stage
runs on the calling thread.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from . import __version__, analysis, evaluation
from .corpus import Document, GeneratedQuerySet, Qrels, Query, TrainingTriple
from .corpus import load_corpus, load_generated_queries, load_qrels, load_queries, load_triples
from .corpus import _check_new, _read_lines, write_generated_queries
from .encoder import MODES, EncoderConfig, EncoderParams, encode_queries
from .encoder import init_params, load_params, save_params
from .hashing import derive_seed
from .index import FlatIndex, build_index, load_index, save_index, search_corpus, search_prefixes
from .querygen import SamplingConfig, fit_qg, generate_corpus
from .selftest import run_selftest
from .trainer import TraceEntry, TrainConfig, train, write_loss_trace

log = logging.getLogger(__name__)

# Flag and config-key values by setting name (a missing name is unset), and
# the entries ``_settings`` derives from them: ``sampling_config``,
# ``encoder_config``, ``train_config`` and ``metric``.
Settings = Mapping[str, object]


def _parse_orders(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        message = f"bad n-gram orders {text!r}: expected e.g. '1,2'"
        raise argparse.ArgumentTypeError(message) from None  # argparse prints it for the flag


def _parse_metrics(text: str) -> tuple[str, ...]:
    specs = tuple(spec.strip() for spec in text.split(",") if spec.strip())
    if not specs:
        raise argparse.ArgumentTypeError("no metrics requested")
    return specs


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
        ("corpus", "queries", "qrels", "triples", "gen_queries", "out_dir", "mode", "run_tag"),
        str,
    ),
    **dict.fromkeys(
        ("seed", "views", "sampling_top_k", "embed_dim", "hash_buckets",
         "max_query_tokens", "max_doc_tokens", "batch_size", "pretrain_batch_size",
         "negatives_per_positive", "epochs_pretrain", "epochs_finetune", "search_topk",
         "rel_threshold"),
        int,
    ),
    "learning_rate": float,
    "warmup_fraction": float,
    "ngram_orders": _parse_orders,
    "metrics": _parse_metrics,
    "analyze": _parse_bool,
}

# Defaults of the settings that no config dataclass owns; EncoderConfig,
# TrainConfig and SamplingConfig hold the defaults of their own fields.
_DEFAULTS = {
    "out_dir": "out",
    "seed": 0,
    "search_topk": 10,
    "metrics": ("mrr@10", "recall@1000", "ndcg@10"),
    "rel_threshold": 1,
    "run_tag": evaluation.DEFAULT_RUN_TAG,
    "analyze": False,
}


def parse_config(path: str | Path) -> dict[str, object]:
    """Parse a flat ``key = value`` config file, each value by its key's
    parser in ``_CONFIG_KEYS``.

    Blank lines and ``#`` comments are ignored; unknown or duplicate keys
    and values their parser rejects are errors that name the line.
    """
    values: dict[str, object] = {}
    for where, raw in _read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ValueError(f"{where}: expected 'key = value'")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        _check_new(key, values, "config key", where)
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{where}: config key {key!r}: {exc}") from None
    return values


def _settings(flags: argparse.Namespace, config: Settings | None = None) -> dict:
    """Flags over config-file values over the defaults; a None flag is unset.
    Flags and ``parse_config`` parse each value by its key's parser.

    ``main`` calls this before any command runs, and every value is checked
    here, even one that the command does not use; a metric spec may not
    repeat another's (name, k). The stages read the configs built here;
    ``metric`` is the ``--metric`` flag when given, otherwise the first of
    ``metrics``.
    """
    merged: dict[str, object] = {**_DEFAULTS, **(config or {})}
    merged.update((key, value) for key, value in vars(flags).items() if value is not None)
    merged["sampling_config"] = SamplingConfig(
        **_given(merged, "max_query_tokens", k_views="views", top_k="sampling_top_k")
    )
    merged["encoder_config"] = EncoderConfig(
        **_given(merged, "embed_dim", "hash_buckets", "ngram_orders", "max_query_tokens",
                 "max_doc_tokens")
    )
    merged["train_config"] = TrainConfig(
        seed=derive_seed(merged["seed"], "train"),
        **_given(
            merged, "mode", "batch_size", "pretrain_batch_size", "negatives_per_positive",
            "learning_rate", "warmup_fraction", "epochs_pretrain", "epochs_finetune",
        ),
    )
    merged.setdefault("metric", merged["metrics"][0])
    seen: dict[tuple[str, int], str] = {}
    for spec in merged["metrics"]:
        parsed = evaluation.parse_metric_spec(spec)
        if parsed in seen:
            raise ValueError(f"metric spec {spec!r} repeats {seen[parsed]!r}")
        seen[parsed] = spec
    evaluation.parse_metric_spec(merged["metric"])
    for key in ("search_topk", "rel_threshold"):
        if merged[key] < 1:
            raise ValueError(f"{key} must be >= 1, got {merged[key]}")
    evaluation.check_fields("tag", [merged["run_tag"]])
    return merged


def _given(settings: Settings, *keys: str, **renamed: str) -> dict[str, object]:
    """Config dataclass keyword arguments from the settings that are set."""
    names = dict(zip(keys, keys)) | renamed
    return {field: settings[key] for field, key in names.items() if key in settings}


# ---------------------------------------------------------------------------
# Stages: one function each, shared by the staged commands and the pipeline


def gen_queries_stage(corpus: Sequence[Document], settings: Settings) -> list[GeneratedQuerySet]:
    """Pseudo-queries for every document, drawn from stage seed ``querygen``."""
    model = fit_qg(corpus)
    seed = derive_seed(settings["seed"], "querygen")
    return generate_corpus(model, corpus, settings["sampling_config"], seed=seed)


def train_stage(
    settings: Settings, triples: Sequence[TrainingTriple], corpus: Sequence[Document],
    generated: Sequence[GeneratedQuerySet] | None,
) -> tuple[EncoderParams, list[TraceEntry]]:
    """Initialise an encoder from stage seed ``init`` and train it.

    The trainer logs each epoch's loss at INFO level, which ``-v`` shows.
    """
    params = init_params(settings["encoder_config"], derive_seed(settings["seed"], "init"))
    trace = train(params, triples, settings["train_config"], corpus=corpus, generated=generated)
    return params, trace


def search_stage(
    params: EncoderParams, index: FlatIndex, queries: Sequence[Query], settings: Settings
) -> evaluation.Run:
    ranked = search_corpus(params, index, queries, settings["search_topk"])
    return evaluation.run_from_ranked_lists(ranked, tag=settings["run_tag"])


def eval_stage(
    run: evaluation.Run, qrels: Qrels, settings: Settings
) -> list[evaluation.MetricReport]:
    specs, rel = settings["metrics"], settings["rel_threshold"]
    reports = [evaluation.compute_metric(spec, run, qrels, rel_threshold=rel) for spec in specs]
    for report in reports:
        print(f"{report.name}\t{report.aggregate:.6f}\t({report.n_queries} queries)")
    return reports


def _prefix_metrics(
    params: EncoderParams, index: FlatIndex, queries: Sequence[Query], qrels: Qrels,
    settings: Settings, metric: str,
) -> list[float]:
    """``metric`` of the run that ranks each view prefix k = 1..k_views of
    ``index``. One :func:`search_prefixes` pass ranks every prefix, and each
    prefix's ranked arrays become its run as they are; one prefix's run is
    alive at a time."""
    embs = encode_queries(params, [q.text for q in queries])
    docs, scores = search_prefixes(index, embs, settings["search_topk"])
    query_ids = [q.query_id for q in queries]
    runs = (
        evaluation.Run.from_arrays(index.doc_ids, query_ids, d, s, settings["run_tag"])
        for d, s in zip(docs, scores)
    )
    rel_threshold = settings["rel_threshold"]
    return [evaluation.compute_metric(metric, run, qrels, rel_threshold).aggregate for run in runs]


def analyze_stage(
    generated: Sequence[GeneratedQuerySet], queries: Sequence[Query], qrels: Qrels,
    settings: Settings, run: evaluation.Run | None, params: EncoderParams | None,
    index: FlatIndex | None,
) -> None:
    """Write quality.csv, diversity.csv, levels.csv and sweep.csv into setting ``out_dir``.

    ``run``, when given, gives levels.csv its per-level value of setting
    ``metric``: each document's mean over the judged queries it is relevant
    to. ``index``, built from ``params`` with every view, fills the sweep's
    retrieval column with ``metric``: one pass ranks its view prefixes
    k = 1..k_views for ``queries``, encoded with ``params``. Each generated
    view is scored against gold once; quality.csv is the sweep's point with
    every view.
    """
    if not generated:
        raise ValueError("no generated queries to analyze")
    metric, rel_threshold = settings["metric"], settings["rel_threshold"]
    relevant = {qid: qrels.relevant_docs(qid, rel_threshold) for qid in qrels.query_ids()}
    query_text = {q.query_id: q.text for q in queries}
    gold_by_doc: dict[str, list[str]] = {}
    for query_id, doc_ids in relevant.items():
        if query_id in query_text:
            for doc_id in doc_ids:
                gold_by_doc.setdefault(doc_id, []).append(query_text[query_id])
    metric_by_doc = None
    if run is not None:
        report = evaluation.compute_metric(metric, run, qrels, rel_threshold)
        metric_by_doc = analysis.doc_metric_from_queries(report.per_query, relevant)

    # every query set carries k_views views, so the last point holds them all
    k_views = min(len(qset.queries) for qset in generated)
    retrieval = None
    if index is not None:
        retrieval = _prefix_metrics(params, index, queries, qrels, settings, metric)
    points = analysis.sweep_views(range(1, k_views + 1), generated, gold_by_doc, retrieval)
    quality = points[-1].quality

    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_quality_csv(quality, out_dir / "quality.csv")
    if k_views >= 2:
        records = analysis.diversity_records(generated)
        analysis.write_diversity_csv(records, out_dir / "diversity.csv")
        quality_by_doc = {r.doc_id: r.max_rouge_l for r in quality}
        summaries = analysis.level_summaries(records, metric_by_doc, quality_by_doc)
        analysis.write_level_csv(summaries, out_dir / "levels.csv")
    analysis.write_sweep_csv(points, out_dir / "sweep.csv")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_queries(settings: Settings) -> int:
    corpus = load_corpus(settings["corpus"])
    sets = gen_queries_stage(corpus, settings)
    write_generated_queries(sets, settings["out"])
    print(f"wrote {len(sets)} query sets ({len(sets[0].queries)} views each) to {settings['out']}")
    return 0


def cmd_train(settings: Settings) -> int:
    corpus = load_corpus(settings["corpus"])
    triples = load_triples(settings["triples"])
    gen_path = settings.get("gen_queries")
    generated = load_generated_queries(gen_path, corpus=corpus) if gen_path else None
    params, trace = train_stage(settings, triples, corpus, generated)
    save_params(params, settings["out"])
    if "loss_trace" in settings:
        write_loss_trace(trace, settings["loss_trace"])
    final = trace[-1].loss if trace else float("nan")
    print(f"trained {len(trace)} steps (final loss {final:.4f}); checkpoint at {settings['out']}")
    return 0


def cmd_index(settings: Settings) -> int:
    mode = settings["train_config"].mode
    if mode == "dce" and "gen_queries" not in settings:
        raise ValueError("--mode dce requires --gen-queries")
    params = load_params(settings["checkpoint"])
    corpus = load_corpus(settings["corpus"])
    generated = None
    if mode == "dce":
        generated = load_generated_queries(settings["gen_queries"], corpus=corpus)
    index = build_index(params, corpus, mode=mode, generated=generated)
    save_index(index, settings["out"])
    print(f"indexed {index.n_docs} docs ({index.n_rows} rows) to {settings['out']}")
    return 0


def cmd_search(settings: Settings) -> int:
    params = load_params(settings["checkpoint"])
    index = load_index(settings["index"])
    queries = load_queries(settings["queries"])
    run = search_stage(params, index, queries, settings)
    evaluation.write_run(run, settings["out"])
    print(f"searched {len(queries)} queries (top {settings['search_topk']}) into {settings['out']}")
    return 0


def cmd_eval(settings: Settings) -> int:
    run = evaluation.load_run(settings["run"])
    reports = eval_stage(run, load_qrels(settings["qrels"]), settings)
    if "out" in settings:
        evaluation.write_metrics_csv(reports, settings["out"])
    return 0


def cmd_analyze(settings: Settings) -> int:
    if "checkpoint" in settings and "corpus" not in settings:
        raise ValueError("--checkpoint requires --corpus for the view sweep")
    corpus = None
    if "corpus" in settings:
        corpus = load_corpus(settings["corpus"])
    generated = load_generated_queries(settings["gen_queries"], corpus=corpus)
    queries = load_queries(settings["queries"])
    qrels = load_qrels(settings["qrels"])
    run = evaluation.load_run(settings["run"]) if "run" in settings else None
    params = index = None
    if "checkpoint" in settings:
        params = load_params(settings["checkpoint"])
        index = build_index(params, corpus, "dce", generated)
    analyze_stage(generated, queries, qrels, settings, run, params, index)
    print(f"analysis written to {Path(settings['out_dir'])}")
    return 0


def cmd_selftest(settings: Settings) -> int:
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


def cmd_pipeline(settings: Settings) -> int:
    # pipeline has no flag for these, so only its config file sets them
    missing = [key for key in ("corpus", "queries", "qrels", "triples") if key not in settings]
    if missing:
        raise ValueError(f"config is missing required key {missing[0]!r}")
    train_cfg = settings["train_config"]
    mode = train_cfg.mode
    corpus = load_corpus(settings["corpus"])
    queries = load_queries(settings["queries"])
    qrels = load_qrels(settings["qrels"])
    triples = load_triples(settings["triples"])

    generated = None
    if mode == "dce" or train_cfg.epochs_pretrain > 0 or settings["analyze"]:
        if "gen_queries" in settings:
            generated = load_generated_queries(settings["gen_queries"], corpus=corpus)
        else:
            generated = gen_queries_stage(corpus, settings)
        log.info("pipeline: %d generated query sets ready", len(generated))

    # every input is read before the first output
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if generated is not None and "gen_queries" not in settings:
        write_generated_queries(generated, out_dir / "gen_queries.jsonl")

    params, trace = train_stage(settings, triples, corpus, generated)
    save_params(params, out_dir / "model.ckpt")
    write_loss_trace(trace, out_dir / "loss_trace.csv")

    index = build_index(params, corpus, mode=mode, generated=generated)
    save_index(index, out_dir / "index.mvix")

    run = search_stage(params, index, queries, settings)
    evaluation.write_run(run, out_dir / "run.trec")

    reports = eval_stage(run, qrels, settings)
    evaluation.write_metrics_csv(reports, out_dir / "metrics.csv")

    if settings["analyze"]:
        # a single-view index has no views to slice for the sweep
        dce_index = index if mode == "dce" else None
        analyze_stage(generated, queries, qrels, settings, run, params, dce_index)

    print(f"pipeline outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
#
# Each setting's flag stores into its name in ``_CONFIG_KEYS``, parses its
# value as that config key does, and defaults to None, so unset flags fall
# back to ``_DEFAULTS`` or the config dataclasses. A flag is ``--`` and the
# name with dashes, except for these settings.
_FLAGS = {
    "sampling_top_k": "--top-k", "negatives_per_positive": "--negatives", "learning_rate": "--lr",
    "warmup_fraction": "--warmup", "epochs_pretrain": "--pretrain-epochs",
    "epochs_finetune": "--finetune-epochs", "search_topk": "--topk", "run_tag": "--tag",
}


def _add_settings(
    parser: argparse._ActionsContainer, *names: str, required: bool = False, help: str | None = None
) -> None:
    """Add the flag of each named setting."""
    for name in names:
        parse = _CONFIG_KEYS[name]
        flag = _FLAGS.get(name, "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, type=None if parse is str else parse,
                            choices=MODES if name == "mode" else None, required=required, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdr",
        description="Multi-view dense retrieval: generate queries, train, index, search, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-queries", help="generate pseudo-queries for a corpus")
    _add_settings(p, "corpus", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, "views", help="queries per document")
    _add_settings(p, "sampling_top_k", help="sampling pool size")
    _add_settings(p, "max_query_tokens", "seed")
    p.set_defaults(func=cmd_gen_queries)

    p = sub.add_parser("train", help="train an encoder on triples")
    _add_settings(p, "corpus", required=True)
    _add_settings(p, "triples", required=True)
    _add_settings(p, "gen_queries", help="generated queries (needed for pretraining)")
    p.add_argument("--out", required=True, help="checkpoint path")
    _add_settings(p, "mode", "batch_size", "pretrain_batch_size")
    _add_settings(p, "negatives_per_positive", help="hard negatives per positive")
    _add_settings(p, "learning_rate", "warmup_fraction")
    _add_settings(p, "epochs_pretrain", "epochs_finetune", "seed")
    p.add_argument("--loss-trace", help="write per-step loss CSV here")
    group = p.add_argument_group("encoder")
    _add_settings(group, "embed_dim", "hash_buckets")
    _add_settings(group, "ngram_orders", help="comma-separated, e.g. 1,2")
    _add_settings(group, "max_query_tokens", "max_doc_tokens")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="encode a corpus into a flat index")
    p.add_argument("--checkpoint", required=True)
    _add_settings(p, "corpus", required=True)
    _add_settings(p, "mode", "gen_queries")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="run queries against an index")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    _add_settings(p, "queries", required=True)
    p.add_argument("--out", required=True, help="run file path")
    _add_settings(p, "search_topk", "run_tag")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="score a run file against judgments")
    p.add_argument("--run", required=True)
    _add_settings(p, "qrels", required=True)
    _add_settings(p, "metrics", "rel_threshold")
    p.add_argument("--out", help="also write metric,value CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="query-set quality/diversity reports")
    _add_settings(p, "gen_queries", required=True)
    _add_settings(p, "queries", required=True, help="gold queries")
    _add_settings(p, "qrels", required=True)
    p.add_argument("--run", help="run file for per-level retrieval averages")
    p.add_argument("--metric", help="levels.csv and sweep metric; default: the first default metric")
    _add_settings(p, "rel_threshold")
    _add_settings(p, "out_dir", required=True)
    p.add_argument("--checkpoint", help="encode an index with every view for the view sweep")
    _add_settings(p, "corpus", "search_topk")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", required=True)
    _add_settings(p, "mode", "seed", "out_dir")
    p.add_argument("--threads", type=int, help="ignored: every stage runs on one thread")
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
        # only pipeline has --config; its --mode, --seed and --out-dir override the file
        config = parse_config(args.config) if "config" in args else None
        return args.func(_settings(args, config))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
