"""One benchmark round of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC OUT SPAWNED_NS
[--trace] [--setup-only]`` from the root of a checkout. SPEC is the JSON
workload spec ``run.py`` wrote next to the generated inputs; OUT receives
this round's result as JSON. SPAWNED_NS is the parent's
``time.monotonic_ns()`` just before the process was started, so set-up
time covers interpreter start, imports, input loading and the checkpoint
load, up to the first timed call.

After the timed section the worker records its peak RSS and then checks
the program's outputs against the benchmark's own computations
(``checks.py``); a failed check is reported as an error, not raised.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import require  # noqa: E402

# Queries whose top 10 is recomputed by brute force, per round.
BRUTE_FORCE_QUERIES = 50
# Documents whose max-ROUGE-L is recomputed, per sweep round.
ROUGE_SAMPLE_DOCS = 50


class Round:
    """Timing, tracing and results of one round."""

    def __init__(self, spec: dict, spawned_ns: int, trace: bool):
        self.spec = spec
        self.spawned_ns = spawned_ns
        self.tracer = None
        if trace:
            import tracing

            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        self.result: dict = {"sections": {}, "attempted": 0, "failed": 0, "errors": []}
        self.setup_s: float | None = None

    def traced(self, name: str, fn):
        """Run ``fn()`` inside a root span of the benchmark when tracing."""
        if self.tracer is None:
            return fn()
        return self.tracer.span(f"bench.{name}", fn)

    def timed(self, name: str, fn, ops: int = 1):
        """Run one timed section; the first one ends set-up."""
        if self.setup_s is None:
            self.setup_s = (time.monotonic_ns() - self.spawned_ns) / 1e9
        self.result["attempted"] += ops
        t0 = time.perf_counter()
        value = self.traced(name, fn)
        self.result["sections"][name] = time.perf_counter() - t0
        return value


def _load_inputs(spec: dict):
    import mvdr

    inputs = spec["inputs"]
    return (
        mvdr.load_corpus(inputs["corpus"]),
        mvdr.load_queries(inputs["queries"]),
        mvdr.load_qrels(inputs["qrels"]),
    )


def setup_cli(rnd: Round) -> dict:
    """Set-up of a workload that drives one ``mvdr`` command: the imports."""
    import mvdr.cli  # noqa: F401

    return {}


# ---------------------------------------------------------------------------
# pipeline: `mvdr pipeline` on the 500-document collection


def timed_pipeline(rnd: Round, state: dict) -> None:
    import mvdr.cli

    out_dir = rnd.spec["out_dir"]
    train_fn = mvdr.cli.train
    train_time = []

    def timed_train(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return train_fn(*args, **kwargs)
        finally:
            train_time.append(time.perf_counter() - t0)

    mvdr.cli.train = timed_train
    try:
        code = rnd.timed(
            "pipeline",
            lambda: mvdr.cli.main(["pipeline", "--config", rnd.spec["config"], "--out-dir", out_dir]),
        )
    finally:
        mvdr.cli.train = train_fn
    if code != 0:
        rnd.result["failed"] += 1
        raise checks.CheckFailed(f"mvdr pipeline exited with {code}")
    rnd.result["train_s"] = sum(train_time)


def check_pipeline(rnd: Round, state: dict) -> float:
    import mvdr
    from mvdr.hashing import derive_seed

    spec = rnd.spec
    out = Path(spec["out_dir"])
    qrels = checks.read_qrels(spec["inputs"]["qrels"])
    run = checks.read_run(out / "run.trec")
    mrr = checks.mrr_at_10(run, qrels)
    reported = checks.read_csv_column(out / "metrics.csv", "metric", "value")["mrr@10"]
    require(abs(mrr - reported) <= checks.CSV_TOL, f"metrics.csv mrr@10 {reported} != recomputed {mrr}")

    params = mvdr.load_params(out / "model.ckpt")
    corpus, queries, _ = _load_inputs(spec)
    generated = mvdr.load_generated_queries(out / "gen_queries.jsonl")
    loaded = mvdr.load_index(out / "index.mvix")
    rebuilt = mvdr.build_index(params, corpus, mode="dce", generated=generated)
    require(checks.same_index(loaded, rebuilt), "saved index differs from one rebuilt from model.ckpt")
    _check_top10(params, loaded, queries, run)

    cfg = params.config
    untrained = mvdr.init_params(cfg, derive_seed(spec["seed"], "init"))
    index = mvdr.build_index(untrained, corpus, mode="dce", generated=generated)
    ranked = mvdr.index.search_corpus(untrained, index, queries, 10)
    base = checks.mrr_at_10(_run_of(ranked), qrels)
    require(mrr > base, f"trained MRR@10 {mrr:.4f} does not beat untrained {base:.4f}")
    rnd.result["untrained_mrr_at_10"] = base

    means = checks.epoch_means(out / "loss_trace.csv", spec["epochs"])
    for stage, values in means.items():
        require(values[-1] < values[0], f"{stage}: last-epoch mean loss {values[-1]:.4f} >= first {values[0]:.4f}")
    rnd.result["train_examples"] = spec["train_examples"]
    return mrr


# ---------------------------------------------------------------------------
# serve: generate views, build + save, cold load, single queries, batch search


def setup_serve(rnd: Round) -> dict:
    import mvdr

    def load():
        corpus, queries, qrels = _load_inputs(rnd.spec)
        return {
            "corpus": corpus,
            "queries": queries,
            "qrels": qrels,
            "params": mvdr.load_params(rnd.spec["inputs"]["checkpoint"]),
        }

    return rnd.traced("setup", load)


def timed_serve(rnd: Round, state: dict) -> None:
    import mvdr
    from mvdr.hashing import derive_seed

    spec = rnd.spec
    params, corpus, queries = state["params"], state["corpus"], state["queries"]
    index_path = Path(spec["out_dir"]) / "index.mvix"
    sampling = mvdr.SamplingConfig(**spec["sampling"])

    def gen_queries():
        model = mvdr.fit_qg(corpus, seed=spec["seed"])
        return mvdr.generate_corpus(
            model, corpus, sampling, seed=derive_seed(spec["seed"], "querygen")
        )

    def build_and_save():
        index = mvdr.build_index(params, corpus, mode="dce", generated=generated)
        t0 = time.perf_counter()
        mvdr.save_index(index, index_path)
        rnd.result["sections"]["save"] = time.perf_counter() - t0
        return index

    def single_queries():
        latencies = []
        results = []
        for query in queries:
            t0 = time.perf_counter()
            emb = mvdr.encoder.encode_queries(params, [query.text])
            results.append(mvdr.search(loaded, emb[0], 10, query_id=query.query_id))
            latencies.append(time.perf_counter() - t0)
        rnd.result["latencies_s"] = latencies
        return results

    t0 = time.perf_counter()
    generated = rnd.timed("gen_queries", gen_queries)
    built = rnd.timed("build_save", build_and_save, ops=2)
    loaded = rnd.timed("load", lambda: mvdr.load_index(index_path))
    singles = rnd.timed("single_queries", single_queries, ops=len(queries))
    ranked = rnd.timed(
        "batch_search", lambda: mvdr.index.search_corpus(params, loaded, queries, 10)
    )
    rnd.result["wall_s"] = time.perf_counter() - t0
    state.update(built=built, loaded=loaded, singles=singles, ranked=ranked)
    rnd.result["rows"] = built.n_rows
    rnd.result["index_bytes"] = index_path.stat().st_size


def check_serve(rnd: Round, state: dict) -> float:
    import mvdr

    require(checks.same_index(state["loaded"], state["built"]), "loaded index differs from the built one")
    run = _run_of(state["ranked"])
    qrels = checks.read_qrels(rnd.spec["inputs"]["qrels"])
    mrr = checks.mrr_at_10(run, qrels)
    program = mvdr.evaluation.run_from_ranked_lists(state["ranked"])
    reported = mvdr.compute_metric("mrr@10", program, state["qrels"]).aggregate
    require(abs(mrr - reported) <= 1e-12, f"program MRR@10 {reported} != recomputed {mrr}")
    _check_top10(state["params"], state["loaded"], state["queries"], run)
    singles = _run_of(state["singles"])
    _check_top10(state["params"], state["loaded"], state["queries"], singles, one_by_one=True)
    return mrr


# ---------------------------------------------------------------------------
# sweep: `mvdr analyze --checkpoint`, one index per view prefix


def timed_sweep(rnd: Round, state: dict) -> None:
    import mvdr.cli

    inputs = rnd.spec["inputs"]
    argv = [
        "analyze",
        "--gen-queries", inputs["gen_queries"],
        "--queries", inputs["queries"],
        "--qrels", inputs["qrels"],
        "--checkpoint", inputs["checkpoint"],
        "--corpus", inputs["corpus"],
        "--out-dir", rnd.spec["out_dir"],
    ]
    code = rnd.timed("analyze", lambda: mvdr.cli.main(argv))
    if code != 0:
        rnd.result["failed"] += 1
        raise checks.CheckFailed(f"mvdr analyze exited with {code}")


def check_sweep(rnd: Round, state: dict) -> float:
    import mvdr

    spec = rnd.spec
    out = Path(spec["out_dir"])
    curve = checks.read_csv_column(out / "sweep.csv", "k", "mean_max_rouge_l")
    metric = checks.read_csv_column(out / "sweep.csv", "k", "retrieval_metric")
    views = spec["sampling"]["k_views"]
    require(list(curve) == [str(k) for k in range(1, views + 1)], f"sweep.csv covers k={list(curve)}")
    values = list(curve.values())
    require(all(b >= a for a, b in zip(values, values[1:])), f"mean max-ROUGE-L decreases in k: {values}")

    generated = mvdr.load_generated_queries(spec["inputs"]["gen_queries"])
    gold: dict[str, list[str]] = {}
    qtext = dict(_read_tsv(spec["inputs"]["queries"]))
    for qid, docs in checks.read_qrels(spec["inputs"]["qrels"]).items():
        for doc_id in docs:
            gold.setdefault(doc_id, []).append(qtext[qid])
    quality = checks.read_csv_column(out / "quality.csv", "doc_id", "max_rouge_l")
    require(set(quality) == set(gold), "quality.csv does not cover exactly the judged documents")
    rng = np.random.default_rng(spec["seed"])
    judged = [qset for qset in generated if qset.doc_id in gold]
    for i in rng.choice(len(judged), size=min(ROUGE_SAMPLE_DOCS, len(judged)), replace=False):
        qset = judged[int(i)]
        want = checks.max_rouge_l(qset.queries, gold[qset.doc_id])
        got = quality[qset.doc_id]
        require(abs(want - got) <= checks.CSV_TOL, f"{qset.doc_id}: max-ROUGE-L {got} != recomputed {want}")
    levels = checks.read_csv_column(out / "levels.csv", "level", "n_docs")
    require(sum(levels.values()) == len(generated), "levels.csv does not place every document")

    # the k = views point is the full index: rebuild it, search, recompute
    corpus, queries, _ = _load_inputs(spec)
    params = mvdr.load_params(spec["inputs"]["checkpoint"])
    index = mvdr.build_index(params, corpus, mode="dce", generated=generated)
    run = _run_of(mvdr.index.search_corpus(params, index, queries, 10))
    mrr = checks.mrr_at_10(run, checks.read_qrels(spec["inputs"]["qrels"]))
    reported = metric[str(views)]
    require(abs(mrr - reported) <= checks.CSV_TOL, f"sweep.csv MRR@10 at k={views} {reported} != recomputed {mrr}")
    _check_top10(params, index, queries, run)
    return mrr


# ---------------------------------------------------------------------------


def _read_tsv(path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(line.rstrip("\n").split("\t", 1)) for line in handle]


def _run_of(ranked) -> dict[str, list[tuple[str, float]]]:
    return {rl.query_id: [(r.doc_id, r.score) for r in rl.results] for rl in ranked}


def _check_top10(params, index, queries, run, one_by_one: bool = False) -> None:
    """Brute-force the top 10 of evenly spaced queries over ``index``.

    Query embeddings are made as the searched ones were: all queries in
    one batch, or ``one_by_one``, so that both sides score the same vectors.
    """
    import mvdr

    step = max(1, len(queries) // BRUTE_FORCE_QUERIES)
    picks = list(range(0, len(queries), step))[:BRUTE_FORCE_QUERIES]
    if one_by_one:
        embs = [mvdr.encoder.encode_queries(params, [queries[i].text])[0] for i in picks]
    else:
        embs = mvdr.encoder.encode_queries(params, [q.text for q in queries])[picks]
    brute = checks.BruteForce(index)
    for i, emb in zip(picks, embs):
        qid = queries[i].query_id
        brute.compare_top10(run[qid], emb, f"query {qid}")


WORKLOADS = {
    "pipeline": (setup_cli, timed_pipeline, check_pipeline),
    "serve": (setup_serve, timed_serve, check_serve),
    "sweep": (setup_cli, timed_sweep, check_sweep),
}


def main(argv: list[str]) -> int:
    spec_path, out_path, spawned_ns = argv[0], argv[1], int(argv[2])
    spec = json.loads(Path(spec_path).read_text())
    rnd = Round(spec, spawned_ns, trace="--trace" in argv)
    import mvdr

    if not Path(mvdr.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported mvdr from {mvdr.__file__}, not from this checkout")
    setup, timed, check = WORKLOADS[spec["kind"]]
    state = setup(rnd)
    result = rnd.result
    if "--setup-only" in argv:
        rnd.setup_s = (time.monotonic_ns() - spawned_ns) / 1e9
    else:
        t0 = time.perf_counter()
        try:
            timed(rnd, state)
        except checks.CheckFailed as exc:
            result["errors"].append(str(exc))
        result.setdefault("wall_s", time.perf_counter() - t0)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if rnd.tracer is not None:
            import tracing

            spans = list(rnd.tracer.spans)  # the checks below are not traced work
            result["layers"] = tracing.layer_metrics(spans)
            tracing.write_spans(spans, Path(out_path).with_suffix(".spans.jsonl"))
        if not result["errors"]:
            try:
                result["mrr_at_10"] = check(rnd, state)
            except checks.CheckFailed as exc:
                result["errors"].append(str(exc))
    result["setup_s"] = rnd.setup_s
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
