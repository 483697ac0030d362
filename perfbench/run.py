"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve-dce-5k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run

1. generates the workload's inputs from ``--seed`` into
   ``.perfbench_work/<workload>/`` (collection files, and for some
   workloads an untrained checkpoint and pseudo-queries);
2. runs whole rounds of the workload, each in a fresh interpreter
   (``worker.py``), until ``--seconds`` have passed, then a few set-up-only
   processes so that set-up time has at least ``SETUP_SAMPLES`` samples;
3. prints a report and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` is the
mean over rounds, the others are medians. On a shared virtual machine CPU
throughput can alternate between fast and slow phases a few seconds long;
the median of two or three rounds jumps between them, a mean averages them.

With ``--trace 1`` rounds alternate untraced and traced, and the metrics
are the per-layer self times and counts of the traced rounds (medians),
the time no layer span covers, and the tracing overhead (median traced
minus median untraced wall time).

Every round uses a fresh process because the package keeps process-global
state (a feature-bucket cache) that makes a second in-process index build
much faster than the first.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH_DIR))

import synth  # noqa: E402
import tracing  # noqa: E402

# The acceptance-matrix encoder: unigrams, a window that ends where the
# collection's hidden topic begins.
ACCEPTANCE_ENCODER = {
    "embed_dim": 16,
    "hash_buckets": 2**16,
    "ngram_orders": [1],
    "max_query_tokens": 16,
    "max_doc_tokens": synth.DOC_TOKEN_CAP,
}
# The package's default encoder.
DEFAULT_ENCODER = {
    "embed_dim": 128,
    "hash_buckets": 2**18,
    "ngram_orders": [1, 2],
    "max_query_tokens": 16,
    "max_doc_tokens": 128,
}
SAMPLING = {"k_views": 10, "top_k": 12, "max_query_tokens": 16}
# Seed of the untrained checkpoints, the same for every workload seed.
INIT_SEED = 0

WORKLOADS = {
    "pipeline-dce-500": {"kind": "pipeline", "docs": 500, "eval_queries": None},
    "serve-dce-5k": {"kind": "serve", "docs": 5000, "eval_queries": 1000},
    "sweep-dce-1k": {"kind": "sweep", "docs": 1000, "eval_queries": None},
}
PIPELINE_EPOCHS = {"pretrain": 4, "finetune": 2}
PIPELINE_BATCH = {"pretrain": 256, "finetune": 32}

SETUP_SAMPLES = 5
# Every run ends well inside three minutes, even when rounds run slow.
DEADLINE_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "mrr_at_10": "ratio",
}
LAYER_UNITS = {
    name: "s" if name.endswith("_s") else "MiB" if name.endswith("_mb") else "B" if name.endswith("bytes") else "count"
    for name in tracing.LAYER_METRICS
}


def _kept_examples(n: int, batch: int) -> int:
    """Examples one epoch trains on: a final batch of one is dropped."""
    return n - 1 if n % batch == 1 else n


def prepare(name: str, seed: int, work: Path) -> Path:
    """Write the workload's inputs and spec; returns the spec path."""
    workload = WORKLOADS[name]
    coll = synth.build(workload["docs"], seed, eval_queries=workload["eval_queries"])
    inputs = {k: str(p) for k, p in synth.write(coll, work / "inputs").items()}
    out_dir = work / "out"
    out_dir.mkdir()
    spec = {
        "kind": workload["kind"],
        "seed": seed,
        "inputs": inputs,
        "out_dir": str(out_dir),
        "sampling": SAMPLING,
    }
    if workload["kind"] == "pipeline":
        spec["config"] = str(_write_pipeline_config(work, inputs, seed))
        spec["epochs"] = PIPELINE_EPOCHS
        spec["train_examples"] = PIPELINE_EPOCHS["pretrain"] * _kept_examples(
            len(coll.docs) * SAMPLING["k_views"], PIPELINE_BATCH["pretrain"]
        ) + PIPELINE_EPOCHS["finetune"] * _kept_examples(
            len(coll.triples), PIPELINE_BATCH["finetune"]
        )
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import mvdr
        from mvdr.corpus import write_generated_queries
        from mvdr.hashing import derive_seed

        encoder = DEFAULT_ENCODER if workload["kind"] == "serve" else ACCEPTANCE_ENCODER
        cfg = mvdr.EncoderConfig(**{**encoder, "ngram_orders": tuple(encoder["ngram_orders"])})
        inputs["checkpoint"] = str(work / "inputs" / "model.ckpt")
        mvdr.save_params(mvdr.init_params(cfg, INIT_SEED), inputs["checkpoint"])
        if workload["kind"] == "sweep":
            corpus = mvdr.load_corpus(inputs["corpus"])
            model = mvdr.fit_qg(corpus, seed=seed)
            sampling = mvdr.SamplingConfig(**SAMPLING)
            generated = mvdr.generate_corpus(
                model, corpus, sampling, seed=derive_seed(seed, "querygen")
            )
            inputs["gen_queries"] = str(work / "inputs" / "gen_queries.jsonl")
            write_generated_queries(generated, inputs["gen_queries"])
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    return spec_path


def _write_pipeline_config(work: Path, inputs: dict, seed: int) -> Path:
    lines = [
        f"corpus = {inputs['corpus']}",
        f"queries = {inputs['queries']}",
        f"qrels = {inputs['qrels']}",
        f"triples = {inputs['triples']}",
        "mode = dce",
        f"seed = {seed}",
        f"views = {SAMPLING['k_views']}",
        f"sampling_top_k = {SAMPLING['top_k']}",
        f"embed_dim = {ACCEPTANCE_ENCODER['embed_dim']}",
        f"hash_buckets = {ACCEPTANCE_ENCODER['hash_buckets']}",
        "ngram_orders = " + ",".join(map(str, ACCEPTANCE_ENCODER["ngram_orders"])),
        f"max_query_tokens = {ACCEPTANCE_ENCODER['max_query_tokens']}",
        f"max_doc_tokens = {ACCEPTANCE_ENCODER['max_doc_tokens']}",
        f"batch_size = {PIPELINE_BATCH['finetune']}",
        f"pretrain_batch_size = {PIPELINE_BATCH['pretrain']}",
        "learning_rate = 0.05",
        f"epochs_pretrain = {PIPELINE_EPOCHS['pretrain']}",
        f"epochs_finetune = {PIPELINE_EPOCHS['finetune']}",
        "analyze = false",
    ]
    path = work / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


class Runner:
    """Starts worker processes and collects their results."""

    def __init__(self, spec_path: Path, work: Path, started: float):
        self.spec_path = spec_path
        self.work = work
        self.started = started
        self.count = 0
        self.errors: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def run(self, *flags: str) -> dict | None:
        self.count += 1
        out = self.work / f"round{self.count}.json"
        spawned = time.monotonic_ns()
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(self.spec_path), str(out), str(spawned), *flags]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, self.remaining())
            )
        except subprocess.TimeoutExpired:
            self.errors.append(f"worker {' '.join(flags)} timed out")
            return None
        if proc.returncode != 0 or not out.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            self.errors.append(f"worker exited with {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads(out.read_text())
        self.errors.extend(result["errors"])
        return result


def _median(values):
    return statistics.median(values) if values else None


def _percentile(values, q):
    """Nearest-rank percentile: p99 of 1,000 samples leaves 10 above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def report(name: str, rounds: list[dict], setups: list[float]) -> None:
    """Print the per-round figures a reader of the run wants to see."""
    print(f"workload {name}: {len(rounds)} rounds, {len(setups)} set-up samples")
    print("  setup_s       " + " ".join(f"{s:.3f}" for s in setups))
    print("  wall_s        " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))
    for section in rounds[0]["sections"] if rounds else ():
        values = " ".join(f"{r['sections'][section]:.3f}" for r in rounds)
        print(f"    {section:<16}{values}")
    if not rounds:
        return
    first = rounds[0]
    if "train_s" in first:
        rates = [r["train_examples"] / r["train_s"] for r in rounds]
        print(f"  train_examples_per_s  {_median(rates):.1f} ({first['train_examples']} examples)")
        print(f"  untrained mrr_at_10   {first['untrained_mrr_at_10']:.4f}")
    if "latencies_s" in first:
        lat = [x for r in rounds for x in r["latencies_s"]]
        build = [r["sections"]["build_save"] - r["sections"]["save"] for r in rounds]
        print(f"  index_rows_per_s      {first['rows'] / _median(build):.0f}")
        print(f"  index_save_s          {_median([r['sections']['save'] for r in rounds]):.3f}")
        print(f"  index_load_s          {_median([r['sections']['load'] for r in rounds]):.3f}")
        print(f"  index_mb              {first['index_bytes'] / 2**20:.2f}")
        loop = _median([r["sections"]["single_queries"] for r in rounds])
        print(f"  search_qps            {len(first['latencies_s']) / loop:.1f}")
        print(f"  search_p50_ms         {_percentile(lat, 0.50) * 1e3:.3f}")
        print(f"  search_p99_ms         {_percentile(lat, 0.99) * 1e3:.3f} ({len(lat)} queries)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "mvdr" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mvdr'}; run from a checkout root", file=sys.stderr)
        return 2
    # Workers import compiled bytecode, as from an installed package, even
    # where PYTHONDONTWRITEBYTECODE keeps them from writing it themselves.
    for directory in (ROOT / "src" / "mvdr", BENCH_DIR):
        compileall.compile_dir(directory, quiet=1)
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_path = prepare(args.workload, args.seed, work)

    runner = Runner(spec_path, work, started)
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    longest = 0.0
    t0 = time.monotonic()
    while not plain or time.monotonic() - t0 < args.seconds:
        pair = ([], ["--trace"]) if args.trace else ([],)
        if runner.remaining() < 1.5 * longest * len(pair):
            break
        for flags in pair:
            begun = time.monotonic()
            result = runner.run(*flags)
            longest = max(longest, time.monotonic() - begun)
            if result is None:
                attempted += 1
                failed += 1
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            setups.append(result["setup_s"])
            (traced if flags else plain).append(result)
        if runner.errors:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES and not runner.errors and runner.remaining() > 10:
        result = runner.run("--setup-only")
        if result is not None:
            setups.append(result["setup_s"])

    mrrs = {r["mrr_at_10"] for r in plain + traced if "mrr_at_10" in r}
    if len(mrrs) > 1:
        runner.errors.append(f"MRR@10 differs between rounds of identical inputs: {sorted(mrrs)}")
    report(args.workload, plain, setups)
    for error in runner.errors:
        print(f"  CHECK FAILED: {error}")

    if args.trace:
        metrics = {
            name: {"value": _median([r["layers"][name] for r in traced]), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        if traced and plain:
            overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain])
            metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
        print("  per-layer (median over traced rounds):")
        for name, metric in metrics.items():
            print(f"    {name:<26}{metric['value']!s:>22} {metric['unit']}")
    else:
        values = {
            "setup_s": _median(setups),
            "wall_s": statistics.fmean([r["wall_s"] for r in plain]) if plain else None,
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "mrr_at_10": _median([r["mrr_at_10"] for r in plain if "mrr_at_10" in r]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    correct = not runner.errors and bool(plain)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
