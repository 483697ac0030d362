"""Criteria 07-09's training matrix on other seeds or other collections.

    python3 tools/claim.py --seeds 0-4
    python3 tools/claim.py --seeds 100-119 --collections 1-10

``--seeds A-B`` trains on the tests' synthetic collection
(``tests/synthcorpus.py``), with views drawn at seed 77 as in the
acceptance fixture, once per seed A..B. ``--collections A-B`` builds the
500-document collection ``perfbench/synth.py`` makes from each seed s in
A..B, reads it back through the package's loaders, and draws views and
trains from s. Either way each run trains the fixture's arms with its
settings: ``dce`` and ``de`` pretrain for 4 epochs and finetune for 2,
``dce_fine_only`` only finetunes, and ``untrained`` scores a fresh
encoder. The tool prints each run's MRR@10 per arm, then each arm's mean,
the mean gap ``dce - de`` with its count of positive gaps, and the gap
``dce - dce_fine_only`` that criterion 09 checks.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import synth  # noqa: E402  perfbench/synth.py, read only
from synthcorpus import build_synth  # noqa: E402
from test_acceptance import K_VIEWS, MATRIX_ENCODER  # noqa: E402

from mvdr.corpus import load_corpus, load_qrels, load_queries, load_triples  # noqa: E402
from mvdr.encoder import init_params  # noqa: E402
from mvdr.evaluation import mrr_at_k, run_from_ranked_lists  # noqa: E402
from mvdr.hashing import derive_seed  # noqa: E402
from mvdr.index import build_index, search_corpus  # noqa: E402
from mvdr.querygen import SamplingConfig, fit_qg, generate_corpus  # noqa: E402
from mvdr.trainer import TrainConfig, train  # noqa: E402

ARMS = ("untrained", "dce", "de", "dce_fine_only")
# the acceptance fixture's view sampling and training settings
SAMPLING = SamplingConfig(k_views=K_VIEWS, top_k=12, max_query_tokens=16)
GATE_VIEWS_SEED = 77
# (mode, pretraining epochs, finetuning epochs) per trained arm
TRAINED = {"dce": ("dce", 4, 2), "de": ("de", 4, 2), "dce_fine_only": ("dce", 0, 2)}


def matrix_run(docs, queries, qrels, triples, generated, seed: int) -> dict[str, float]:
    """MRR@10 of every arm, trained and initialised from ``seed``."""

    def evaluate(params, mode):
        index = build_index(params, docs, mode=mode, generated=generated if mode == "dce" else None)
        ranked = search_corpus(params, index, queries, 10)
        return mrr_at_k(run_from_ranked_lists(ranked), qrels, k=10).aggregate

    row = {"untrained": evaluate(init_params(MATRIX_ENCODER, derive_seed(seed, "init")), "dce")}
    for arm, (mode, epochs_pretrain, epochs_finetune) in TRAINED.items():
        params = init_params(MATRIX_ENCODER, derive_seed(seed, "init"))
        cfg = TrainConfig(
            mode=mode,
            batch_size=32,
            pretrain_batch_size=256,
            learning_rate=0.05,
            epochs_pretrain=epochs_pretrain,
            epochs_finetune=epochs_finetune,
            seed=derive_seed(seed, "train"),
        )
        train(params, triples, cfg, corpus=docs, generated=generated)
        row[arm] = evaluate(params, mode)
    return row


def gate_runs(seeds: range) -> dict[int, dict[str, float]]:
    """The acceptance fixture's matrix on ``seeds``."""
    coll = build_synth()
    generated = generate_corpus(fit_qg(coll.docs, seed=GATE_VIEWS_SEED), coll.docs, SAMPLING, seed=GATE_VIEWS_SEED)
    return {s: matrix_run(coll.docs, coll.queries, coll.qrels, coll.triples, generated, s) for s in seeds}


def collection_runs(seeds: range) -> dict[int, dict[str, float]]:
    """One matrix run on each ``perfbench/synth.py`` collection in ``seeds``."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for s in seeds:
            paths = synth.write(synth.build(500, s), Path(tmp) / str(s))
            docs = load_corpus(paths["corpus"])
            generated = generate_corpus(fit_qg(docs, seed=s), docs, SAMPLING, seed=s)
            runs[s] = matrix_run(
                docs,
                load_queries(paths["queries"]),
                load_qrels(paths["qrels"]),
                load_triples(paths["triples"]),
                generated,
                s,
            )
    return runs


def summary(runs: dict[int, dict[str, float]]) -> dict[str, float]:
    """Each arm's mean MRR@10, and the ``dce - de`` gaps."""
    out = {arm: statistics.fmean(row[arm] for row in runs.values()) for arm in ARMS}
    gaps = [row["dce"] - row["de"] for row in runs.values()]
    out["gap"] = statistics.fmean(gaps)
    out["positive"] = sum(g > 0 for g in gaps)
    out["smallest_gap"] = min(gaps)
    return out


def report(title: str, runs: dict[int, dict[str, float]]) -> None:
    print(title)
    print("run  " + "  ".join(f"{arm:>13}" for arm in ARMS) + "        gap")
    for s, row in runs.items():
        print(f"{s:>3}  " + "  ".join(f"{row[arm]:13.3f}" for arm in ARMS) + f"  {row['dce'] - row['de']:+9.3f}")
    means = summary(runs)
    print("mean " + "  ".join(f"{means[arm]:13.3f}" for arm in ARMS) + f"  {means['gap']:+9.3f}")
    print(
        f"gap dce - de: mean {means['gap']:+.3f}, positive {means['positive']}/{len(runs)}, "
        f"smallest {means['smallest_gap']:+.3f}; "
        f"gap dce - dce_fine_only (criterion 09): {means['dce'] - means['dce_fine_only']:+.3f}\n"
    )


def seed_range(text: str) -> range:
    """``A-B`` (or ``A``) as the range A..B."""
    try:
        bounds = [int(part) for part in text.split("-")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {text!r}") from None
    if len(bounds) > 2 or bounds[0] > bounds[-1]:
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return range(bounds[0], bounds[-1] + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, help="training seeds on the tests' collection, A-B")
    parser.add_argument("--collections", type=seed_range, help="perfbench/synth.py collection seeds, A-B")
    args = parser.parse_args(argv)
    if args.seeds is None and args.collections is None:
        parser.error("give --seeds, --collections or both")
    if args.seeds is not None:
        report(f"seeds {args.seeds[0]}-{args.seeds[-1]}", gate_runs(args.seeds))
    if args.collections is not None:
        report(f"perfbench/synth.py collections {args.collections[0]}-{args.collections[-1]}", collection_runs(args.collections))
    return 0


if __name__ == "__main__":
    sys.exit(main())
