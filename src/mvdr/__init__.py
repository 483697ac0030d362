"""Multi-view dense retrieval.

Documents are indexed as several query-informed views: each document is
encoded jointly with a handful of generated pseudo-queries, search scores
a query against every view, and per-document scores are pooled by max.
The package covers the whole desk-scale loop: corpus I/O, query
generation, a hashed n-gram encoder trained contrastively (hand-rolled
gradients, no autodiff), an exact flat index, standard ranking metrics,
and query-set quality/diversity analysis.
"""

__version__ = "0.1.0"

from .corpus import (
    Document,
    GeneratedQuerySet,
    Qrels,
    Query,
    TrainingTriple,
    load_corpus,
    load_generated_queries,
    load_qrels,
    load_queries,
    load_triples,
    normalize_text,
    tokenize,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    init_params,
    load_params,
    save_params,
)
from .evaluation import Run, compute_metric, load_run, mrr_at_k, ndcg_at_k, recall_at_k, write_run
from .index import FlatIndex, RankedList, build_index, load_index, save_index, search
from .querygen import QGModel, SamplingConfig, fit_qg, generate, generate_corpus
from .trainer import TrainConfig, contrastive_loss, train

__all__ = [
    "Document",
    "EncoderConfig",
    "EncoderParams",
    "FlatIndex",
    "GeneratedQuerySet",
    "QGModel",
    "Qrels",
    "Query",
    "RankedList",
    "Run",
    "SamplingConfig",
    "TrainConfig",
    "TrainingTriple",
    "build_index",
    "compute_metric",
    "contrastive_loss",
    "fit_qg",
    "generate",
    "generate_corpus",
    "init_params",
    "load_corpus",
    "load_generated_queries",
    "load_index",
    "load_params",
    "load_qrels",
    "load_queries",
    "load_run",
    "load_triples",
    "mrr_at_k",
    "ndcg_at_k",
    "normalize_text",
    "recall_at_k",
    "save_index",
    "save_params",
    "search",
    "tokenize",
    "train",
    "write_run",
]
