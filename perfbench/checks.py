"""Reference computations the benchmark checks the program against.

Nothing here calls the package: run files are parsed, ranks scored, the
max-pool search and ROUGE-L recomputed with code of the benchmark's own,
so a fault in the program cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import re

import numpy as np

_WORD_RE = re.compile(r"\w+")

# Scores in run files carry 6 decimals, metrics.csv values too.
RUN_SCORE_TOL = 1e-5
CSV_TOL = 1e-6


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def read_run(path) -> dict[str, list[tuple[str, float]]]:
    """Parse a 6-column run file into query_id -> [(doc_id, score)] by rank."""
    by_query: dict[str, list[tuple[int, str, float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            qid, _, doc_id, rank, score, _ = line.split()
            by_query.setdefault(qid, []).append((int(rank), doc_id, float(score)))
    return {
        qid: [(doc_id, score) for _, doc_id, score in sorted(rows)]
        for qid, rows in by_query.items()
    }


def read_qrels(path) -> dict[str, set[str]]:
    """query_id -> relevant doc_ids (grade >= 1)."""
    relevant: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            qid, _, doc_id, grade = line.split()
            docs = relevant.setdefault(qid, set())
            if int(grade) >= 1:
                docs.add(doc_id)
    return relevant


def read_csv_column(path, key_col: str, value_col: str) -> dict[str, float]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        k, v = header.index(key_col), header.index(value_col)
        rows = [line.rstrip("\n").split(",") for line in handle]
    return {row[k]: float(row[v]) if row[v] else float("nan") for row in rows}


def mrr_at_10(run: dict[str, list[tuple[str, float]]], qrels: dict[str, set[str]]) -> float:
    """MRR@10 over every judged query; a query missing from the run scores 0."""
    total = 0.0
    for qid, relevant in qrels.items():
        for rank, (doc_id, _) in enumerate(run.get(qid, [])[:10], 1):
            if doc_id in relevant:
                total += 1.0 / rank
                break
    return total / len(qrels)


def doc_views(index) -> np.ndarray:
    """The index embeddings as a float64 (n_docs, k_views, dim) tensor.

    Rows are stored document-major (all views of a document together), so
    the reshape holds for a flat row matrix and for a view tensor alike.
    """
    matrix = np.asarray(index.matrix, dtype=np.float64)
    row_doc = getattr(index, "row_doc", None)
    if row_doc is not None:
        require(
            np.array_equal(row_doc, np.repeat(np.arange(index.n_docs), index.k_views)),
            "index rows are not document-major",
        )
    return matrix.reshape(index.n_docs, -1, matrix.shape[-1])


def same_index(a, b) -> bool:
    """Field-by-field equality of two index objects (arrays compared exactly)."""
    fields_a = {k: v for k, v in vars(a).items() if not k.startswith("_")}
    fields_b = {k: v for k, v in vars(b).items() if not k.startswith("_")}
    if fields_a.keys() != fields_b.keys():
        return False
    for key, value in fields_a.items():
        other = fields_b[key]
        if isinstance(value, np.ndarray):
            if value.dtype != other.dtype or not np.array_equal(value, other):
                return False
        elif value != other:
            return False
    return True


class BruteForce:
    """Max-pooled scores of every document, by exhaustive float64 scoring."""

    def __init__(self, index):
        views = doc_views(index)
        self.n_docs = views.shape[0]
        self.flat = views.reshape(-1, views.shape[-1])
        self.doc_ids = np.asarray(index.doc_ids)
        self.position = {doc_id: i for i, doc_id in enumerate(index.doc_ids)}

    def scores(self, query_emb: np.ndarray) -> np.ndarray:
        q = np.asarray(query_emb, dtype=np.float64)
        return (self.flat @ q).reshape(self.n_docs, -1).max(axis=1)

    def compare_top10(self, got: list[tuple[str, float]], query_emb: np.ndarray, what: str) -> None:
        """Check a returned top 10 against the brute-force ranking.

        The top 10 must be the ranking by (-score, doc_id), and each
        returned score must match within the run-file precision. Two
        documents whose scores differ by less than that precision may
        appear in either order, since float rounding can separate or
        join them.
        """
        best = self.scores(query_emb)
        top = np.lexsort((self.doc_ids, -best))[:10]
        want = [(str(self.doc_ids[i]), float(best[i])) for i in top]
        require(len(got) == len(want), f"{what}: {len(got)} results, want {len(want)}")
        require(len({d for d, _ in got}) == len(got), f"{what}: duplicate documents {got}")
        for (doc_id, score), (want_id, want_score) in zip(got, want):
            pos = self.position.get(doc_id)
            require(pos is not None, f"{what}: unknown document {doc_id!r}")
            true_score = float(best[pos])
            require(
                abs(score - true_score) <= RUN_SCORE_TOL,
                f"{what}: {doc_id} scored {score}, brute force {true_score}",
            )
            require(
                doc_id == want_id or abs(true_score - want_score) <= RUN_SCORE_TOL,
                f"{what}: top-10 ids {[d for d, _ in got]} != brute force {[d for d, _ in want]}",
            )


def _lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[-1][-1]


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F1 over lower-cased word tokens."""
    cand = _WORD_RE.findall(candidate.lower())
    ref = _WORD_RE.findall(reference.lower())
    lcs = _lcs(cand, ref)
    if lcs == 0:
        return 0.0
    precision, recall = lcs / len(cand), lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


def max_rouge_l(candidates, references) -> float:
    return max(rouge_l(c, r) for c in candidates for r in references)


def epoch_means(loss_trace_path, epochs: dict[str, int]) -> dict[str, list[float]]:
    """Mean loss per epoch of each stage of a ``step,stage,loss`` trace."""
    losses: dict[str, list[float]] = {}
    with open(loss_trace_path, encoding="utf-8") as handle:
        handle.readline()
        for line in handle:
            _, stage, loss = line.strip().split(",")
            losses.setdefault(stage, []).append(float(loss))
    means = {}
    for stage, values in losses.items():
        n = epochs[stage]
        require(len(values) % n == 0, f"{stage}: {len(values)} steps do not split into {n} epochs")
        per = len(values) // n
        means[stage] = [float(np.mean(values[i * per : (i + 1) * per])) for i in range(n)]
    return means
