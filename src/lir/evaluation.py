"""Evaluation harnesses: cosine retrieval with MAP, zero-shot transfer
classification with a from-scratch logistic classifier, and PCA score export.

Similarity is cosine throughout (rank metrics are then invariant to the norm
shrinkage removal causes). Ranks are those of einsum scores, whose bits depend
neither on a candidate's position nor on the BLAS thread count; ties break by
ascending id, so rankings and reports are permutation-invariant. A dataset
evaluation ranks with gemm scores where einsum scores of the relevant rows
certify them, and takes exact AP from those ranks, rounded once to float.
Harnesses score, train and project on EmbeddingTable rows (records are
converted once on the way in) and remove components as core's lending rule
says: on a lent table's own matrix, else on a copy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import linalg
from .core import (
    ComponentBasis,
    EmbeddingRecord,
    EmbeddingTable,
    EvalReport,
    RetrievalDataset,
    TransferReport,
    _table_of,
    corpus_fingerprint,
)
from .errors import (
    _POSITIVE,
    ConfigError,
    DatasetError,
    DegenerateLabels,
    DimensionError,
    InvalidMatrix,
    NoRelevantError,
    NumericalFailure,
    _check_choice,
    _check_int,
    _check_name,
    _check_real,
    _check_type,
    _mapping,
    _real_array,
)
from .removal import DEFAULT_MODE, RemovalMode, _check_removal, _remove_rows

_BLOCK_SCORES = 1 << 19  # float64 scores per gemm block (4 MB); ranks do not depend on it
_NORM_BLOCK = 1 << 16  # float64 squares per norm block (512 kB); norms do not depend on it
_AP_BITS = 128  # fraction bits of the fixed-point AP sum


@dataclass(frozen=True)
class RankedList:
    """Candidate ids ordered by descending similarity, ties by ascending id."""

    query_id: str
    candidate_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidate_ids", tuple(self.candidate_ids))


def _features(table: EmbeddingTable, bases, mode: RemovalMode) -> np.ndarray:
    """The table's rows, each with its own language's components removed
    (strict: uncovered languages raise): on the table's own matrix while
    core._lent_rows lends it, else on a copy."""
    if bases is None:
        return table.rows
    rows = table.rows if table.rows.flags.writeable else table.rows.copy()
    _remove_rows(table.ids, table.langs, rows, bases, mode)
    return rows


def _candidate_stack(table: EmbeddingTable, bases, mode: RemovalMode):
    """The rows of a non-empty candidate table in table order, removed as in
    _features, and their norms, taken _NORM_BLOCK squares at a time."""
    cmat = _features(table, bases, mode)
    step = max(1, _NORM_BLOCK // cmat.shape[1])
    with np.errstate(over="ignore"):
        cnorms = [np.linalg.norm(cmat[i : i + step], axis=1) for i in range(0, len(cmat), step)]
    return cmat, np.concatenate(cnorms)


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each row's position in ascending id order."""
    ranks = np.empty(len(ids), np.intp)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def _cosine_scores(cmat: np.ndarray, cnorms: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Cosine of vec against every row of cmat; 0 where either norm is 0.

    These scores define every rank. einsum rounds every row alike, so a
    score's bits depend neither on the row's position in the stack nor on the
    BLAS thread count; gemm promises neither (see _certified_positions). Where a
    plain norm or dot product overflows, the score is recomputed from the row
    and vec each divided by its largest magnitude; no other score changes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sims = np.einsum("ij,j->i", cmat, vec)
        denom = cnorms * np.linalg.norm(vec)
        scores = np.divide(sims, denom, out=np.zeros_like(sims), where=denom > 0.0)
        redo = np.flatnonzero(~(np.isfinite(sims) & np.isfinite(denom)))
        if redo.size:  # a zero row or vec turns NaN here, and NaN still scores 0
            rows = cmat[redo] / np.max(np.abs(cmat[redo]), axis=1, keepdims=True)
            unit = vec / np.max(np.abs(vec))
            sims = np.einsum("ij,j->i", rows, unit)
            denom = np.linalg.norm(rows, axis=1) * np.linalg.norm(unit)
            scores[redo] = np.divide(sims, denom, out=np.zeros_like(sims), where=denom > 0.0)
    return scores


def _relevant_positions(
    scores: np.ndarray, relevant: np.ndarray, id_rank: np.ndarray
) -> list[int]:
    """Sorted 1-based ranks of the rows `relevant` when rows are ordered by
    (-score, id rank): a row follows every higher score and every equal score
    whose id ranks lower (NaN sorts last, as in np.argsort)."""
    keys = -scores
    ordered = np.sort(keys)
    rel_keys = keys[relevant]
    above = np.searchsorted(ordered, rel_keys, "left")
    ties = np.searchsorted(ordered, rel_keys, "right") - above
    positions = above + 1
    for m in np.flatnonzero(ties > 1):
        key = rel_keys[m]
        equal = np.isnan(keys) if np.isnan(key) else keys == key
        positions[m] += np.count_nonzero(equal & (id_rank < id_rank[relevant[m]]))
    return sorted(positions.tolist())


def _certified_positions(sims, cmat, cnorms, vec, relevant) -> Optional[list[int]]:
    """_relevant_positions of the einsum scores from gemm dot products `sims`
    of vec with the rows of cmat (overwritten with their sorted scores), or
    None where they certify not every rank.

    A d-term dot product errs by at most g_d|x||y|, g_d = du/(1 - du),
    u = 2^-53, in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1). Both kernels divide by D = cnorms |vec|; norms
    of 0 or in [2^-400, 2^400] (the caller checks cnorms) keep |x||y| <=
    D(1 + O(du)) despite underflow, so with the division scores differ by at most
    (2d + 2)u(1 + O(du)). delta = 4(d + 1)u also covers forming key -/+
    delta. A band of +/- delta around a relevant key that holds only its row
    (and finite end keys) leaves every other row ordered as einsum orders it.
    """
    qnorm = np.linalg.norm(vec)
    if not 2.0**-400 <= qnorm <= 2.0**400:
        return None
    if cnorms.all():
        sims /= cnorms * qnorm
    else:  # a zero-norm row scores 0, whatever its (underflowed) dot product
        np.divide(sims, cnorms * qnorm, out=sims, where=cnorms > 0.0)
        sims[cnorms == 0.0] = 0.0
    sims.sort()
    if not np.isfinite(sims[[0, -1]]).all():  # NaN sorts last
        return None
    # Sorted needles, from the relevant rows _NORM_BLOCK values at a time (einsum
    # rounds each row alike); the rows scoring above a relevant score s are those above s + delta.
    step = max(1, _NORM_BLOCK // cmat.shape[1])
    parts = [relevant[i : i + step] for i in range(0, len(relevant), step)]
    scores = np.concatenate([_cosine_scores(cmat[part], cnorms[part], vec) for part in parts])
    scores.sort()
    delta = 4 * (cmat.shape[1] + 1) * 2.0**-53
    hi = np.searchsorted(sims, scores + delta, "right")
    if np.any(hi - np.searchsorted(sims, scores - delta, "left") != 1):
        return None
    return (len(sims) + 1 - hi)[::-1].tolist()


def _gemm_rows(qmat: np.ndarray, cmat: np.ndarray):
    """The rows of qmat @ cmat.T, from blocks of at most _BLOCK_SCORES scores.
    Each row is a copy, so a block is freed before the next one is made."""
    step = max(1, _BLOCK_SCORES // len(cmat))
    for i in range(0, len(qmat), step):
        yield from map(np.copy, qmat[i : i + step] @ cmat.T)


def _fixed_point_sum(positions: Sequence[int]) -> int:
    """t = sum over k of floor(k 2^_AP_BITS / p_k), for sorted ranks p_k >= k.

    The ranks are divided schoolbook-style on uint64 arrays, at most 32 bits
    at a time: each step shifts the remainders (below p_k < 2^32, as 2^32
    candidate rows cannot be held) left into the next digit, so no value
    reaches 2^64, and each digit's quotients sum to below R 2^32 < 2^64. The
    digit sums join in Python integers.
    """
    p = np.asarray(positions, dtype=np.uint64)
    q, rem = np.divmod(np.arange(1, len(p) + 1, dtype=np.uint64), p)
    t = int(q.sum())
    for done in range(0, _AP_BITS, 32):
        shift = min(32, _AP_BITS - done)
        q, rem = np.divmod(rem << shift, p)
        t = (t << shift) + int(q.sum())
    return t


def _ap_from_positions(positions: Sequence[int]) -> float:
    """Exact AP from the sorted ranks p_1 < ... < p_R of the relevant items.

    With M = _AP_BITS and t = _fixed_point_sum(positions), the mean of k/p_k
    is in [t, t + R) / (R 2^M). If both ends round (int/int rounds correctly)
    to one float, so does the mean; else it is one integer ratio over lcm(p).
    """
    r, scale = len(positions), len(positions) << _AP_BITS
    t = _fixed_point_sum(positions)
    if t / scale == (t + r) / scale:
        return t / scale
    d = math.lcm(*positions)
    return sum(k * (d // p) for k, p in enumerate(positions, start=1)) / (d * r)


def average_precision(ranking: RankedList, relevant: Iterable[str]) -> float:
    """AP = mean over relevant items of precision at that item's rank.

    Computed exactly in rational arithmetic and converted to float at the
    end. The relevant set must be non-empty and contained in the ranking.
    """
    rel = frozenset(relevant)
    if not rel:
        raise NoRelevantError(f"query {ranking.query_id!r}: empty relevant set")
    missing = rel.difference(ranking.candidate_ids)
    if missing:
        raise DatasetError(
            f"query {ranking.query_id!r}: relevant ids missing from ranking: "
            f"{sorted(missing)[:5]}"
        )
    positions = [pos for pos, cid in enumerate(ranking.candidate_ids, start=1) if cid in rel]
    # A ranking that repeats an id is scored on its first len(rel) hits.
    return _ap_from_positions(positions[: len(rel)])


def _effective_rank(bases: Optional[Mapping[str, ComponentBasis]]) -> int:
    ranks = sorted({b.rank for b in (bases or {}).values()})
    if len(ranks) > 1:
        raise ConfigError(f"bases carry mixed ranks {ranks}; refit every language at one rank")
    return ranks[0] if ranks else 0


def evaluate_retrieval(
    dataset: RetrievalDataset,
    bases: Optional[Mapping[str, ComponentBasis]] = None,
    *,
    mode: RemovalMode = DEFAULT_MODE,
) -> EvalReport:
    """Cosine-retrieval MAP over a dataset, optionally after removal.

    When bases are supplied, every query and candidate is transformed with
    its own language's basis (strict: uncovered languages raise). The report
    groups per-language MAP by the query's language; overall_map is the mean
    of per-query AP values. The config block records mode, the bases' one rank
    (0 without bases), similarity, and fingerprints of the raw inputs, so a
    run is reproducible and a rank-0 run serializes identically to a no-removal run.
    """
    _check_type("dataset", dataset, RetrievalDataset)
    _check_removal({} if bases is None else bases, mode)
    queries, candidates = dataset.queries, dataset.candidates
    config = {
        "candidates_fingerprint": corpus_fingerprint(candidates),
        "mode": mode.value,
        "queries_fingerprint": corpus_fingerprint(queries),
        "rank": _effective_rank(bases),
        "similarity": "cosine",
    }
    if queries.rows is candidates.rows:  # one matrix behind both is removed once, the queries on a copy
        view = queries.rows.view()
        view.flags.writeable = False
        queries = EmbeddingTable._of_checked(queries.ids, queries.langs, view)
    qmat = _features(queries, bases, mode)
    cmat, cnorms = _candidate_stack(candidates, bases, mode)
    # Query k's relevant rows of cmat are flat[ends[k]:ends[k + 1]].
    flat, ends = dataset.relevant_rows, dataset.relevant_ends
    id_rank = None  # built when a query first takes the exact path
    aps: list[float] = []
    by_lang: dict[str, list[float]] = {}
    fast = np.all((cnorms == 0.0) | ((2.0**-400 <= cnorms) & (cnorms <= 2.0**400)))
    blocks = _gemm_rows(qmat, cmat) if fast else itertools.repeat(None)
    with np.errstate(over="ignore", invalid="ignore"):  # huge rows take the exact path
        for k, (lang, qvec, sims) in enumerate(zip(queries.langs, qmat, blocks)):
            relevant = flat[ends[k] : ends[k + 1]]
            positions = _certified_positions(sims, cmat, cnorms, qvec, relevant) if fast else None
            if positions is None:  # the exact path: einsum scores for every row
                id_rank = _id_ranks(candidates.ids) if id_rank is None else id_rank
                scores = _cosine_scores(cmat, cnorms, qvec)
                positions = _relevant_positions(scores, relevant, id_rank)
            ap = _ap_from_positions(positions)
            aps.append(ap)
            by_lang.setdefault(lang, []).append(ap)
    return EvalReport(
        overall_map=math.fsum(aps) / len(aps),
        per_language_map={lang: math.fsum(v) / len(v) for lang, v in sorted(by_lang.items())},
        query_count=len(queries),
        config=config,
    )


@dataclass(frozen=True)
class LogisticConfig:
    """Full-batch gradient-descent settings for the logistic classifier."""

    learning_rate: float = 0.5
    epochs: int = 300
    l2: float = 0.0

    def __post_init__(self):
        rate = _check_real("learning_rate", self.learning_rate, _POSITIVE, "positive and finite")
        epochs = _check_int("epochs", self.epochs, message="epochs must be non-negative")
        l2 = _check_real("l2", self.l2, 0.0, "non-negative and finite")
        for name, value in (("learning_rate", rate), ("epochs", epochs), ("l2", l2)):
            object.__setattr__(self, name, value)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, bit for bit."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def _as_labels(labels, count: int) -> np.ndarray:
    y = _real_array("labels", labels, 1, ConfigError, finite=False)  # NaN is not 0 or 1
    if y.size != count:
        raise DimensionError(f"expected {count} labels, got shape {y.shape}")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ConfigError("labels must be 0 or 1")
    return y


def _as_weights(weights, dim: int) -> np.ndarray:
    w = _real_array("weights", weights, 1, DimensionError)
    if w.size != dim + 1:
        raise DimensionError(f"weights must have length {dim + 1}, got {w.size}")
    return w


def _logits(x: np.ndarray, w: np.ndarray, epoch: int = 0) -> np.ndarray:
    """x @ w[:-1] + w[-1]; an overflowed logit, whose sign is unreliable,
    raises NumericalFailure (at the given training epoch)."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ w[:-1] + w[-1]
    if not np.isfinite(z).all():
        raise NumericalFailure("logistic logits overflow: the weights are too large", epoch)
    return z


def train_logistic(
    features, labels, config: LogisticConfig = LogisticConfig()
) -> np.ndarray:
    """Train a binary logistic classifier by full-batch gradient descent.

    Zero initialization, exactly `config.epochs` iterations, mean-based
    gradients (duplicating every row leaves the result unchanged), optional
    L2 penalty on the weights but not the bias. Returns a (d+1)-vector with
    the bias last. Deterministic by construction. Weights or logits that
    overflow raise NumericalFailure.
    """
    _check_type("config", config, LogisticConfig)
    x = _real_array("features", features, 2, InvalidMatrix, (0, 1))
    n, d = x.shape
    y = _as_labels(labels, n)
    if n < 2 or y.min() == y.max():
        raise DegenerateLabels("training labels must contain both classes")
    w = np.zeros(d + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            resid = _sigmoid(_logits(x, w, epoch)) - y
            w[:d] -= config.learning_rate * (x.T @ resid / n + config.l2 * w[:d])
            w[d] -= config.learning_rate * float(resid.mean())
    if not np.isfinite(w).all():
        raise NumericalFailure("logistic weights are not finite", config.epochs)
    return w


def predict_logistic(features, weights: np.ndarray) -> np.ndarray:
    """Predicted 0/1 labels: class 1 iff the logit is non-negative."""
    x = _real_array("features", features, 2, InvalidMatrix, (0, 1))
    return (_logits(x, _as_weights(weights, x.shape[1])) >= 0.0).astype(np.int64)


def logistic_loss(features, labels, weights: np.ndarray, l2: float = 0.0) -> float:
    """Mean log-loss plus (l2/2)||w||^2 over the weights (bias unpenalized)."""
    l2 = _check_real("l2", l2, 0.0, "non-negative and finite")
    x = _real_array("features", features, 2, InvalidMatrix, (0, 1))
    y = _as_labels(labels, x.shape[0])
    w = _as_weights(weights, x.shape[1])
    z = x @ w[:-1] + w[-1]
    per_example = y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)
    return float(per_example.mean() + 0.5 * l2 * float(w[:-1] @ w[:-1]))


LabeledRecords = tuple[Sequence[EmbeddingRecord] | EmbeddingTable, Sequence[int]]


def evaluate_transfer(
    train_records: Sequence[EmbeddingRecord] | EmbeddingTable,
    train_labels: Sequence[int],
    tests: Mapping[str, LabeledRecords],
    bases: Optional[Mapping[str, ComponentBasis]] = None,
    *,
    mode: RemovalMode = DEFAULT_MODE,
    placement: str = "both",
    logistic: LogisticConfig = LogisticConfig(),
) -> TransferReport:
    """Zero-shot transfer: train on one language, evaluate accuracy per language.

    The classifier is trained once on the (optionally transformed) train set
    and applied unchanged everywhere. With bases supplied, test features are
    always transformed with their own language's basis; train features are
    transformed too when placement="both" and left raw when placement="eval".
    The report's average is the unweighted mean over evaluated languages; its
    config records the bases' one rank, as evaluate_retrieval's does.

    tests may load lazily: each language's value is looked up once, in sorted
    language order, and no longer referenced here once it is evaluated, so
    a mapping that decodes a test set on lookup is held one set at a time.
    So a value is checked to be a (records, labels) pair only on its lookup,
    after training; every other argument is checked before any work starts.
    """
    _check_removal({} if bases is None else bases, mode)
    _check_choice("placement", placement, ("both", "eval"))
    _check_type("logistic", logistic, LogisticConfig)
    train = _table_of("train_records", train_records)
    if not len(train):
        raise DatasetError("transfer needs a non-empty training set")
    langs = set(train.langs)
    if len(langs) > 1:
        raise ConfigError(f"training set spans multiple languages: {sorted(langs)}")
    train_lang = train.langs[0]
    test_langs = sorted(_check_name("tests key", lang) for lang in _mapping("tests", tests))
    if not test_langs:
        raise ConfigError("transfer needs at least one test language")
    y_train = _as_labels(train_labels, len(train))
    if y_train.min() == y_train.max():
        raise DegenerateLabels("training labels must contain both classes")

    config = {
        "epochs": logistic.epochs,
        "l2": logistic.l2,
        "learning_rate": logistic.learning_rate,
        "mode": mode.value,
        "placement": placement,
        "rank": _effective_rank(bases),
        "train_count": len(train),
        "train_fingerprint": corpus_fingerprint(train),
    }

    fit_bases = bases if placement == "both" else None
    train_x = _features(train, fit_bases, mode)
    weights = train_logistic(train_x, y_train, logistic)

    per_lang: dict[str, float] = {}
    test_fps: dict[str, str] = {}
    for lang in test_langs:
        pair = tests[lang]
        try:
            recs, labels = pair
        except (TypeError, ValueError):
            raise ConfigError(f"tests[{lang!r}] must be a (records, labels) pair") from None
        recs = _table_of(f"tests[{lang!r}][0]", recs)
        if not len(recs):
            raise DatasetError(f"test set for {lang!r} is empty")
        if recs.dim != train.dim:
            raise DimensionError(f"test set {lang!r} has dimension {recs.dim}, train has {train.dim}")
        y = _as_labels(labels, len(recs))
        # The training table tested too (or a table over its matrix with its ids and
        # tags, which stands for it): reuse its fingerprint and features.
        same = recs is train or (recs.rows is train.rows and recs.ids == train.ids
                                 and recs.langs == train.langs)
        test_fps[lang] = config["train_fingerprint"] if same else corpus_fingerprint(recs)
        reuse = same and fit_bases is bases
        x = train_x if reuse else _features(recs, bases, mode)
        preds = predict_logistic(x, weights)
        per_lang[lang] = float(np.mean(preds == y.astype(np.int64)))
        del pair, recs, labels, y, x, preds  # a lazily loaded test set is freed before the next one
    config["test_fingerprints"] = test_fps

    return TransferReport(
        per_language_accuracy=per_lang,
        average=math.fsum(per_lang.values()) / len(per_lang),
        train_language=train_lang,
        config=config,
    )


def export_projection(
    records: Sequence[EmbeddingRecord] | EmbeddingTable, k: int
) -> list[tuple[str, str, tuple[float, ...]]]:
    """PCA scores for a record collection or table, one (id, lang, scores) row each.

    All rows are taken jointly (all languages together) and projected onto
    the top-k principal directions of the centered matrix.
    """
    table = EmbeddingTable.from_records(records)
    scores = linalg._pca_scores(table.rows.copy(), k)
    return list(zip(table.ids, table.langs, map(tuple, scores.tolist())))

