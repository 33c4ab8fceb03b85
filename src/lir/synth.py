"""Synthetic multilingual embedding generator with a controllable language bias.

Construction: every topic is a uniformly random direction of length
`semantic_scale`, shared across languages. Every language gets an offset of
length `bias_scale` along a unit direction orthogonal to the whole topic span
and to the other languages' offsets. A row for (language, topic) is

    offset + topic + per-coordinate Gaussian noise (std = noise_scale)

so the per-language dominant direction is, by construction, exactly the
language's offset once bias dominates the semantic scale. The corpus is one
table whose rows run language, then topic, then index, so each language is a
contiguous block. Rows with index 0 in their (language, topic) group are
designated queries; the qrels of a query mark all other same-topic rows,
across all languages, as relevant.

Randomness comes from numpy's PCG64 bit generator seeded explicitly, so a
seed reproduces the same dataset on every platform; OS entropy is never used.
The draw order is topics, then raw offsets, then noise, and bias/skew only
rescale already-drawn vectors, so changing them never shifts the stream.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .core import EmbeddingRecord, EmbeddingTable, RetrievalDataset, _frozen_array
from .errors import ConfigError

TOPIC_PARITY = "topic-parity"


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; everything is validated up front."""

    languages: tuple[str, ...]
    topics: int
    per_topic_per_lang: int
    dim: int
    bias_scale: float
    semantic_scale: float = 1.0
    noise_scale: float = 0.1
    seed: int = 0
    label_rule: Optional[str] = None
    skew: float = 0.0

    def __post_init__(self):
        codes = () if isinstance(self.languages, (str, bytes)) else self.languages  # not "ab" as a, b
        langs = tuple(str(code).strip() for code in codes)
        if not langs or any(not code for code in langs):
            raise ConfigError("languages must be a non-empty list of non-blank codes")
        if len(set(langs)) != len(langs):
            raise ConfigError("language codes must be unique")
        object.__setattr__(self, "languages", langs)
        for name in ("topics", "per_topic_per_lang", "dim"):
            if type(getattr(self, name)) is not int:  # not bool, float or a numpy scalar
                raise ConfigError(f"{name} must be an integer")
        if self.topics < 2:
            raise ConfigError("need at least 2 topics")
        if self.per_topic_per_lang < 1:
            raise ConfigError("per_topic_per_lang must be >= 1")
        if self.dim < len(langs) + 2:
            raise ConfigError(
                f"dim must be >= languages + 2 = {len(langs) + 2} to leave room "
                "for orthogonal offsets plus semantic directions"
            )
        # The topics span min(topics, dim) directions, leaving too few for the offsets.
        if self.topics + len(langs) > self.dim:
            raise ConfigError(
                "cannot orthogonalize language offsets against the topic span; "
                "increase dim or reduce topics"
            )
        for name in ("semantic_scale", "bias_scale", "noise_scale", "skew"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number")
            if not -sys.float_info.max <= value <= sys.float_info.max:  # also NaN and 10**400
                raise ConfigError(f"{name} must be finite")
        if not self.semantic_scale > 0.0:
            raise ConfigError("semantic_scale must be positive")
        if self.bias_scale < 0.0:
            raise ConfigError("bias_scale must be non-negative")
        if self.noise_scale < 0.0:
            raise ConfigError("noise_scale must be non-negative")
        if self.skew < 0.0:
            raise ConfigError("skew must be non-negative")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2^64)")
        if self.label_rule not in (None, TOPIC_PARITY):
            raise ConfigError(f"unknown label_rule {self.label_rule!r}")


@dataclass(frozen=True)
class SynthResult:
    """The generated corpus as one table, plus the ground truth that produced
    it. The record views (`records`, `queries`, `candidates`, `records_for`)
    are built from the table when called."""

    table: EmbeddingTable
    query_ids: frozenset[str]
    qrels: Mapping[str, frozenset[str]]
    labels: Optional[Mapping[str, int]]
    ground_truth: Mapping[str, np.ndarray]
    config: SynthConfig

    def __post_init__(self):
        object.__setattr__(self, "query_ids", frozenset(self.query_ids))
        object.__setattr__(self, "qrels", MappingProxyType(dict(self.qrels)))
        if self.labels is not None:
            object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        truth = {lang: _frozen_array(vec) for lang, vec in dict(self.ground_truth).items()}
        object.__setattr__(self, "ground_truth", MappingProxyType(truth))

    def _records(self, keep) -> tuple[EmbeddingRecord, ...]:
        """Records of the rows whose (id, lang) `keep` accepts, in table order."""
        rows = zip(self.table.ids, self.table.langs, self.table.rows)
        return tuple(EmbeddingRecord(*row) for row in rows if keep(row[0], row[1]))

    @property
    def records(self) -> tuple[EmbeddingRecord, ...]:
        return self._records(lambda rid, lang: True)

    @property
    def queries(self) -> tuple[EmbeddingRecord, ...]:
        return self._records(lambda rid, lang: rid in self.query_ids)

    @property
    def candidates(self) -> tuple[EmbeddingRecord, ...]:
        return self._records(lambda rid, lang: rid not in self.query_ids)

    def records_for(self, lang: str) -> tuple[EmbeddingRecord, ...]:
        return self._records(lambda rid, rlang: rlang == lang)

    def retrieval_dataset(self) -> RetrievalDataset:
        is_query = np.array([rid in self.query_ids for rid in self.table.ids], dtype=bool)
        return RetrievalDataset(
            queries=_take(self.table, np.flatnonzero(is_query)),
            candidates=_take(self.table, np.flatnonzero(~is_query)),
            qrels=dict(self.qrels),
        )


def _take(table: EmbeddingTable, index: slice | np.ndarray) -> EmbeddingTable:
    """The table of the given rows of table (none twice), in index order, not
    checked again. A slice (of step 1) gives a read-only view of table's
    matrix, an index array a read-only copy of its rows."""
    if isinstance(index, slice):
        return EmbeddingTable._of_checked(table.ids[index], table.langs[index], table.rows[index])
    rows, pick = table.rows[index], index.tolist()
    rows.flags.writeable = False
    ids, langs = (tuple(map(column.__getitem__, pick)) for column in (table.ids, table.langs))
    return EmbeddingTable._of_checked(ids, langs, rows)


# Kept out of linalg._gram_schmidt, like generate's offset loop: it would change a seed's bytes.
def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row span via two-pass Gram-Schmidt."""
    scale = float(np.max(np.linalg.norm(rows, axis=1))) if rows.size else 0.0
    kept: list[np.ndarray] = []
    for row in rows:
        vec = row.copy()
        for _ in range(2):
            for q in kept:
                vec -= (q @ vec) * q
        nrm = float(np.linalg.norm(vec))
        if nrm > 1e-10 * max(scale, 1.0):
            kept.append(vec / nrm)
    if not kept:
        return np.zeros((0, rows.shape[1]))
    return np.stack(kept)


def generate(config: SynthConfig) -> SynthResult:
    """Generate a deterministic synthetic multilingual embedding corpus."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    langs = config.languages
    n_lang, n_topic, per, dim = len(langs), config.topics, config.per_topic_per_lang, config.dim

    raw_topics = rng.standard_normal((n_topic, dim))
    topic_norms = np.linalg.norm(raw_topics, axis=1)
    if np.any(topic_norms < 1e-12):
        raise ConfigError("degenerate topic draw; use a different seed")
    topics = config.semantic_scale * raw_topics / topic_norms[:, None]

    raw_offsets = rng.standard_normal((n_lang, dim))
    noise = config.noise_scale * rng.standard_normal((n_lang * n_topic * per, dim))

    topic_basis = _orthonormal_rows(topics)
    directions: list[np.ndarray] = []
    for i in range(n_lang):
        vec = raw_offsets[i].copy()
        for _ in range(2):
            vec -= topic_basis.T @ (topic_basis @ vec)
            for prev in directions:
                vec -= (prev @ vec) * prev
        nrm = float(np.linalg.norm(vec))
        if nrm < 1e-8:
            raise ConfigError(
                "cannot orthogonalize language offsets against the topic span; "
                "increase dim or reduce topics"
            )
        directions.append(vec / nrm)

    if config.skew > 0.0:
        # Robustness knob: tilt each offset back toward the topic span so the
        # exact-orthogonality premise no longer holds.
        tilted = []
        for i, direction in enumerate(directions):
            in_span = topic_basis.T @ (topic_basis @ raw_offsets[i])
            nrm = float(np.linalg.norm(in_span))
            if nrm > 0.0:
                direction = direction + config.skew * in_span / nrm
                direction = direction / float(np.linalg.norm(direction))
            tilted.append(direction)
        directions = tilted

    offsets = {lang: config.bias_scale * directions[i] for i, lang in enumerate(langs)}

    # The noise buffer becomes the corpus. Rows run language, then topic, then index (the
    # draw order); each is (offset + topic) + noise, rounded as a row summed alone would be.
    cube = noise.reshape(n_lang, n_topic, per, dim)
    np.add((np.stack(list(offsets.values()))[:, None] + topics)[:, :, None], cube, out=cube)
    noise.flags.writeable = False
    tails = [f"-t{t:04d}-{j:04d}" for t in range(n_topic) for j in range(per)]
    ids = [lang + tail for lang in langs for tail in tails]
    grid = np.arange(len(ids)).reshape(n_lang, n_topic, per)
    relevant = [frozenset(map(ids.__getitem__, grid[:, t, 1:].ravel())) for t in range(n_topic)]
    parity = [t % 2 for t in range(n_topic) for _ in range(per)] * n_lang
    return SynthResult(
        table=EmbeddingTable(ids=ids, langs=[lang for lang in langs for _ in tails], rows=noise),
        query_ids=frozenset(ids[::per]),
        qrels={ids[q]: relevant[t] for t in range(n_topic) for q in grid[:, t, 0]},
        labels=dict(zip(ids, parity)) if config.label_rule == TOPIC_PARITY else None,
        ground_truth=offsets,
        config=config,
    )
