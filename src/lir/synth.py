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

Randomness comes from numpy's PCG64 bit generator seeded explicitly, and the
orthogonalization runs on einsum, never on BLAS, so a seed reproduces the same
dataset whatever the BLAS thread count or CPU kernel; OS entropy is never used.
The draw order is topics, then raw offsets, then noise, and bias/skew only
rescale already-drawn vectors, so changing them never shifts the stream.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from types import MappingProxyType
from typing import NoReturn, Optional

import numpy as np

from .core import EmbeddingTable, RetrievalDataset, _frozen_array
from .errors import _POSITIVE, ConfigError, InvalidVector
from .errors import _check_choice, _check_int, _check_name, _check_real, _check_type, _real_array
from .linalg import _gram_schmidt

TOPIC_PARITY = "topic-parity"
_NO_ROOM = "cannot orthogonalize language offsets against the topic span; increase dim or reduce topics"


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
        codes = self.languages if isinstance(self.languages, Iterable) else ()
        # A set's order follows the string hash seed, so it would not fix the corpus.
        langs = () if isinstance(codes, (str, bytes, Set)) else tuple(
            _check_name(f"languages[{i}]", code, strip=True) for i, code in enumerate(codes))
        if not langs:
            raise ConfigError("languages must be a non-empty list of non-blank codes")
        if len(set(langs)) != len(langs):
            raise ConfigError("language codes must be unique")
        checked = {
            "languages": langs,
            "topics": _check_int("topics", self.topics, 2, message="need at least 2 topics"),
            "per_topic_per_lang": _check_int("per_topic_per_lang", self.per_topic_per_lang, 1),
            "dim": _check_int("dim", self.dim, len(langs) + 2, message=(
                "dim must be >= languages + 2 = {low} to leave room "
                "for orthogonal offsets plus semantic directions")),
        }
        # The topics span min(topics, dim) directions, leaving too few for the offsets.
        if checked["topics"] + len(langs) > checked["dim"]:
            raise ConfigError(_NO_ROOM)
        lows = {"semantic_scale": _POSITIVE, "bias_scale": 0.0, "noise_scale": 0.0, "skew": 0.0}
        scales = {name: _check_real(name, getattr(self, name)) for name in lows}  # signs after
        for name, low in lows.items():
            sign = "positive" if low else "non-negative"
            checked[name] = _check_real(name, scales[name], low, sign)
        seed = "seed must be an integer in [0, 2^64)"
        checked["seed"] = _check_int("seed", self.seed, 0, 2**64 - 1, seed)
        _check_choice("label_rule", self.label_rule, (None, TOPIC_PARITY))
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SynthResult:
    """The generated corpus as one table, plus the ground truth that produced
    it; `retrieval_dataset` splits the table into query and candidate tables."""

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
        truth = dict(self.ground_truth)
        for lang, vec in truth.items():
            truth[lang] = _frozen_array(_real_array(f"ground_truth[{lang!r}]", vec, 1, InvalidVector))
        object.__setattr__(self, "ground_truth", MappingProxyType(truth))

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


def _no_room(prior: np.ndarray) -> NoReturn:
    raise ConfigError(_NO_ROOM)


def generate(config: SynthConfig) -> SynthResult:
    """Generate a deterministic synthetic multilingual embedding corpus."""
    _check_type("config", config, SynthConfig)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    langs = config.languages
    n_lang, n_topic, per, dim = len(langs), config.topics, config.per_topic_per_lang, config.dim

    raw_topics = rng.standard_normal((n_topic, dim))
    topic_norms = np.linalg.norm(raw_topics, axis=1)
    if np.any(topic_norms < 1e-12):
        raise ConfigError("degenerate topic draw; use a different seed")
    units = raw_topics / topic_norms[:, None]
    topics = config.semantic_scale * units

    raw_offsets = rng.standard_normal((n_lang, dim))
    noise = config.noise_scale * rng.standard_normal((n_lang * n_topic * per, dim))

    # An orthonormal basis of the topic span, from the unit directions so that no
    # semantic_scale drops a topic (one inside the span of the earlier ones gives a
    # zero column); then each language's unit direction, orthogonal to that span and
    # to the earlier languages'. Both run on einsum, so no step here calls BLAS.
    topic_basis = _gram_schmidt(units.T, 1e-10, lambda _: 0.0)
    directions = _gram_schmidt(raw_offsets.T, 1e-8, _no_room, topic_basis).T
    if config.skew > 0.0:
        # Robustness knob: tilt each offset back toward the topic span so the
        # exact-orthogonality premise no longer holds.
        for direction, raw in zip(directions, raw_offsets):
            in_span = np.einsum("ij,j->i", topic_basis, np.einsum("ij,i->j", topic_basis, raw))
            nrm = math.sqrt(np.einsum("i,i->", in_span, in_span))
            if nrm > 0.0:
                direction += config.skew * in_span / nrm
                direction /= math.sqrt(np.einsum("i,i->", direction, direction))

    offsets = {lang: config.bias_scale * direction for lang, direction in zip(langs, directions)}

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
