"""Fitting language-identity components and removing them from embeddings.

A component basis for a language is the leading r right singular vectors of
that language's embedding matrix. Removal subtracts the projection of an
embedding onto its own language's basis; the norm-scaled variant divides the
projection coefficients by the embedding norm instead (the two coincide on
unit vectors). Rows are removed one matrix per language, each row rounded alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from . import linalg
from .core import ComponentBasis, EmbeddingRecord, LanguageMatrix
from .errors import (
    ConfigError,
    DimensionError,
    LanguageMismatch,
    MissingBasis,
    RankError,
    ZeroVectorError,
)


class RemovalMode(enum.Enum):
    """How projection coefficients are applied during removal.

    ORTHOGONAL subtracts the plain orthogonal projection (idempotent,
    non-norm-increasing; the default). PAPER_EQ1 additionally divides the
    coefficients by the embedding's Euclidean norm, which matches the
    orthogonal mode only for unit-length embeddings.
    """

    ORTHOGONAL = "orthogonal"
    PAPER_EQ1 = "paper-eq1"


DEFAULT_MODE = RemovalMode.ORTHOGONAL


def fit_decomposition(
    matrix: LanguageMatrix,
    rank: int,
    *,
    center: bool = False,
    normalize: bool = False,
) -> tuple[ComponentBasis, np.ndarray]:
    """Fit a component basis and also return the full singular-value spectrum.

    The basis is exactly the first `rank` columns of the SVD's V factor; the
    U factor is never built.
    `normalize` rescales every row to unit length before fitting; `center`
    subtracts the column mean (both default off: the raw matrix is
    factorized, so the leading direction can be the language centroid
    itself). rank 0 yields an empty basis and removal becomes the identity.
    """
    limit = min(matrix.n, matrix.d)
    if not 0 <= rank <= limit:
        raise RankError(f"rank {rank} outside valid range [0, {limit}]")
    data = matrix.rows
    if normalize:
        norms = np.linalg.norm(data, axis=1)
        if np.any(norms == 0.0):
            raise ZeroVectorError("cannot length-normalize a zero-length row")
        data = data / norms[:, None]
    if center:
        data = data - data.mean(axis=0)
    sigma, v = linalg._right_factor(data)
    basis = ComponentBasis(
        lang=matrix.lang,
        basis=v[:, :rank].copy(),
        rank=rank,
        source_fingerprint=matrix.fingerprint(),
        sample_count=matrix.n,
    )
    return basis, sigma


def fit_components(
    matrix: LanguageMatrix,
    rank: int,
    *,
    center: bool = False,
    normalize: bool = False,
) -> ComponentBasis:
    """Fit the language-identity components of a language matrix."""
    basis, _ = fit_decomposition(matrix, rank, center=center, normalize=normalize)
    return basis


def remove(
    record: EmbeddingRecord,
    basis: ComponentBasis,
    mode: RemovalMode = DEFAULT_MODE,
    *,
    allow_language_mismatch: bool = False,
) -> EmbeddingRecord:
    """Remove a language's identity components from one embedding.

    The record's id and language tag are preserved. Applying a basis fitted
    on a different language is refused unless `allow_language_mismatch` is
    set (evaluation may intentionally cross languages).
    """
    bases = {record.lang: basis}
    [(_, rows)], _ = _remove_rows([record], bases, mode, allow_mismatch=allow_language_mismatch)
    return EmbeddingRecord(id=record.id, lang=record.lang, vec=rows[0])


def _remove_rows(records, bases, mode, *, strict=True, rows=None, allow_mismatch=False):
    """Check the records in input order, then remove each language's rows of
    `rows` (default: the records' vectors) with one kernel call. Returns
    [(row indices, removed rows)] and {language without a basis: count}."""
    groups: dict[str, list[int]] = {}
    passed: dict[str, int] = {}
    for i, rec in enumerate(records):
        basis = bases.get(rec.lang)
        if basis is None:
            if strict:
                raise MissingBasis(rec.lang)
            passed[rec.lang] = passed.get(rec.lang, 0) + 1
            continue
        if rec.dim != basis.dim:
            raise DimensionError(
                f"record {rec.id!r} has dimension {rec.dim}, basis expects {basis.dim}"
            )
        if rec.lang != basis.lang and not allow_mismatch:
            raise LanguageMismatch(
                f"record {rec.id!r} is {rec.lang!r} but basis is for {basis.lang!r}"
            )
        if mode not in (RemovalMode.ORTHOGONAL, RemovalMode.PAPER_EQ1):
            raise ConfigError(f"unknown removal mode: {mode!r}")
        # The kernel rejects zero rows too, but only after every record is checked.
        if mode is RemovalMode.PAPER_EQ1 and not rec.vec.any():
            raise ZeroVectorError("norm-scaled removal is undefined for a zero vector")
        groups.setdefault(rec.lang, []).append(i)
    kernel = linalg.project_out_scaled if mode is RemovalMode.PAPER_EQ1 else linalg.project_out
    removed = []
    for lang, idx in groups.items():
        block = rows[idx] if rows is not None else np.stack([records[i].vec for i in idx])
        removed.append((idx, kernel(block, bases[lang].basis)))
    return removed, passed


@dataclass(frozen=True)
class BatchRemoval:
    """Order-preserving batch result plus a per-language pass-through count."""

    records: tuple[EmbeddingRecord, ...]
    passed_through: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        object.__setattr__(
            self, "passed_through", MappingProxyType(dict(self.passed_through))
        )

    @property
    def passed_count(self) -> int:
        return sum(self.passed_through.values())


def remove_batch(
    records: Iterable[EmbeddingRecord],
    bases: Mapping[str, ComponentBasis],
    mode: RemovalMode = DEFAULT_MODE,
    *,
    strict: bool = True,
) -> BatchRemoval:
    """Remove components from each record using its own language's basis.

    Output order matches input order. In strict mode a record whose language
    has no basis raises MissingBasis; otherwise such records pass through
    unchanged and are counted in the result's `passed_through` map. Every
    output row is bit-identical to `remove` on that record alone.
    """
    out = list(records)
    removed, passed = _remove_rows(out, bases, mode, strict=strict)
    for idx, block in removed:
        for i, vec in zip(idx, block):
            out[i] = EmbeddingRecord(id=out[i].id, lang=out[i].lang, vec=vec)
    return BatchRemoval(records=tuple(out), passed_through=passed)
