"""Fitting language-identity components and removing them from embeddings.

A component basis for a language is the leading r right singular vectors of
that language's embedding matrix. Removal subtracts the projection of an
embedding onto its own language's basis; the norm-scaled variant divides the
projection coefficients by the embedding norm instead (the two coincide on
unit vectors). Rows are removed per language in bounded blocks, each rounded alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from . import linalg
from .core import ComponentBasis, EmbeddingRecord, EmbeddingTable, corpus_fingerprint
from .errors import (
    DimensionError,
    InvalidMatrix,
    InvalidVector,
    LanguageMismatch,
    MissingBasis,
    RankError,
    ZeroVectorError,
    _check_choice,
    _check_int,
    _check_type,
    _mapping,
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
_BLOCK = 1 << 16  # float64 values per removal block (512 kB); removed rows do not depend on it


def _language_of(table: EmbeddingTable) -> str:
    """The one language tag of a table; an empty table, or one of several tags, raises."""
    if not len(table):
        raise InvalidMatrix("cannot build a language matrix from zero records")
    langs = set(table.langs)
    if len(langs) > 1:
        raise LanguageMismatch(f"records span multiple languages: {sorted(langs)}")
    return table.langs[0]


def fit_decomposition(
    matrix: EmbeddingTable,
    rank: int,
    *,
    center: bool = False,
    normalize: bool = False,
) -> tuple[ComponentBasis, np.ndarray]:
    """Fit a component basis to a one-language table and also return the full
    singular-value spectrum.

    The basis is exactly the first `rank` columns of the SVD's V factor (U is
    never built); its source_fingerprint is the table's corpus_fingerprint.
    `normalize` rescales every row to unit length before fitting; `center`
    subtracts the column mean (both default off: the raw matrix is
    factorized, so the leading direction can be the language centroid
    itself). rank 0 yields an empty basis and removal becomes the identity.
    """
    _check_type("matrix", matrix, EmbeddingTable)
    lang = _language_of(matrix)
    _check_type("center", center, bool)
    _check_type("normalize", normalize, bool)
    limit, message = min(matrix.rows.shape), "rank {value} outside valid range [0, {high}]"
    rank = _check_int("rank", rank, 0, limit, message, RankError)
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
        lang=lang,
        basis=v[:, :rank].copy(),
        rank=rank,
        source_fingerprint=corpus_fingerprint(matrix),
        sample_count=len(matrix),
    )
    return basis, sigma


def _check_removal(bases, mode) -> None:
    """ConfigError naming mode, bases or a value, unless a RemovalMode and a mapping of ComponentBasis."""
    _check_choice("mode", mode, tuple(RemovalMode))
    for lang, basis in _mapping("bases", bases).items():
        _check_type(f"bases[{lang!r}]", basis, ComponentBasis)


def _remove_rows(ids, langs, rows, bases, mode, *, strict=True):
    """Check the rows, raising what a row-by-row check raises at the first bad
    row in input order, then remove each language's rows in place, at most
    _BLOCK values at a time (a slice where a block's rows are contiguous).
    `rows` is a writable n x d matrix or, for a record batch, a list of
    vectors that may differ in length. Returns {language without a basis: row count}."""
    matrix = isinstance(rows, np.ndarray)
    groups: dict[str, list[int]] = {}
    for i, lang in enumerate(langs):
        groups.setdefault(lang, []).append(i)
    missing = [] if strict else [lang for lang in groups if lang not in bases]
    passed = {lang: len(groups.pop(lang)) for lang in missing}
    dims = np.full(len(rows), rows.shape[1]) if matrix else np.array([v.size for v in rows])
    eq1 = mode is RemovalMode.PAPER_EQ1
    # The kernel rejects zero rows too, but only after every row is checked.
    zero = eq1 and (~rows.any(axis=1) if matrix else np.array([not v.any() for v in rows]))
    suspects = []  # each language's first row, where any check can fail, and first bad row
    for lang, idx in groups.items():
        basis = bases.get(lang)
        bad = [True] if basis is None else (dims[idx] != basis.dim) | (zero[idx] if eq1 else False)
        suspects += [idx[0], idx[int(np.argmax(bad))]]
    for i in sorted(suspects):
        lang, basis = langs[i], bases.get(langs[i])
        if basis is None:
            raise MissingBasis(lang)
        if dims[i] != basis.dim:
            raise DimensionError(f"record {ids[i]!r} has dimension {dims[i]}, basis expects {basis.dim}")
        if lang != basis.lang:
            raise LanguageMismatch(f"record {ids[i]!r} is {lang!r} but basis is for {basis.lang!r}")
        if eq1 and zero[i]:
            raise ZeroVectorError("norm-scaled removal is undefined for a zero vector")
    kernel = linalg.project_out_scaled if eq1 else linalg.project_out
    for lang, idx in groups.items():
        basis = bases[lang].basis
        step = max(1, _BLOCK // basis.shape[0])
        for blk in (idx[i : i + step] for i in range(0, len(idx), step)):
            if matrix:
                sel = slice(blk[0], blk[-1] + 1) if blk[-1] - blk[0] == len(blk) - 1 else blk
                rows[sel] = kernel(rows[sel], basis)
            else:
                for i, vec in zip(blk, kernel(np.stack([rows[i] for i in blk]), basis)):
                    rows[i] = vec
    return passed


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
    output row is bit-identical to removing that record in a batch of its own.
    """
    _check_removal(bases, mode)
    _check_type("strict", strict, bool)
    out = list(_check_type("records", records, EmbeddingRecord, InvalidVector, each=True))
    vecs = [r.vec for r in out]
    ids, langs = [r.id for r in out], [r.lang for r in out]
    passed = _remove_rows(ids, langs, vecs, bases, mode, strict=strict)
    for i, (rec, vec) in enumerate(zip(out, vecs)):
        if vec is not rec.vec:
            out[i] = EmbeddingRecord(id=rec.id, lang=rec.lang, vec=vec)
    return BatchRemoval(records=tuple(out), passed_through=passed)
