"""Shared domain types: embedding records and tables, language matrices,
component bases, retrieval datasets, and evaluation reports. The pipeline
passes EmbeddingTables, whole collections checked once; records are the row API.

All types are immutable after construction and safe to share across threads,
but for one lending rule: a table's matrix is writable only inside _lent_rows,
which only the CLI opens (itself, or through evaluation's _in_place), on
tables it decoded and shares with no one. Array fields are stored as
read-only float64 arrays regardless of the input dtype; files may store
32-bit values but all computation happens in 64-bit.
"""

from __future__ import annotations

import itertools
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .errors import (
    CorruptBasis,
    DatasetError,
    DimensionError,
    DuplicateKey,
    InvalidMatrix,
    InvalidVector,
    LanguageMismatch,
    NoRelevantError,
    RankError,
    _check_int,
)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    # An owned, read-only, C-ordered array has no writable alias: kept as is.
    if isinstance(values, np.ndarray) and values.dtype == dtype and values.base is None:
        if not values.flags.writeable and values.flags.c_contiguous:
            return values
    out = np.array(values, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class EmbeddingRecord:
    """One d-dimensional embedding vector with an id and a language tag.

    Language codes are opaque, case-sensitive strings; the only normalization
    applied is whitespace trimming.
    """

    id: str
    lang: str
    vec: np.ndarray

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidVector("record id must be a non-empty string")
        lang = str(self.lang).strip()
        if not lang:
            raise InvalidVector(f"record {self.id!r}: language tag is empty")
        object.__setattr__(self, "lang", lang)
        vec = np.asarray(self.vec, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise InvalidVector(
                f"record {self.id!r}: vector must be 1-D with at least one coordinate"
            )
        if not np.all(np.isfinite(vec)):
            raise InvalidVector(f"record {self.id!r}: vector has non-finite coordinates")
        object.__setattr__(self, "vec", _frozen_array(vec))

    @property
    def dim(self) -> int:
        return self.vec.size


def check_collection(records: Sequence[EmbeddingRecord]) -> int:
    """Validate a record collection: unique ids, one shared dimension.

    Returns the shared dimension (0 for an empty collection). Raises
    DuplicateKey on repeated ids and DimensionError on mixed dimensions.
    Per-record finiteness is enforced by EmbeddingRecord itself.
    """
    return _check_collection([r.id for r in records], [r.dim for r in records])


def _check_collection(ids, dims) -> int:
    """check_collection on per-row ids and dimensions."""
    dim = dims[0] if len(dims) else 0
    wide = np.flatnonzero(np.asarray(dims) != dim)
    stop = wide[0] + 1 if wide.size else len(ids)
    if len(set(ids[:stop])) < stop:
        seen: set[str] = set()
        rid = next(rid for rid in ids if rid in seen or seen.add(rid))
        raise DuplicateKey(rid, f"duplicate record id {rid!r}")
    if wide.size:
        i = stop - 1
        raise DimensionError(f"record {ids[i]!r} has dimension {dims[i]}, expected {dim}")
    return dim


def _check_rows(ids, langs, rows: np.ndarray) -> None:
    """Raise what EmbeddingRecord raises for the first row it would reject
    (langs are trimmed)."""
    finite = np.isfinite(rows).all(axis=1) & (rows.shape[1] > 0)
    if finite.all() and set(map(type, ids)) <= {str} and all(ids) and all(langs):
        return
    is_str = map(isinstance, ids, itertools.repeat(str))
    good = list(map(all, zip(finite.tolist(), is_str, ids, langs)))
    if False in good:
        i = good.index(False)
        EmbeddingRecord(id=ids[i], lang=langs[i], vec=rows[i])


@dataclass(frozen=True)
class EmbeddingTable:
    """A record collection as columns: ids, language tags and one read-only
    n x d float64 matrix. It is checked once, as a whole: each row as
    EmbeddingRecord checks one (the first bad row raises), then unique ids.
    """

    ids: tuple[str, ...]
    langs: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        langs = tuple(map(str.strip, map(str, self.langs)))
        rows = _frozen_array(self.rows)
        if rows.ndim != 2 or not len(ids) == len(langs) == rows.shape[0]:
            raise DimensionError("a table needs an n x d matrix and n ids and languages")
        _check_rows(ids, langs, rows)
        _check_collection(ids, np.full(len(ids), rows.shape[1]))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "langs", langs)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_records(cls, records: Iterable[EmbeddingRecord] | EmbeddingTable) -> EmbeddingTable:
        """The table of a record collection, raising what check_collection
        raises; a table is returned as is."""
        if isinstance(records, cls):
            return records
        records = tuple(records)
        try:
            rows = np.array([r.vec for r in records]) if records else np.empty((0, 0))
        except ValueError:  # mixed dimensions
            check_collection(records)
            raise
        rows.flags.writeable = False
        return cls(ids=[r.id for r in records], langs=[r.lang for r in records], rows=rows)

    @classmethod
    def _of_checked(
        cls, ids: tuple[str, ...], langs: tuple[str, ...], rows: np.ndarray
    ) -> EmbeddingTable:
        """The table of rows taken from a checked table, which checks nothing
        again: a subset of a checked table is checked. ids and langs are that
        table's tuple entries and rows a read-only, C-ordered float64 matrix,
        which may be a view of its matrix; such a table is never lent."""
        table = object.__new__(cls)
        object.__setattr__(table, "ids", ids)
        object.__setattr__(table, "langs", langs)
        object.__setattr__(table, "rows", rows)
        return table

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@contextmanager
def _lent_rows(table: EmbeddingTable) -> Iterator[np.ndarray]:
    """The table's own matrix (a table owns it, so numpy allows this), writable
    inside the block and read-only again on leaving it, error or not: for the
    holder of the only reference to a table, to overwrite its rows in place."""
    table.rows.flags.writeable = True
    try:
        yield table.rows
    finally:
        table.rows.flags.writeable = False


def corpus_fingerprint(records: Iterable[EmbeddingRecord] | EmbeddingTable) -> str:
    """Deterministic checksum identifying a record collection or table (ids, langs, values)."""
    import hashlib  # here, not at the top: commands that take no fingerprint never load it

    table = EmbeddingTable.from_records(records)
    h = hashlib.sha256()
    for rid, lang, row in zip(table.ids, table.langs, table.rows):
        h.update(f"{rid}\0{lang}\0".encode("utf-8"))
        h.update(row)
    h.update(struct.pack("<Q", len(table)))
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class LanguageMatrix:
    """n x d matrix whose rows are embeddings of phrases in one language."""

    lang: str
    rows: np.ndarray

    def __post_init__(self):
        lang = str(self.lang).strip()
        if not lang:
            raise InvalidMatrix("language tag is empty")
        object.__setattr__(self, "lang", lang)
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
            raise InvalidMatrix("language matrix must be 2-D with n >= 1 and d >= 1")
        if not np.all(np.isfinite(rows)):
            raise InvalidMatrix("language matrix has non-finite entries")
        object.__setattr__(self, "rows", _frozen_array(rows))

    @classmethod
    def from_records(cls, records: Iterable[EmbeddingRecord] | EmbeddingTable) -> "LanguageMatrix":
        table = EmbeddingTable.from_records(records)
        if not len(table):
            raise InvalidMatrix("cannot build a language matrix from zero records")
        langs = set(table.langs)
        if len(langs) > 1:
            raise LanguageMismatch(
                f"records span multiple languages: {sorted(langs)}"
            )
        return cls(lang=table.langs[0], rows=table.rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.lang.encode("utf-8"))
        h.update(struct.pack("<QQ", self.n, self.d))
        h.update(self.rows)  # the C-ordered buffer itself, the bytes of rows.tobytes()
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class SvdResult:
    """Thin factorization M = U diag(sigma) V^T with k = min(n, d).

    sigma is non-negative and non-increasing; U (n x k) and V (d x k) have
    orthonormal columns oriented so each column of V has its largest-magnitude
    entry non-negative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or sigma.ndim != 1:
            raise InvalidMatrix("SVD factors have wrong ranks")
        k = sigma.size
        if u.shape[1] != k or v.shape[1] != k:
            raise DimensionError("SVD factor shapes do not agree")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(sigma)) and np.all(np.isfinite(v))):
            raise InvalidMatrix("SVD factors contain non-finite entries")
        if k and (np.any(sigma < 0.0) or np.any(np.diff(sigma) > 0.0)):
            raise InvalidMatrix("singular values must be non-negative and non-increasing")
        object.__setattr__(self, "u", _frozen_array(u))
        object.__setattr__(self, "sigma", _frozen_array(sigma))
        object.__setattr__(self, "v", _frozen_array(v))


_BASIS_ORTHO_TOL = 1e-6


@dataclass(frozen=True)
class ComponentBasis:
    """d x r orthonormal matrix of language-identity directions for one language.

    rank 0 is legal and makes removal a no-op. sample_count records the number
    of rows the basis was fitted on, and source_fingerprint the checksum of
    the fitting corpus.
    """

    lang: str
    basis: np.ndarray
    rank: int
    source_fingerprint: str
    sample_count: int

    def __post_init__(self):
        lang = str(self.lang).strip()
        if not lang:
            raise InvalidMatrix("language tag is empty")
        object.__setattr__(self, "lang", lang)
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] < 1:
            raise InvalidMatrix("component basis must be a 2-D d x r matrix with d >= 1")
        if not np.all(np.isfinite(basis)):
            raise InvalidMatrix("component basis has non-finite entries")
        d, r = basis.shape
        message = "declared rank {value} != basis columns {high}"
        object.__setattr__(self, "rank", _check_int("rank", self.rank, r, r, message, RankError))
        count = _check_int("sample_count", self.sample_count, error=RankError)
        object.__setattr__(self, "sample_count", count)
        if r > min(count, d):
            raise RankError(f"rank {r} exceeds min(sample_count={count}, d={d})")
        if r:
            dev = np.max(np.abs(basis.T @ basis - np.eye(r)))
            if dev > _BASIS_ORTHO_TOL:
                raise CorruptBasis(f"basis columns deviate from orthonormal by {dev:.3g}")
        object.__setattr__(self, "basis", _frozen_array(basis))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class RetrievalDataset:
    """Queries, candidates, and relevance judgments for MAP evaluation.

    Queries and candidates are given as records or tables and kept as
    tables. Every qrels key must name a query, every query must have at least
    one relevant candidate, and every relevant id must exist in the candidate
    pool. Queries are never silently deduplicated from the candidate pool.
    Query k's relevant candidates are the candidate rows
    relevant_rows[relevant_ends[k]:relevant_ends[k + 1]], each id looked up once.
    """

    queries: EmbeddingTable
    candidates: EmbeddingTable
    qrels: Mapping[str, frozenset[str]]
    relevant_rows: np.ndarray = field(init=False, repr=False, compare=False)
    relevant_ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        queries = EmbeddingTable.from_records(self.queries)
        candidates = EmbeddingTable.from_records(self.candidates)
        if not len(queries):
            raise DatasetError("dataset has no queries")
        if not len(candidates):
            raise DatasetError("dataset has no candidates")
        if queries.dim != candidates.dim:
            raise DimensionError(
                f"query dimension {queries.dim} != candidate dimension {candidates.dim}"
            )
        kept: dict[int, frozenset[str]] = {}  # each frozenset object is checked once

        def as_set(v) -> frozenset[str]:
            # A frozenset of exact str is kept: read_qrels' shared ids and sets stay shared.
            if type(v) is not frozenset:
                return frozenset(map(str, v))
            if id(v) not in kept:
                kept[id(v)] = v if set(map(type, v)) <= {str} else frozenset(map(str, v))
            return kept[id(v)]

        qrels = {str(k): as_set(v) for k, v in dict(self.qrels).items()}
        row_of = dict(zip(candidates.ids, range(len(candidates))))
        rels = [qrels.get(qid, frozenset()) for qid in queries.ids]
        mapped = {}  # each distinct relevant set is looked up once (-1: unknown id)
        for rel in rels:
            if rel not in mapped:
                found = map(row_of.get, rel, itertools.repeat(-1))
                mapped[rel] = np.fromiter(found, np.intp, len(rel))
        rows = np.concatenate([mapped[rel] for rel in rels])
        ends = np.cumsum([0, *map(len, rels)])
        if len(qrels) != len(rels) or not all(rels) or (rows < 0).any():
            _raise_qrels_error(qrels, queries.ids, row_of)
        rows.flags.writeable = ends.flags.writeable = False
        object.__setattr__(self, "queries", queries)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "qrels", MappingProxyType(qrels))
        object.__setattr__(self, "relevant_rows", rows)
        object.__setattr__(self, "relevant_ends", ends)

    @property
    def dim(self) -> int:
        return self.queries.dim


def _raise_qrels_error(qrels, query_ids, row_of) -> NoReturn:
    """Raise for the first qrels entry, in qrels order, that names an unknown
    query, is empty or names an unknown candidate; else for the first query
    without an entry."""
    qids = set(query_ids)
    for qid, rel in qrels.items():
        if qid not in qids:
            raise DatasetError(f"qrels references unknown query id {qid!r}")
        if not rel:
            raise NoRelevantError(f"query {qid!r} has no relevant candidates")
        unknown = rel.difference(row_of)
        if unknown:
            raise DatasetError(
                f"qrels for query {qid!r} references unknown candidate ids: "
                f"{sorted(unknown)[:5]}"
            )
    qid = next(qid for qid in query_ids if qid not in qrels)
    raise NoRelevantError(f"query {qid!r} has no qrels entry")


@dataclass(frozen=True)
class EvalReport:
    """Retrieval evaluation result.

    overall_map is the mean of per-query average precisions, not the mean of
    the per-language means. per_language_map groups queries by their own
    language tag.
    """

    overall_map: float
    per_language_map: Mapping[str, float]
    query_count: int
    config: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(
            self, "per_language_map", MappingProxyType(dict(self.per_language_map))
        )
        object.__setattr__(self, "config", MappingProxyType(dict(self.config)))


@dataclass(frozen=True)
class TransferReport:
    """Zero-shot transfer-classification result.

    average is the unweighted mean of the per-language accuracies over all
    evaluated languages.
    """

    per_language_accuracy: Mapping[str, float]
    average: float
    train_language: str
    config: Mapping[str, object]

    def __post_init__(self):
        object.__setattr__(
            self,
            "per_language_accuracy",
            MappingProxyType(dict(self.per_language_accuracy)),
        )
        object.__setattr__(self, "config", MappingProxyType(dict(self.config)))
