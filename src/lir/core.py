"""Shared domain types: embedding records and tables, language matrices,
component bases, retrieval datasets, and evaluation reports. The pipeline
passes EmbeddingTables, whole collections checked once; records are the row API.

All types are immutable after construction and safe to share across threads,
but for one in-place rule: a table's matrix is writable only while _lent_rows
lends it, and a function handed a lent table may overwrite its rows; any other
table is copied before it is changed. A lent matrix is behind no other table,
unless that table has the same ids and tags and so stands for the lent one.
Only the CLI lends, and only tables it decoded and shares with no one. Array fields are stored as read-only float64
arrays regardless of the input dtype; files may store 32-bit values but all
computation happens in 64-bit.
"""

from __future__ import annotations

import itertools
import json
import struct
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NoReturn

import numpy as np

from .errors import (
    ConfigError,
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
    _check_name,
    _check_real,
    _check_type,
    _mapping,
    _real_array,
)


def _frozen_array(array: np.ndarray) -> np.ndarray:
    # An owned, read-only, C-ordered array has no writable alias: kept as is.
    if array.base is None and not array.flags.writeable and array.flags.c_contiguous:
        return array
    out = np.array(array, order="C")
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
        _check_name("record id", self.id, InvalidVector, "record id must be a non-empty string")
        lang = _check_name(f"record {self.id!r}: language tag", self.lang, InvalidVector, strip=True)
        object.__setattr__(self, "lang", lang)
        vec = _real_array(f"record {self.id!r}: vec", self.vec, 1, InvalidVector, (0,), finite=False)
        if not np.isfinite(vec).all():  # the message a table, and so the CLI, prints for a bad row
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
    (langs are trimmed, and None where a tag is not a str)."""
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
        if any(isinstance(c, str) or not isinstance(c, Iterable) for c in (self.ids, self.langs)):
            raise InvalidVector("ids and langs must be sequences of strings")
        ids, langs = tuple(self.ids), tuple(self.langs)
        try:
            langs = tuple(map(str.strip, langs))  # its TypeError is the tags' type test
        except TypeError:  # None stands for a tag that is not a str: _check_rows raises for its row
            langs = tuple(lang.strip() if isinstance(lang, str) else None for lang in langs)
        rows = _frozen_array(_real_array("rows", self.rows, 2, DimensionError, finite=False))
        if not len(ids) == len(langs) == rows.shape[0]:
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
        return _table_of("records", records)

    @classmethod
    def _of_checked(
        cls, ids: tuple[str, ...], langs: tuple[str, ...], rows: np.ndarray
    ) -> EmbeddingTable:
        """The table of rows already checked, which checks nothing again: rows
        taken from a checked table (a subset of a checked table is checked),
        or rows the reader checked as it decoded them. ids and langs are
        tuples of checked entries (tags trimmed) and rows a read-only,
        C-ordered float64 matrix. A table over a view of another table's
        matrix is never lent."""
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


def _table_of(name, records) -> EmbeddingTable:
    """EmbeddingTable.from_records, naming the argument `name` in its type errors."""
    if isinstance(records, EmbeddingTable):
        return records
    records = _check_type(name, records, EmbeddingRecord, InvalidVector, each=True)
    try:
        rows = np.array([r.vec for r in records]) if records else np.empty((0, 0))
    except ValueError:  # mixed dimensions
        check_collection(records)
        raise
    rows.flags.writeable = False
    return EmbeddingTable(ids=[r.id for r in records], langs=[r.lang for r in records], rows=rows)


@contextmanager
def _lent_rows(table: EmbeddingTable) -> Iterator[np.ndarray]:
    """The table's own matrix (a table owns it, so numpy allows this), writable
    inside the block and read-only again on leaving it, error or not. The
    holder of the only reference to a table lends it so that the functions it
    hands the table to overwrite its rows instead of copying them."""
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
        lang = _check_name("language tag", self.lang, InvalidMatrix, strip=True)
        object.__setattr__(self, "lang", lang)
        rows = _real_array("rows", self.rows, 2, InvalidMatrix, (0, 1))
        object.__setattr__(self, "rows", _frozen_array(rows))

    @classmethod
    def from_records(cls, records: Iterable[EmbeddingRecord] | EmbeddingTable) -> "LanguageMatrix":
        table = EmbeddingTable.from_records(records)
        if not len(table):
            raise InvalidMatrix("cannot build a language matrix from zero records")
        langs = set(table.langs)
        if len(langs) > 1:
            raise LanguageMismatch(f"records span multiple languages: {sorted(langs)}")
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
        u, sigma, v = (_real_array(name, getattr(self, name), ndim, InvalidMatrix)
                       for name, ndim in (("u", 2), ("sigma", 1), ("v", 2)))
        k = sigma.size
        if u.shape[1] != k or v.shape[1] != k:
            raise DimensionError("SVD factor shapes do not agree")
        if k and (np.any(sigma < 0.0) or np.any(np.diff(sigma) > 0.0)):
            raise InvalidMatrix("singular values must be non-negative and non-increasing")
        for name, factor in (("u", u), ("sigma", sigma), ("v", v)):
            object.__setattr__(self, name, _frozen_array(factor))


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
        lang = _check_name("language tag", self.lang, InvalidMatrix, strip=True)
        object.__setattr__(self, "lang", lang)
        _check_name("source_fingerprint", self.source_fingerprint, InvalidMatrix)
        basis = _real_array("basis", self.basis, 2, InvalidMatrix, (0,))
        d, r = basis.shape
        message = "declared rank {value} != basis columns {high}"
        object.__setattr__(self, "rank", _check_int("rank", self.rank, r, r, message, RankError))
        count = _check_int("sample_count", self.sample_count, error=RankError)
        object.__setattr__(self, "sample_count", count)
        if r > min(count, d):
            raise RankError(f"rank {r} exceeds min(sample_count={count}, d={d})")
        if r:
            dev = np.max(np.abs(np.einsum("ij,ik->jk", basis, basis) - np.eye(r)))
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
        queries = _table_of("queries", self.queries)
        candidates = _table_of("candidates", self.candidates)
        if not len(queries):
            raise DatasetError("dataset has no queries")
        if not len(candidates):
            raise DatasetError("dataset has no candidates")
        if queries.dim != candidates.dim:
            message = f"query dimension {queries.dim} != candidate dimension {candidates.dim}"
            raise DimensionError(message)

        def as_set(qid, rel) -> frozenset[str]:
            # Kept as is: read_qrels' sets stay shared, and _raise_qrels_error names a bad id.
            if type(rel) is frozenset:
                return rel
            if isinstance(rel, (str, bytes)) or not isinstance(rel, Collection):
                raise DatasetError(f"qrels[{qid!r}] must be a set of candidate ids")
            return frozenset(_check_name(f"qrels[{qid!r}] id", cid, DatasetError) for cid in rel)

        qrels = {_check_name("qrels key", qid, DatasetError): as_set(qid, rel)
                 for qid, rel in _mapping("qrels", self.qrels, DatasetError).items()}
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
        for cid in rel:
            _check_name(f"qrels[{qid!r}] id", cid, DatasetError)
        unknown = rel.difference(row_of)
        if unknown:
            unknown = sorted(unknown)[:5]
            raise DatasetError(f"qrels for query {qid!r} references unknown candidate ids: {unknown}")
    qid = next(qid for qid in query_ids if qid not in qrels)
    raise NoRelevantError(f"query {qid!r} has no qrels entry")


def _config(config) -> Mapping[str, object]:
    """A report's config: str keys, each value one that a JSON round trip gives back unchanged."""
    config = dict(_mapping("config", config))
    for key, value in config.items():
        _check_type(f"config key {key!r}", key, str)
        try:
            if json.loads(json.dumps(value, allow_nan=False, sort_keys=True)) == value:
                continue
        except (TypeError, ValueError, RecursionError):
            pass
        raise ConfigError(f"config[{key!r}] must be a value JSON keeps unchanged, got {value!r}")
    return MappingProxyType(config)


def _fraction(name, value) -> float:
    return _check_real(name, value, 0.0, "in [0, 1]", 1.0)


def _fractions(name, values) -> Mapping[str, float]:
    return MappingProxyType({_check_name(f"{name} key", key): _fraction(f"{name}[{key!r}]", value)
                             for key, value in _mapping(name, values).items()})


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
        maps = _fractions("per_language_map", self.per_language_map)
        object.__setattr__(self, "per_language_map", maps)
        object.__setattr__(self, "overall_map", _fraction("overall_map", self.overall_map))
        object.__setattr__(self, "query_count", _check_int("query_count", self.query_count, 1))
        object.__setattr__(self, "config", _config(self.config))


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
        accuracy = _fractions("per_language_accuracy", self.per_language_accuracy)
        object.__setattr__(self, "per_language_accuracy", accuracy)
        object.__setattr__(self, "average", _fraction("average", self.average))
        _check_name("train_language", self.train_language)
        object.__setattr__(self, "config", _config(self.config))
