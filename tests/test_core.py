import hashlib
import re
import struct

import numpy as np
import pytest

from lir import (
    ComponentBasis,
    CorruptBasis,
    DatasetError,
    DimensionError,
    DuplicateKey,
    EmbeddingRecord,
    InvalidMatrix,
    InvalidVector,
    LanguageMatrix,
    LanguageMismatch,
    NoRelevantError,
    RankError,
    RetrievalDataset,
    check_collection,
    corpus_fingerprint,
)
from lir.core import EmbeddingTable, _lent_rows


def rec(rid, lang, vec):
    return EmbeddingRecord(id=rid, lang=lang, vec=np.asarray(vec, dtype=float))


class TestEmbeddingRecord:
    def test_basic(self):
        r = rec("a", "en", [1.0, 2.0])
        assert r.dim == 2
        assert r.vec.dtype == np.float64

    def test_lang_trimmed_not_normalized(self):
        assert rec("a", "  EN ", [1.0]).lang == "EN"

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidVector):
            rec("a", "en", [1.0, float("nan")])
        with pytest.raises(InvalidVector):
            rec("a", "en", [float("inf")])

    def test_rejects_empty_vector_and_blank_fields(self):
        with pytest.raises(InvalidVector):
            rec("a", "en", [])
        with pytest.raises(InvalidVector):
            rec("", "en", [1.0])
        with pytest.raises(InvalidVector):
            rec("a", "   ", [1.0])

    def test_rejects_matrix_shaped_vec(self):
        with pytest.raises(InvalidVector):
            EmbeddingRecord(id="a", lang="en", vec=np.ones((2, 2)))

    def test_immutable(self):
        r = rec("a", "en", [1.0, 2.0])
        with pytest.raises(ValueError):
            r.vec[0] = 5.0


class TestCollection:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateKey):
            check_collection([rec("a", "en", [1.0]), rec("a", "en", [2.0])])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            check_collection([rec("a", "en", [1.0]), rec("b", "en", [1.0, 2.0])])

    def test_empty_ok(self):
        assert check_collection([]) == 0

    def test_fingerprint_sensitive_to_values_and_order(self):
        a = [rec("a", "en", [1.0, 2.0]), rec("b", "en", [3.0, 4.0])]
        b = [rec("a", "en", [1.0, 2.0]), rec("b", "en", [3.0, 4.5])]
        assert corpus_fingerprint(a) != corpus_fingerprint(b)
        assert corpus_fingerprint(a) != corpus_fingerprint(list(reversed(a)))
        assert corpus_fingerprint(a) == corpus_fingerprint(list(a))


class TestLentRows:
    """A table's matrix is writable only inside _lent_rows."""

    @staticmethod
    def table():
        return EmbeddingTable.from_records([rec("a", "en", [1.0, 2.0]), rec("b", "en", [3.0, 4.0])])

    def test_writable_inside_read_only_after(self):
        table = self.table()
        assert not table.rows.flags.writeable
        with _lent_rows(table) as rows:
            assert rows is table.rows and rows.flags.writeable
            rows[0] = 5.0
        assert not table.rows.flags.writeable
        assert table.rows.tolist() == [[5.0, 5.0], [3.0, 4.0]]
        with pytest.raises(ValueError):
            table.rows[0, 0] = 6.0

    def test_read_only_after_an_error_inside(self):
        table = self.table()
        with pytest.raises(DimensionError, match="^inside$"):
            with _lent_rows(table) as rows:
                rows[1] = 0.0
                raise DimensionError("inside")
        assert not table.rows.flags.writeable
        assert table.rows.tolist() == [[1.0, 2.0], [0.0, 0.0]]


class TestLanguageMatrix:
    def test_from_records(self):
        m = LanguageMatrix.from_records([rec("a", "en", [1.0, 2.0]), rec("b", "en", [3.0, 4.0])])
        assert (m.n, m.d) == (2, 2)
        assert m.lang == "en"

    def test_rejects_mixed_languages(self):
        with pytest.raises(LanguageMismatch):
            LanguageMatrix.from_records([rec("a", "en", [1.0]), rec("b", "zh", [2.0])])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            LanguageMatrix.from_records([])
        with pytest.raises(InvalidMatrix):
            LanguageMatrix(lang="en", rows=np.array([[np.nan]]))

    def test_fingerprint_changes_with_lang(self):
        rows = np.ones((2, 2))
        assert (
            LanguageMatrix(lang="en", rows=rows).fingerprint()
            != LanguageMatrix(lang="zh", rows=rows).fingerprint()
        )

    def test_fingerprint_hashes_the_bytes_of_tobytes(self):
        # A Fortran-ordered or strided input is stored C-ordered, so the buffer
        # hashed is the rows' C-order bytes, as rows.tobytes() gives them.
        rows = np.random.default_rng(5).standard_normal((7, 3))
        for given in (rows, np.asfortranarray(rows), np.repeat(rows, 2, axis=0)[::2]):
            m = LanguageMatrix(lang="en", rows=given)
            h = hashlib.sha256(b"en" + struct.pack("<QQ", 7, 3) + rows.tobytes())
            assert m.fingerprint() == h.hexdigest()[:16]


class TestComponentBasis:
    def test_valid(self):
        b = ComponentBasis(
            lang="en",
            basis=np.eye(3)[:, :2],
            rank=2,
            source_fingerprint="f",
            sample_count=10,
        )
        assert b.dim == 3

    def test_rank_zero_ok(self):
        b = ComponentBasis(
            lang="en", basis=np.zeros((3, 0)), rank=0, source_fingerprint="f", sample_count=0
        )
        assert b.rank == 0

    def test_rejects_non_orthonormal(self):
        with pytest.raises(CorruptBasis):
            ComponentBasis(
                lang="en",
                basis=np.array([[1.0], [1.0]]),
                rank=1,
                source_fingerprint="f",
                sample_count=5,
            )

    def test_rejects_rank_inconsistency(self):
        with pytest.raises(RankError):
            ComponentBasis(
                lang="en", basis=np.eye(2), rank=1, source_fingerprint="f", sample_count=5
            )
        with pytest.raises(RankError):
            # rank must not exceed the fitting sample count
            ComponentBasis(
                lang="en", basis=np.eye(2), rank=2, source_fingerprint="f", sample_count=1
            )


def tiny_dataset():
    queries = [rec("q1", "en", [1.0, 0.0])]
    candidates = [rec("c1", "en", [1.0, 0.0]), rec("c2", "zh", [0.0, 1.0])]
    return queries, candidates


class TestRetrievalDataset:
    def test_valid(self):
        queries, candidates = tiny_dataset()
        ds = RetrievalDataset(queries=queries, candidates=candidates, qrels={"q1": {"c1"}})
        assert ds.dim == 2

    def test_relevant_rows_look_up_each_set_once(self):
        queries = [rec(f"q{i}", "en", [1.0, float(i)]) for i in range(4)]
        candidates = [rec(cid, "en", [1.0, 0.5]) for cid in ("c3", "c1", "c0", "c2", "c4")]
        shared = frozenset({"c1", "c4"})
        qrels = {"q2": shared, "q0": shared, "q3": ["c0", "c3", "c2"], "q1": frozenset({"c1", "c4"})}
        ds = RetrievalDataset(queries=queries, candidates=candidates, qrels=qrels)
        rows, ends = ds.relevant_rows, ds.relevant_ends
        assert ends.tolist() == [0, 2, 4, 6, 9]
        for k, query in enumerate(queries):
            named = [candidates[i].id for i in rows[ends[k] : ends[k + 1]].tolist()]
            assert sorted(named) == sorted(qrels[query.id])
        assert ds.qrels["q0"] is ds.qrels["q2"] is shared
        assert not rows.flags.writeable and not ends.flags.writeable

    def test_first_bad_qrels_entry_raises(self):
        # Entries are checked in qrels order; a query without one is reported last.
        queries, candidates = tiny_dataset()
        queries = [*queries, rec("q2", "en", [0.0, 1.0])]
        cases = [
            ({"q1": {"nope"}, "qX": {"c1"}}, DatasetError, "unknown candidate ids: ['nope']"),
            ({"qX": {"c1"}, "q1": {"nope"}}, DatasetError, "unknown query id 'qX'"),
            ({"q2": {"c1"}, "q1": set(), "qX": {"c1"}}, NoRelevantError, "'q1' has no relevant"),
            ({"q2": {"c2"}}, NoRelevantError, "'q1' has no qrels entry"),
            ({"q2": {"c2"}, "q1": {"c1", 5}}, DatasetError, "unknown candidate ids: ['5']"),
        ]
        for qrels, error, message in cases:
            with pytest.raises(error, match=re.escape(message)):
                RetrievalDataset(queries=queries, candidates=candidates, qrels=qrels)

    def test_unknown_query_in_qrels(self):
        queries, candidates = tiny_dataset()
        with pytest.raises(DatasetError):
            RetrievalDataset(
                queries=queries, candidates=candidates, qrels={"q1": {"c1"}, "qX": {"c1"}}
            )

    def test_unknown_candidate_in_qrels(self):
        queries, candidates = tiny_dataset()
        with pytest.raises(DatasetError):
            RetrievalDataset(queries=queries, candidates=candidates, qrels={"q1": {"nope"}})

    def test_query_without_relevant(self):
        queries, candidates = tiny_dataset()
        with pytest.raises(NoRelevantError):
            RetrievalDataset(queries=queries, candidates=candidates, qrels={"q1": set()})
        with pytest.raises(NoRelevantError):
            RetrievalDataset(queries=queries, candidates=candidates, qrels={})

    def test_dimension_mismatch(self):
        queries, _ = tiny_dataset()
        with pytest.raises(DimensionError):
            RetrievalDataset(
                queries=queries, candidates=[rec("c1", "en", [1.0])], qrels={"q1": {"c1"}}
            )

    def test_duplicate_candidate_ids(self):
        queries, _ = tiny_dataset()
        cands = [rec("c1", "en", [1.0, 0.0]), rec("c1", "en", [0.0, 1.0])]
        with pytest.raises(DuplicateKey):
            RetrievalDataset(queries=queries, candidates=cands, qrels={"q1": {"c1"}})
