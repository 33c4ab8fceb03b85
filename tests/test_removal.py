import re
import tracemalloc

import numpy as np
import pytest

import lir
from lir import (
    ComponentBasis,
    ConfigError,
    DimensionError,
    EmbeddingRecord,
    EmbeddingTable,
    InvalidMatrix,
    LanguageMismatch,
    MissingBasis,
    RankError,
    RemovalMode,
    ZeroVectorError,
    fit_decomposition,
    remove_batch,
    svd,
)
from lir.synth import _take
from oracles import source_fingerprint_oracle


def rec(rid, lang, vec):
    return EmbeddingRecord(id=rid, lang=lang, vec=np.asarray(vec, dtype=float))


def one_language(lang, rows):
    """A table of rows, all tagged lang, with ids r0, r1, ..."""
    return EmbeddingTable([f"r{i}" for i in range(len(rows))], [lang] * len(rows), rows)


def language_rows(res, lang):
    """The table of a generated corpus's rows of one language."""
    return _take(res.table, np.flatnonzero([tag == lang for tag in res.table.langs]))


def records_of(table):
    return [EmbeddingRecord(*row) for row in zip(table.ids, table.langs, table.rows)]


def remove_one(record, basis, mode=RemovalMode.ORTHOGONAL):
    """One record removed with one basis, in a batch of its own."""
    return remove_batch([record], {record.lang: basis}, mode).records[0]


def axis_basis(lang, d, axis):
    basis = np.zeros((d, 1))
    basis[axis, 0] = 1.0
    return ComponentBasis(
        lang=lang, basis=basis, rank=1, source_fingerprint="axis", sample_count=d
    )


class TestFitComponents:
    def test_diag_2_1_rank_1(self):
        m = one_language("en", np.diag([2.0, 1.0]))
        basis = fit_decomposition(m, 1)[0]
        assert np.allclose(basis.basis[:, 0], [1.0, 0.0], atol=1e-12)
        assert basis.rank == 1
        assert basis.sample_count == 2
        assert basis.source_fingerprint == source_fingerprint_oracle("en", m.rows)

    def test_rank_zero_gives_identity_removal(self):
        m = one_language("en", np.arange(6.0).reshape(3, 2) + 1.0)
        basis = fit_decomposition(m, 0)[0]
        assert basis.rank == 0
        r = rec("a", "en", [1.5, -2.5])
        out = remove_one(r, basis)
        assert out.vec.tobytes() == r.vec.tobytes()

    def test_matches_svd_columns_bitwise(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((12, 5))
        m = one_language("en", rows)
        full_v = svd(rows).v
        for r in range(6):
            basis = fit_decomposition(m, r)[0]
            assert basis.basis.tobytes() == full_v[:, :r].copy().tobytes()

    def test_dominant_mean_direction(self):
        # rows = mu + small noise: top component aligns with mu
        rng = np.random.default_rng(1)
        mu = rng.standard_normal(10)
        noise = 0.01 * np.linalg.norm(mu) * rng.standard_normal((200, 10))
        m = one_language("en", mu + noise)
        basis = fit_decomposition(m, 1)[0]
        cos = abs(float(basis.basis[:, 0] @ (mu / np.linalg.norm(mu))))
        assert cos >= 0.99

    def test_rank_out_of_range(self):
        m = one_language("en", np.ones((3, 2)))
        with pytest.raises(RankError):
            fit_decomposition(m, 3)
        with pytest.raises(RankError):
            fit_decomposition(m, -1)

    def test_center_and_normalize_options(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((30, 4)) + np.array([10.0, 0.0, 0.0, 0.0])
        m = one_language("en", rows)
        raw = fit_decomposition(m, 1)[0]
        centered = fit_decomposition(m, 1, center=True)[0]
        # raw leading direction is the offset axis; centering removes it
        assert abs(raw.basis[0, 0]) > 0.99
        assert abs(centered.basis[0, 0]) < 0.9
        normalized = fit_decomposition(m, 1, normalize=True)[0]
        assert normalized.rank == 1
        zero_row = one_language("en", np.vstack([rows, np.zeros(4)]))
        with pytest.raises(ZeroVectorError):
            fit_decomposition(zero_row, 1, normalize=True)

    def test_fit_decomposition_returns_spectrum(self):
        m = one_language("en", np.diag([3.0, 1.0]))
        basis, sigma = fit_decomposition(m, 1)
        assert np.allclose(sigma, [3.0, 1.0], atol=1e-12)
        assert basis.rank == 1

    @pytest.mark.parametrize("shape", [(50, 6), (4, 9)])
    def test_basis_is_leading_svd_columns_bitwise(self, shape):
        rows = np.random.default_rng(19).standard_normal(shape)
        rank = min(shape) - 1
        basis, sigma = fit_decomposition(one_language("en", rows), rank)
        res = svd(rows)
        assert basis.basis.tobytes() == res.v[:, :rank].copy().tobytes()
        assert sigma.tobytes() == res.sigma.tobytes()

    def test_rejects_empty_and_mixed_language_tables(self):
        with pytest.raises(InvalidMatrix, match=r"^cannot build a language matrix from zero records$"):
            fit_decomposition(EmbeddingTable([], [], np.empty((0, 2))), 0)
        mixed = EmbeddingTable(["a", "b"], ["en", "zh"], np.array([[1.0], [2.0]]))
        with pytest.raises(LanguageMismatch, match=r"^records span multiple languages: \['en', 'zh'\]$"):
            fit_decomposition(mixed, 1)

    def test_fingerprint_changes_with_lang(self):
        rows = np.ones((2, 2))
        assert (
            fit_decomposition(one_language("en", rows), 1)[0].source_fingerprint
            != fit_decomposition(one_language("zh", rows), 1)[0].source_fingerprint
        )

    def test_fingerprint_hashes_the_bytes_of_tobytes(self):
        # A Fortran-ordered or strided input is stored C-ordered, so the buffer
        # hashed is the rows' C-order bytes, as rows.tobytes() gives them.
        rows = np.random.default_rng(5).standard_normal((7, 3))
        for given in (rows, np.asfortranarray(rows), np.repeat(rows, 2, axis=0)[::2]):
            basis = fit_decomposition(one_language("en", given), 1)[0]
            assert basis.source_fingerprint == source_fingerprint_oracle("en", rows)


@pytest.mark.parametrize("lang", ["en", "zh-Hant", "日本語"])
@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (3, 4), (12, 5)])
@pytest.mark.parametrize("center, normalize", [(False, False), (True, False), (False, True), (True, True)])
def test_fit_decomposition_is_the_svd_of_the_prepared_rows(lang, shape, center, normalize):
    # At every rank: the leading V columns and the full spectrum of the rows,
    # normalized then centered, while sample_count and the fingerprint are
    # those of the table's own rows.
    rows = np.random.default_rng(sum(shape)).standard_normal(shape)
    data = rows / np.linalg.norm(rows, axis=1)[:, None] if normalize else rows
    data = data - data.mean(axis=0) if center else data
    res = svd(data)
    table = one_language(lang, rows)
    for rank in range(min(shape) + 1):
        basis, sigma = fit_decomposition(table, rank, center=center, normalize=normalize)
        assert basis.basis.tobytes() == res.v[:, :rank].copy().tobytes()
        assert sigma.tobytes() == res.sigma.tobytes()
        assert (basis.lang, basis.rank, basis.sample_count) == (lang, rank, shape[0])
        assert basis.source_fingerprint == source_fingerprint_oracle(lang, rows)


ROWS_7x3 = np.random.default_rng(5).standard_normal((7, 3))


@pytest.mark.parametrize("given", [
    ROWS_7x3,
    np.asfortranarray(ROWS_7x3),
    np.repeat(ROWS_7x3, 2, axis=0)[::2],
    ROWS_7x3.tolist(),
    ROWS_7x3.astype(np.float32),
    np.arange(21).reshape(7, 3) - 10,
    np.arange(21, dtype=np.int8).reshape(7, 3),
], ids=["c-order", "fortran", "strided", "list", "float32", "int64", "int8"])
def test_fit_decomposition_fits_the_float64_rows_the_table_holds(given):
    # Whatever form the rows were given in, the fit and its fingerprint are
    # those of the float64 matrix the table stores.
    table = one_language("en", given)
    expected = np.asarray(given, dtype=np.float64)
    assert table.rows.tobytes() == expected.tobytes()
    basis, sigma = fit_decomposition(table, 2)
    assert basis.basis.tobytes() == svd(expected).v[:, :2].copy().tobytes()
    assert sigma.tobytes() == svd(expected).sigma.tobytes()
    assert basis.source_fingerprint == source_fingerprint_oracle("en", expected)


@pytest.mark.parametrize("langs", [
    ["en", "zh"],
    ["zh", "en"],
    ["en", "en", "de"],
    ["de", "en", "zh", "en"],
    ["en", "EN"],
])
def test_mixed_language_table_raises_before_the_flags_and_rank(langs):
    table = EmbeddingTable([f"r{i}" for i in range(len(langs))], langs, np.ones((len(langs), 2)))
    message = re.escape(f"records span multiple languages: {sorted(set(langs))}")
    for kwargs in ({}, {"center": "x"}, {"normalize": 1}):
        with pytest.raises(LanguageMismatch, match=f"^{message}$"):
            fit_decomposition(table, 99, **kwargs)


@pytest.mark.parametrize("dim", [0, 1, 3, 768])
def test_empty_table_raises_before_the_flags_and_rank(dim):
    table = EmbeddingTable([], [], np.empty((0, dim)))
    for kwargs in ({}, {"center": "x"}, {"normalize": 1}):
        with pytest.raises(InvalidMatrix, match=r"^cannot build a language matrix from zero records$"):
            fit_decomposition(table, 99, **kwargs)


def test_one_tag_written_two_ways_is_one_language():
    # Tags are trimmed as the table is built, so " en " and "en" are one language.
    basis = fit_decomposition(EmbeddingTable(["a", "b"], ["en", " en "], np.eye(2)), 1)[0]
    assert basis.lang == "en" and basis.sample_count == 2


@pytest.mark.parametrize("value, kind", [
    (5, "int"),
    ("en", "str"),
    (None, "NoneType"),
    ([], "list"),
    ([EmbeddingRecord("a", "en", [1.0])], "list"),
    (np.ones((2, 2)), "ndarray"),
    (EmbeddingRecord("a", "en", [1.0]), "EmbeddingRecord"),
])
def test_fit_decomposition_takes_only_a_table(value, kind):
    with pytest.raises(ConfigError, match=f"^matrix must be of type EmbeddingTable, got {kind}$"):
        fit_decomposition(value, 1)


class TestRemove:
    def test_hand_example_both_modes(self):
        basis = axis_basis("en", 2, 0)
        r = rec("a", "en", [3.0, 4.0])
        assert np.allclose(remove_one(r, basis, RemovalMode.ORTHOGONAL).vec, [0.0, 4.0])
        assert np.allclose(remove_one(r, basis, RemovalMode.PAPER_EQ1).vec, [2.4, 4.0])

    def test_preserves_id_and_lang(self):
        basis = axis_basis("en", 2, 0)
        out = remove_one(rec("a", "en", [3.0, 4.0]), basis)
        assert (out.id, out.lang) == ("a", "en")

    def test_orthogonal_input_unchanged(self):
        basis = axis_basis("en", 3, 0)
        r = rec("a", "en", [0.0, 1.0, 2.0])
        for mode in RemovalMode:
            assert remove_one(r, basis, mode).vec.tolist() == [0.0, 1.0, 2.0]

    def test_language_mismatch(self):
        basis = axis_basis("zh", 2, 0)
        r = rec("a", "en", [3.0, 4.0])
        with pytest.raises(LanguageMismatch, match=r"^record 'a' is 'en' but basis is for 'zh'$"):
            remove_one(r, basis)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            remove_one(rec("a", "en", [1.0, 2.0, 3.0]), axis_basis("en", 2, 0))
        bases = {"en": axis_basis("en", 2, 0)}
        wide = rec("w", "en", [1.0, 2.0, 3.0])
        orphan = rec("z", "zh", [1.0, 2.0])
        good = rec("g", "en", [1.0, 2.0])
        with pytest.raises(DimensionError, match=r"^record 'w' has dimension 3, basis expects 2$"):
            remove_batch([good, wide, orphan], bases)
        with pytest.raises(MissingBasis) as exc_info:
            remove_batch([good, orphan, wide], bases)
        assert exc_info.value.lang == "zh"

    def test_zero_vector_scaled_mode(self):
        with pytest.raises(ZeroVectorError):
            remove_one(rec("a", "en", [0.0, 0.0]), axis_basis("en", 2, 0), RemovalMode.PAPER_EQ1)

    def test_orthogonal_idempotent_and_contractive(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 8))
        basis = fit_decomposition(one_language("en", rows), 2)[0]
        for i in range(20):
            r = rec(f"r{i}", "en", rng.standard_normal(8) * 10.0)
            once = remove_one(r, basis)
            twice = remove_one(once, basis)
            assert twice.vec.tobytes() == once.vec.tobytes()
            assert np.linalg.norm(once.vec) <= np.linalg.norm(r.vec) + 1e-12


class TestRemoveBatch:
    def test_empty(self):
        result = remove_batch([], {"en": axis_basis("en", 2, 0)})
        assert result.records == ()
        assert result.passed_count == 0

    def test_per_language_dispatch(self):
        bases = {"en": axis_basis("en", 2, 0), "zh": axis_basis("zh", 2, 1)}
        records = [rec("e", "en", [1.0, 2.0]), rec("z", "zh", [1.0, 2.0])]
        out = remove_batch(records, bases).records
        assert np.allclose(out[0].vec, [0.0, 2.0])  # en loses axis 0
        assert np.allclose(out[1].vec, [1.0, 0.0])  # zh loses axis 1

    def test_order_preserved(self):
        bases = {"en": axis_basis("en", 2, 0)}
        records = [rec(f"r{i}", "en", [float(i), 1.0]) for i in range(10)]
        out = remove_batch(records, bases).records
        assert [r.id for r in out] == [r.id for r in records]

    def test_strict_missing_basis(self):
        bases = {"en": axis_basis("en", 2, 0)}
        orphan = rec("z", "zh", [1.0, 2.0])
        with pytest.raises(MissingBasis) as exc_info:
            remove_batch([orphan], bases)
        assert exc_info.value.lang == "zh"
        wide = rec("w", "en", [1.0, 2.0, 3.0])
        with pytest.raises(MissingBasis, match="zh") as exc_info:
            remove_batch([rec("g", "en", [1.0, 2.0]), orphan, wide], bases)
        assert exc_info.value.lang == "zh"
        with pytest.raises(DimensionError, match=r"^record 'w' has dimension 3, basis expects 2$"):
            remove_batch([wide, orphan], bases)

    @pytest.mark.parametrize("mode", list(RemovalMode))
    def test_first_bad_record_in_input_order_raises(self, mode):
        # Grouping by language must raise what a record-by-record loop raises.
        bases = {"en": axis_basis("en", 2, 0), "de": axis_basis("de", 2, 1), "fr": axis_basis("de", 2, 1)}
        bad = {
            "missing": rec("z", "zh", [1.0, 2.0]),
            "dim": rec("w", "en", [1.0, 2.0, 3.0]),
            "lang": rec("f", "fr", [1.0, 2.0]),
            "zero": rec("0", "en", [0.0, 0.0]),
        }
        good = [rec("a", "en", [1.0, 2.0]), rec("b", "de", [3.0, 4.0])]

        def per_record(records):
            for r in records:
                if r.lang not in bases:
                    raise MissingBasis(r.lang)
                remove_one(r, bases[r.lang], mode)

        for first in bad:
            for second in bad:
                if second == first:
                    continue
                batch = [good[0], bad[first], good[1], bad[second]]
                try:
                    per_record(batch)
                except lir.LirError as exc:
                    expected = exc
                else:
                    expected = None
                if expected is None:  # a zero vector is fine in orthogonal mode
                    remove_batch(batch, bases, mode)
                    continue
                with pytest.raises(type(expected)) as exc_info:
                    remove_batch(batch, bases, mode)
                assert str(exc_info.value) == str(expected)

    def test_scaled_mode_zero_vector(self):
        records = [rec("a", "en", [1.0, 2.0]), rec("0", "en", [0.0, 0.0])]
        with pytest.raises(ZeroVectorError, match="undefined for a zero vector"):
            remove_batch(records, {"en": axis_basis("en", 2, 0)}, RemovalMode.PAPER_EQ1)

    def test_non_strict_pass_through(self):
        bases = {"en": axis_basis("en", 2, 0)}
        records = [rec("e", "en", [1.0, 2.0]), rec("z1", "zh", [1.0, 2.0]), rec("z2", "zh", [3.0, 4.0])]
        result = remove_batch(records, bases, strict=False)
        assert result.passed_through == {"zh": 2}
        assert result.passed_count == 2
        assert result.records[1].vec.tolist() == [1.0, 2.0]

    def test_sequential_rerun_bitwise_identical(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((40, 6))
        basis = fit_decomposition(one_language("en", rows), 1)[0]
        records = [rec(f"r{i}", "en", rng.standard_normal(6)) for i in range(25)]
        a = remove_batch(records, {"en": basis})
        b = remove_batch(records, {"en": basis})
        assert all(x.vec.tobytes() == y.vec.tobytes() for x, y in zip(a.records, b.records))


class TestOnSyntheticData:
    def test_centroid_collapse(self):
        cfg = lir.SynthConfig(
            languages=("l00", "l01", "l02", "l03"),
            topics=20,
            per_topic_per_lang=15,
            dim=32,
            bias_scale=5.0,
            semantic_scale=1.0,
            noise_scale=0.1,
            seed=6,
        )
        res = lir.generate(cfg)
        bases = {
            lang: fit_decomposition(language_rows(res, lang), 1)[0]
            for lang in cfg.languages
        }

        def max_centroid_dist(records):
            centroids = {
                lang: np.mean([r.vec for r in records if r.lang == lang], axis=0)
                for lang in cfg.languages
            }
            keys = sorted(centroids)
            return max(
                np.linalg.norm(centroids[a] - centroids[b])
                for i, a in enumerate(keys)
                for b in keys[i + 1 :]
            )

        records = records_of(res.table)
        pre = max_centroid_dist(records)
        post = max_centroid_dist(remove_batch(records, bases).records)
        assert pre >= 10.0 * post

    def test_basis_stable_across_disjoint_samples(self):
        cfg = lir.SynthConfig(
            languages=("l00", "l01"),
            topics=20,
            per_topic_per_lang=200,
            dim=32,
            bias_scale=5.0,
            semantic_scale=1.0,
            noise_scale=0.1,
            seed=11,
        )
        res = lir.generate(cfg)
        table = language_rows(res, "l00")
        first = fit_decomposition(_take(table, slice(None, 2000)), 1)[0]
        second = fit_decomposition(_take(table, slice(2000, None)), 1)[0]
        cos = abs(float(first.basis[:, 0] @ second.basis[:, 0]))
        assert cos >= 0.99

    def test_top1_neighbor_recovers_topics(self):
        # With bias >= 5x the semantic scale, the nearest neighbor outside a
        # query's own (language, topic) group is same-language noise before
        # removal and a same-topic cross-language record after removal.
        cfg = lir.SynthConfig(
            languages=("l00", "l01", "l02", "l03"),
            topics=20,
            per_topic_per_lang=10,
            dim=48,
            bias_scale=5.0,
            semantic_scale=1.0,
            noise_scale=0.1,
            seed=12,
        )
        res = lir.generate(cfg)
        bases = {
            lang: fit_decomposition(language_rows(res, lang), 1)[0]
            for lang in cfg.languages
        }

        def top1_fraction(records):
            mat = np.stack([r.vec for r in records])
            norms = np.linalg.norm(mat, axis=1)
            topics = np.array([r.id.rsplit("-", 2)[1] for r in records])
            langs = np.array([r.lang for r in records])
            hits = total = 0
            for i, r in enumerate(records):
                if r.id not in res.query_ids:
                    continue
                mask = ~((langs == langs[i]) & (topics == topics[i]))
                sims = mat[mask] @ mat[i] / (norms[mask] * norms[i])
                hits += int(topics[mask][int(np.argmax(sims))] == topics[i])
                total += 1
            return hits / total

        records = records_of(res.table)
        assert top1_fraction(records) < 0.2
        assert top1_fraction(remove_batch(records, bases).records) > 0.9


class TestMatrixRemoval:
    """_remove_rows on one matrix: in place, per language, in row blocks."""

    @staticmethod
    def interleaved(rng, n=240, d=6):
        # Languages a and b interleave at random, c holds one contiguous run,
        # and zz has no basis.
        langs = [str(x) for x in rng.choice(["a", "b", "zz"], size=n, p=[0.45, 0.45, 0.1])]
        langs[100:160] = ["c"] * 60
        rows = rng.standard_normal((n, d)) + 3.0 * (np.arange(n) % 3 == 0)[:, None]
        bases = {
            lang: fit_decomposition(one_language(lang, rng.standard_normal((40, d)) + i), 2)[0]
            for i, lang in enumerate("abc")
        }
        return [f"r{i:03d}" for i in range(n)], langs, rows, bases

    @pytest.mark.parametrize("block", [None, 1, 5 * 6 + 1])
    @pytest.mark.parametrize("mode", list(RemovalMode))
    def test_blocks_match_one_kernel_call_per_language(self, block, mode, monkeypatch):
        if block is not None:
            monkeypatch.setattr(lir.removal, "_BLOCK", block)
        ids, langs, rows, bases = self.interleaved(np.random.default_rng(61))
        kernel = lir.project_out_scaled if mode is RemovalMode.PAPER_EQ1 else lir.project_out
        expected = rows.copy()
        for lang, basis in bases.items():
            idx = [i for i, x in enumerate(langs) if x == lang]
            expected[idx] = kernel(rows[idx], basis.basis)
        out = rows.copy()
        passed = lir.removal._remove_rows(ids, langs, out, bases, mode, strict=False)
        assert passed == {"zz": langs.count("zz")}
        assert out.tobytes() == expected.tobytes()
        with pytest.raises(MissingBasis):
            lir.removal._remove_rows(ids, langs, rows.copy(), bases, mode)

    @pytest.mark.parametrize("mode", list(RemovalMode))
    def test_first_bad_row_in_input_order_raises(self, mode):
        # A matrix raises what a record-by-record loop raises, and changes nothing.
        bases = {
            "en": axis_basis("en", 2, 0),
            "de": axis_basis("de", 2, 1),
            "fr": axis_basis("de", 2, 1),
            "xx": axis_basis("xx", 3, 1),
        }
        bad = {"missing": ("zh", [1.0, 2.0]), "dim": ("xx", [1.0, 2.0]),
               "lang": ("fr", [1.0, 2.0]), "zero": ("en", [0.0, 0.0])}
        good = [("en", [1.0, 2.0]), ("de", [3.0, 4.0])]
        for first in bad:
            for second in bad:
                if second == first:
                    continue
                batch = [good[0], good[1], bad[first], good[0], bad[second], good[1]]
                ids = [f"r{i}" for i in range(len(batch))]
                langs = [lang for lang, _ in batch]
                rows = np.array([vec for _, vec in batch])
                expected = None
                try:
                    for rid, (lang, vec) in zip(ids, batch):
                        if lang not in bases:
                            raise MissingBasis(lang)
                        remove_one(rec(rid, lang, vec), bases[lang], mode)
                except lir.LirError as exc:
                    expected = exc
                out = rows.copy()
                if expected is None:  # a zero row is fine in orthogonal mode
                    lir.removal._remove_rows(ids, langs, out, bases, mode)
                    continue
                with pytest.raises(type(expected)) as exc_info:
                    lir.removal._remove_rows(ids, langs, out, bases, mode)
                assert str(exc_info.value) == str(expected)
                assert out.tobytes() == rows.tobytes()

    def test_peak_memory_is_bounded_blocks(self):
        # The parent's gathered copy and kernel output were 0.55x this matrix.
        rng = np.random.default_rng(62)
        n, d = 20000, 128
        langs = [str(x) for x in rng.choice(["a", "b"], size=n)]
        basis = np.linalg.qr(rng.standard_normal((d, 4)))[0]
        bases = {
            lang: ComponentBasis(lang=lang, basis=basis, rank=4, source_fingerprint="f", sample_count=d)
            for lang in "ab"
        }
        rows = rng.standard_normal((n, d))
        ids = [f"r{i}" for i in range(n)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lir.removal._remove_rows(ids, langs, rows, bases, RemovalMode.ORTHOGONAL)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # A gathered block, the kernel's output and its temporaries, and the
        # per-row bookkeeping (language groups and dimensions).
        assert peak <= 8 * 3 * lir.removal._BLOCK + 96 * n
