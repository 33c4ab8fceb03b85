import tracemalloc

import numpy as np
import pytest

import lir
from lir import (
    ComponentBasis,
    DimensionError,
    EmbeddingRecord,
    LanguageMatrix,
    LanguageMismatch,
    MissingBasis,
    RankError,
    RemovalMode,
    ZeroVectorError,
    fit_components,
    fit_decomposition,
    remove,
    remove_batch,
    svd,
)


def rec(rid, lang, vec):
    return EmbeddingRecord(id=rid, lang=lang, vec=np.asarray(vec, dtype=float))


def axis_basis(lang, d, axis):
    basis = np.zeros((d, 1))
    basis[axis, 0] = 1.0
    return ComponentBasis(
        lang=lang, basis=basis, rank=1, source_fingerprint="axis", sample_count=d
    )


class TestFitComponents:
    def test_diag_2_1_rank_1(self):
        m = LanguageMatrix(lang="en", rows=np.diag([2.0, 1.0]))
        basis = fit_components(m, 1)
        assert np.allclose(basis.basis[:, 0], [1.0, 0.0], atol=1e-12)
        assert basis.rank == 1
        assert basis.sample_count == 2
        assert basis.source_fingerprint == m.fingerprint()

    def test_rank_zero_gives_identity_removal(self):
        m = LanguageMatrix(lang="en", rows=np.arange(6.0).reshape(3, 2) + 1.0)
        basis = fit_components(m, 0)
        assert basis.rank == 0
        r = rec("a", "en", [1.5, -2.5])
        out = remove(r, basis)
        assert out.vec.tobytes() == r.vec.tobytes()

    def test_matches_svd_columns_bitwise(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((12, 5))
        m = LanguageMatrix(lang="en", rows=rows)
        full_v = svd(rows).v
        for r in range(6):
            basis = fit_components(m, r)
            assert basis.basis.tobytes() == full_v[:, :r].copy().tobytes()

    def test_dominant_mean_direction(self):
        # rows = mu + small noise: top component aligns with mu
        rng = np.random.default_rng(1)
        mu = rng.standard_normal(10)
        noise = 0.01 * np.linalg.norm(mu) * rng.standard_normal((200, 10))
        m = LanguageMatrix(lang="en", rows=mu + noise)
        basis = fit_components(m, 1)
        cos = abs(float(basis.basis[:, 0] @ (mu / np.linalg.norm(mu))))
        assert cos >= 0.99

    def test_rank_out_of_range(self):
        m = LanguageMatrix(lang="en", rows=np.ones((3, 2)))
        with pytest.raises(RankError):
            fit_components(m, 3)
        with pytest.raises(RankError):
            fit_components(m, -1)

    def test_center_and_normalize_options(self):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((30, 4)) + np.array([10.0, 0.0, 0.0, 0.0])
        m = LanguageMatrix(lang="en", rows=rows)
        raw = fit_components(m, 1)
        centered = fit_components(m, 1, center=True)
        # raw leading direction is the offset axis; centering removes it
        assert abs(raw.basis[0, 0]) > 0.99
        assert abs(centered.basis[0, 0]) < 0.9
        normalized = fit_components(m, 1, normalize=True)
        assert normalized.rank == 1
        zero_row = LanguageMatrix(lang="en", rows=np.vstack([rows, np.zeros(4)]))
        with pytest.raises(ZeroVectorError):
            fit_components(zero_row, 1, normalize=True)

    def test_fit_decomposition_returns_spectrum(self):
        m = LanguageMatrix(lang="en", rows=np.diag([3.0, 1.0]))
        basis, sigma = fit_decomposition(m, 1)
        assert np.allclose(sigma, [3.0, 1.0], atol=1e-12)
        assert basis.rank == 1

    @pytest.mark.parametrize("shape", [(50, 6), (4, 9)])
    def test_basis_is_leading_svd_columns_bitwise(self, shape):
        rows = np.random.default_rng(19).standard_normal(shape)
        rank = min(shape) - 1
        basis, sigma = fit_decomposition(LanguageMatrix(lang="en", rows=rows), rank)
        res = svd(rows)
        assert basis.basis.tobytes() == res.v[:, :rank].copy().tobytes()
        assert sigma.tobytes() == res.sigma.tobytes()


class TestRemove:
    def test_hand_example_both_modes(self):
        basis = axis_basis("en", 2, 0)
        r = rec("a", "en", [3.0, 4.0])
        assert np.allclose(remove(r, basis, RemovalMode.ORTHOGONAL).vec, [0.0, 4.0])
        assert np.allclose(remove(r, basis, RemovalMode.PAPER_EQ1).vec, [2.4, 4.0])

    def test_preserves_id_and_lang(self):
        basis = axis_basis("en", 2, 0)
        out = remove(rec("a", "en", [3.0, 4.0]), basis)
        assert (out.id, out.lang) == ("a", "en")

    def test_orthogonal_input_unchanged(self):
        basis = axis_basis("en", 3, 0)
        r = rec("a", "en", [0.0, 1.0, 2.0])
        for mode in RemovalMode:
            assert remove(r, basis, mode).vec.tolist() == [0.0, 1.0, 2.0]

    def test_language_mismatch(self):
        basis = axis_basis("zh", 2, 0)
        r = rec("a", "en", [3.0, 4.0])
        with pytest.raises(LanguageMismatch):
            remove(r, basis)
        out = remove(r, basis, allow_language_mismatch=True)
        assert np.allclose(out.vec, [0.0, 4.0])
        assert out.lang == "en"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            remove(rec("a", "en", [1.0, 2.0, 3.0]), axis_basis("en", 2, 0))
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
            remove(rec("a", "en", [0.0, 0.0]), axis_basis("en", 2, 0), RemovalMode.PAPER_EQ1)

    def test_orthogonal_idempotent_and_contractive(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((50, 8))
        basis = fit_components(LanguageMatrix(lang="en", rows=rows), 2)
        for i in range(20):
            r = rec(f"r{i}", "en", rng.standard_normal(8) * 10.0)
            once = remove(r, basis)
            twice = remove(once, basis)
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
                remove(r, bases[r.lang], mode)

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
        basis = fit_components(LanguageMatrix(lang="en", rows=rows), 1)
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
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 1)
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

        pre = max_centroid_dist(res.records)
        post = max_centroid_dist(remove_batch(res.records, bases).records)
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
        records = res.records_for("l00")
        first = fit_components(LanguageMatrix.from_records(records[:2000]), 1)
        second = fit_components(LanguageMatrix.from_records(records[2000:]), 1)
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
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 1)
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

        assert top1_fraction(res.records) < 0.2
        assert top1_fraction(remove_batch(res.records, bases).records) > 0.9


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
            lang: fit_components(LanguageMatrix(lang=lang, rows=rng.standard_normal((40, d)) + i), 2)
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

    @pytest.mark.parametrize("mode", [*RemovalMode, "unknown"])
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
                        remove(rec(rid, lang, vec), bases[lang], mode)
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
