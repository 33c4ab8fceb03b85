import contextlib
import json
import math
import re
import tracemalloc
import warnings
import weakref
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

import lir
from lir import (
    ConfigError,
    DatasetError,
    DegenerateLabels,
    DimensionError,
    EmbeddingRecord,
    LanguageMatrix,
    LogisticConfig,
    NoRelevantError,
    RankedList,
    RetrievalDataset,
    average_precision,
    evaluate_retrieval,
    evaluate_transfer,
    export_projection,
    fit_components,
    logistic_loss,
    predict_logistic,
    train_logistic,
)
from lir.core import _lent_rows
from lir.evaluation import (
    _ap_from_positions,
    _candidate_stack,
    _certified_positions,
    _cosine_scores,
    _fixed_point_sum,
    _id_ranks,
    _relevant_positions,
    _sigmoid,
)
from lir.io import report_json, report_to_dict
from lir.removal import DEFAULT_MODE
from oracles import (
    ap_fixed_point_oracle,
    average_precision_oracle,
    evaluate_retrieval_oracle,
    logistic_gd_oracle,
    rank_oracle,
    sigmoid_oracle,
)


def rec(rid, lang, vec):
    return EmbeddingRecord(id=rid, lang=lang, vec=np.asarray(vec, dtype=float))


def retrieval_order(qvec, cands):
    """The candidate ids in evaluate_retrieval's rank order for one query
    vector. Each candidate gets its own query (that vector, its own language)
    with that candidate as the one relevant row, so the query's AP is 1/rank.
    The report must be the oracle's, byte for byte."""
    queries = [rec(f"q{i}", f"x{i}", qvec) for i in range(len(cands))]
    ds = RetrievalDataset(queries, cands, {f"q{i}": {c.id} for i, c in enumerate(cands)})
    report = evaluate_retrieval(ds)
    assert report_json(report) == report_json(evaluate_retrieval_oracle(ds))
    rank = {c.id: round(1 / report.per_language_map[f"x{i}"]) for i, c in enumerate(cands)}
    assert sorted(rank.values()) == list(range(1, len(cands) + 1))
    return sorted(rank, key=rank.get)


class TestRetrievalOrder:
    """Ranks are by descending cosine, ties by ascending candidate id."""

    def test_basic_order(self):
        cands = [rec("a", "en", [1.0, 0.0]), rec("b", "en", [0.0, 1.0]), rec("c", "en", [-1.0, 0.0])]
        assert retrieval_order([1.0, 0.0], cands) == ["a", "b", "c"]

    def test_ties_broken_by_id(self):
        q = [1.0, 0.0]
        cands = [rec("z", "en", [2.0, 0.0]), rec("a", "en", [1.0, 0.0])]
        assert retrieval_order(q, cands) == ["a", "z"]
        # Many exact ties, in shuffled id order: each score level lists ids ascending.
        directions = ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        ids = [f"c{i:03d}" for i in np.random.default_rng(2).permutation(200)]
        cands = [rec(cid, "en", directions[i % 3]) for i, cid in enumerate(ids)]
        expected = sorted(ids, key=lambda cid: (ids.index(cid) % 3, cid))
        assert retrieval_order(q, cands) == expected

    def test_ids_keep_trailing_nul(self):
        cands = [rec("a", "en", [0.0, 1.0]), rec("a\x00", "en", [1.0, 0.0])]
        assert retrieval_order([1.0, 0.0], cands) == ["a\x00", "a"]
        tied = [rec("a\x00", "en", [1.0, 0.0]), rec("a", "en", [2.0, 0.0])]
        assert retrieval_order([1.0, 0.0], tied) == ["a", "a\x00"]

    def test_duplicate_rows_tie_by_id_at_any_position(self):
        # 401 distinct vectors, 5 copies each under shuffled ids. The row
        # count is off any kernel block multiple, so a BLAS gemv would round
        # the tail rows differently from their copies elsewhere.
        rng = np.random.default_rng(23)
        base = rng.standard_normal((401, 64))
        group = np.repeat(np.arange(401), 5)
        ids = [f"c{i:04d}" for i in rng.permutation(group.size)]
        cands = [rec(cid, "en", base[g]) for cid, g in zip(ids, group)]
        group_of = dict(zip(ids, group.tolist()))
        cmat, cnorms = _candidate_stack(lir.EmbeddingTable.from_records(cands), None, DEFAULT_MODE)
        for _ in range(10):
            scores = _cosine_scores(cmat, cnorms, rng.standard_normal(64)).reshape(401, 5)
            assert (scores == scores[:, :1]).all()

        # Half of each group is relevant, so AP sees any reorder inside a group.
        queries = [rec(f"q{i:02d}", "en", rng.standard_normal(64)) for i in range(20)]
        members = {}
        for cid in ids:
            members.setdefault(group_of[cid], []).append(cid)
        qrels = {
            q.id: {cid for g in range(i, 401, 20) for cid in sorted(members[g])[:2]}
            for i, q in enumerate(queries)
        }

        def order_free_json(candidates):
            # The candidate fingerprint identifies the input order on purpose.
            report = evaluate_retrieval(RetrievalDataset(queries, candidates, qrels))
            out = report_to_dict(report)
            del out["config"]["candidates_fingerprint"]
            return json.dumps(out, sort_keys=True)

        ds = RetrievalDataset(queries, cands, qrels)
        assert report_json(evaluate_retrieval(ds)) == report_json(evaluate_retrieval_oracle(ds))
        reference = order_free_json(cands)
        for _ in range(3):
            shuffled = list(cands)
            rng.shuffle(shuffled)
            assert order_free_json(shuffled) == reference

    def test_zero_vectors_score_zero(self):
        cands = [rec("a", "en", [0.0, 0.0]), rec("b", "en", [-1.0, 0.0]), rec("c", "en", [0.5, 0.0])]
        # zero candidate scores 0, strictly between +0.5 and -1 cosines
        assert retrieval_order([1.0, 0.0], cands) == ["c", "a", "b"]
        assert retrieval_order([0.0, 0.0], cands) == ["a", "b", "c"]

    def test_cosine_survives_norm_overflow(self):
        # Plain norms of these rows and of the query overflow to inf.
        cands = [rec("a", "en", [1.0, 2.0, 0.0]), rec("b", "en", [1e200, 1e200, 0.0])]
        cands.append(rec("z", "en", [0.0, 0.0, 0.0]))
        query = np.array([2e300, 1e300, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cmat, cnorms = _candidate_stack(lir.EmbeddingTable.from_records(cands), None, DEFAULT_MODE)
            scores = _cosine_scores(cmat, cnorms, query)
            assert retrieval_order(query, cands) == ["b", "a", "z"]
        assert abs(scores[0] - 0.8) <= 1e-12
        assert abs(scores[1] - 3 / math.sqrt(10)) <= 1e-12
        assert scores[2] == 0.0
        # A score whose norms and dot product are finite keeps the plain formula's bits.
        rows = np.random.default_rng(4).standard_normal((50, 6)) * np.logspace(-150, 150, 50)[:, None]
        for vec in (rows[7], rows[42] * 1e3):
            norms = np.linalg.norm(rows, axis=1)
            plain = np.einsum("ij,j->i", rows, vec) / (norms * np.linalg.norm(vec))
            assert _cosine_scores(rows, norms, vec).tobytes() == plain.tobytes()

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            d = int(rng.integers(2, 8))
            q = rng.standard_normal(d)
            cands = [rec(f"c{i}", "en", rng.standard_normal(d)) for i in range(5)]
            assert retrieval_order(q, cands) == rank_oracle(q, [(c.id, c.vec) for c in cands])


class TestAveragePrecision:
    def test_five_sixths_fixture(self):
        ranking = RankedList(query_id="q", candidate_ids=("r1", "x", "r2"))
        ap = average_precision(ranking, {"r1", "r2"})
        assert ap == float(Fraction(5, 6))

    def test_all_relevant_first(self):
        ranking = RankedList(query_id="q", candidate_ids=("a", "b", "c", "d"))
        assert average_precision(ranking, {"a", "b"}) == 1.0

    def test_single_relevant_last(self):
        n = 7
        ids = tuple(f"c{i}" for i in range(n))
        assert average_precision(RankedList("q", ids), {ids[-1]}) == 1.0 / n

    def test_empty_relevant_rejected(self):
        with pytest.raises(NoRelevantError):
            average_precision(RankedList("q", ("a",)), set())

    def test_relevant_must_be_ranked(self):
        with pytest.raises(DatasetError):
            average_precision(RankedList("q", ("a",)), {"missing"})

    def test_matches_rational_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 25))
            ids = [f"c{i}" for i in range(n)]
            rng.shuffle(ids)
            n_rel = int(rng.integers(1, n + 1))
            relevant = set(rng.choice(ids, size=n_rel, replace=False).tolist())
            got = average_precision(RankedList("q", tuple(ids)), relevant)
            assert got == float(average_precision_oracle(ids, relevant))
            assert 0.0 <= got <= 1.0

    def test_position_formula_matches_oracle_at_scale(self):
        # Up to 3000 ids and 1000 relevant: the lcm of the positions runs to
        # hundreds of digits, and the one rounding must still be exact.
        rng = np.random.default_rng(29)
        sizes = [(3000, 1000), (2999, 997), (1, 1)]
        sizes += [(int(n), int(rng.integers(1, min(n, 1000) + 1))) for n in rng.integers(1, 3001, 8)]
        for n, n_rel in sizes:
            ids = [f"c{i}" for i in rng.permutation(n)]
            relevant = set(rng.choice(ids, size=n_rel, replace=False).tolist())
            expected = float(average_precision_oracle(ids, relevant))
            positions = [pos for pos, cid in enumerate(ids, start=1) if cid in relevant]
            assert _ap_from_positions(positions) == expected
            assert average_precision(RankedList("q", tuple(ids)), relevant) == expected

    @pytest.mark.parametrize("bits", [128, 56, 52, 6, 0])
    def test_fixed_point_matches_oracle(self, bits, monkeypatch):
        # Few fraction bits leave the fixed-point interval straddling a
        # rounding boundary, so the lcm fallback must give the answer.
        monkeypatch.setattr(lir.evaluation, "_AP_BITS", bits)
        lcm_calls, lcm = [], math.lcm
        monkeypatch.setattr(lir.evaluation.math, "lcm", lambda *p: lcm_calls.append(p) or lcm(*p))
        rng = np.random.default_rng(43)
        for trial in range(60):
            n = int(rng.integers(1, 300))
            ids = [f"c{i}" for i in rng.permutation(n)]
            relevant = set(rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            positions = [pos for pos, cid in enumerate(ids, start=1) if cid in relevant]
            assert _ap_from_positions(positions) == float(average_precision_oracle(ids, relevant))
        assert _ap_from_positions([1, 2, 3]) == 1.0
        assert bool(lcm_calls) == (bits < 64)

    def test_one_iff_relevant_on_top(self):
        ids = ("a", "b", "c", "d")
        assert average_precision(RankedList("q", ids), {"a", "c"}) < 1.0
        assert average_precision(RankedList("q", ids), {"a", "b"}) == 1.0

    @pytest.mark.parametrize("bits", [128, 56, 52, 6, 0])
    def test_fixed_point_sum_matches_big_int_sum(self, bits, monkeypatch):
        # The uint64 digit division against Python integers: one rank, 2,000
        # random ranks, ranks just below 2^31 and 2^32, and the exact-AP cases.
        monkeypatch.setattr(lir.evaluation, "_AP_BITS", bits)
        rng = np.random.default_rng(64)
        cases = [[1], [7], [2**32 - 1], list(range(1, 2001))]
        cases.append(np.sort(rng.choice(10**6, 2000, replace=False) + 1).tolist())
        cases.append(np.sort(rng.choice(2**32 - 1, 2000, replace=False) + 1).tolist())
        cases.append(list(range(2**31 - 2000, 2**31 + 1)))
        cases.append(list(range(2**32 - 2000, 2**32)))
        for n in (3000, 2999, 300, 25):
            ids = [f"c{i}" for i in rng.permutation(n)]
            relevant = set(rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False).tolist())
            cases.append([pos for pos, cid in enumerate(ids, start=1) if cid in relevant])
        for positions in cases:
            assert _fixed_point_sum(positions) == ap_fixed_point_oracle(positions, bits)


def axis_basis(lang, d, axis):
    basis = np.zeros((d, 1))
    basis[axis, 0] = 1.0
    return lir.ComponentBasis(
        lang=lang, basis=basis, rank=1, source_fingerprint="axis", sample_count=d
    )


def two_lang_dataset():
    queries = [
        rec("q-en", "en", [1.0, 0.0, 0.0]),
        rec("q-zh-1", "zh", [0.0, 1.0, 0.0]),
        rec("q-zh-2", "zh", [0.0, 0.0, 1.0]),
    ]
    candidates = [
        rec("c1", "en", [1.0, 0.0, 0.0]),
        rec("c2", "zh", [0.0, 1.0, 0.0]),
        rec("c3", "zh", [0.0, 0.1, 1.0]),
        rec("c4", "en", [0.5, 0.5, 0.0]),
    ]
    qrels = {"q-en": {"c1"}, "q-zh-1": {"c3"}, "q-zh-2": {"c3"}}
    return RetrievalDataset(queries=queries, candidates=candidates, qrels=qrels)


class TestEvaluateRetrieval:
    def test_perfect_single_query(self):
        ds = RetrievalDataset(
            queries=[rec("q", "en", [1.0, 0.0])],
            candidates=[rec("c1", "en", [2.0, 0.0]), rec("c2", "en", [0.0, 1.0])],
            qrels={"q": {"c1"}},
        )
        report = evaluate_retrieval(ds)
        assert report.overall_map == 1.0
        assert report.query_count == 1
        assert report.config["rank"] == 0

    def test_overall_is_query_mean_not_language_mean(self):
        ds = two_lang_dataset()
        report = evaluate_retrieval(ds)
        # one en query with AP 1.0, two zh queries: overall weights queries,
        # not languages
        r_en = report.per_language_map["en"]
        r_zh = report.per_language_map["zh"]
        assert r_en == 1.0
        assert report.overall_map == pytest.approx((r_en + 2 * r_zh) / 3, abs=1e-12)
        assert report.overall_map != pytest.approx((r_en + r_zh) / 2, abs=1e-6)

    def test_rank_zero_bases_bitwise_equal_to_no_bases(self):
        ds = two_lang_dataset()
        bases = {
            lang: lir.ComponentBasis(
                lang=lang,
                basis=np.zeros((3, 0)),
                rank=0,
                source_fingerprint="r0",
                sample_count=3,
            )
            for lang in ("en", "zh")
        }
        plain = evaluate_retrieval(ds)
        with_r0 = evaluate_retrieval(ds, bases)
        assert report_json(plain) == report_json(with_r0)

    def test_missing_language_basis_is_strict(self):
        ds = two_lang_dataset()
        bases = {
            "en": lir.ComponentBasis(
                lang="en", basis=np.zeros((3, 0)), rank=0, source_fingerprint="x", sample_count=1
            )
        }
        with pytest.raises(lir.MissingBasis):
            evaluate_retrieval(ds, bases)

    def test_basis_of_wrong_dimension(self):
        bases = {lang: axis_basis(lang, 2, 0) for lang in ("en", "zh")}
        with pytest.raises(DimensionError, match="basis expects 2"):
            evaluate_retrieval(two_lang_dataset(), bases)

    def test_removal_changes_ranking(self):
        cfg = lir.SynthConfig(
            languages=("l00", "l01", "l02"),
            topics=8,
            per_topic_per_lang=6,
            dim=16,
            bias_scale=5.0,
            semantic_scale=1.0,
            noise_scale=0.1,
            seed=3,
        )
        res = lir.generate(cfg)
        ds = res.retrieval_dataset()
        bases = {
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 1)
            for lang in cfg.languages
        }
        before = evaluate_retrieval(ds)
        after = evaluate_retrieval(ds, bases)
        assert after.overall_map - before.overall_map >= 0.3
        assert after.config["rank"] == 1
        assert set(after.per_language_map) == set(cfg.languages)

    def test_per_query_ap_matches_ranking_with_exact_ties(self):
        # Exact ties from repeated rows, rows scaled by powers of two, zero
        # rows (score 0) and rows whose norm and dot product overflow (scored
        # after rescaling). Each query has its own language, so the
        # per-language MAP is that query's AP. The reference sorts by the
        # library's einsum scores, which define the ranks, one row at a time.
        rng = np.random.default_rng(31)
        base = rng.standard_normal((40, 8))
        vecs = [base[int(g)] * float(s) for g, s in zip(rng.integers(0, 40, 240), rng.choice([1, 2, 4], 240))]
        vecs += [np.zeros(8)] * 30 + [base[int(g)] * 1e307 for g in rng.integers(0, 40, 30)]
        ids = [f"c{i:03d}" for i in rng.permutation(len(vecs))]
        cands = [rec(cid, "en", v) for cid, v in zip(ids, vecs)]
        queries = [rec(f"q{i:02d}", f"x{i:02d}", base[i % 40] if i % 3 else rng.standard_normal(8)) for i in range(36)]
        queries += [rec("q-zero", "x-zero", np.zeros(8)), rec("q-huge", "x-huge", base[0] * 1e300)]
        qrels = {
            q.id: set(rng.choice(ids, size=int(rng.integers(1, 40)), replace=False).tolist())
            for q in queries
        }
        qrels["q-huge"] |= set(ids[-30:-20])  # overflowing rows among the relevant ones

        def einsum_score(qvec, vec):
            return _cosine_scores(vec[None], np.linalg.norm(vec[None], axis=1), qvec)[0]

        huge = [(c.id, c.vec) for c in cands if np.abs(c.vec).max() > 1e300]
        with np.errstate(over="ignore", invalid="ignore"):
            report = evaluate_retrieval(RetrievalDataset(queries, cands, qrels))
            for q in queries:
                ranked = rank_oracle(q.vec, [(c.id, c.vec) for c in cands], einsum_score)
                assert report.per_language_map[q.lang] == float(average_precision_oracle(ranked, qrels[q.id]))
                # The rescaled einsum scores of the overflowing rows order them as the
                # independent fsum cosine does.
                assert rank_oracle(q.vec, huge) == rank_oracle(q.vec, huge, einsum_score)

    def test_rerun_serialization_identical(self):
        ds = two_lang_dataset()
        assert report_json(evaluate_retrieval(ds)) == report_json(evaluate_retrieval(ds))

    def test_rank_recorded_and_mixed_ranks_raise(self):
        ds = two_lang_dataset()
        assert evaluate_retrieval(ds).config["rank"] == 0
        rng = np.random.default_rng(17)

        def fitted(lang, r):
            rows = rng.standard_normal((10, 3))
            return fit_components(LanguageMatrix(lang=lang, rows=rows), r)

        assert evaluate_retrieval(ds, {"en": fitted("en", 2), "zh": fitted("zh", 2)}).config["rank"] == 2
        mixed = {"en": fitted("en", 1), "zh": fitted("zh", 2)}
        message = "bases carry mixed ranks [1, 2]; refit every language at one rank"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            evaluate_retrieval(ds, mixed)

    def test_map_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(12)
        ids = np.array([f"c{i:02d}" for i in range(12)])
        base_order = np.lexsort((ids, -scores))
        for transform in (lambda s: 2.0 * s + 1.0, np.tanh, lambda s: s**3):
            alt_order = np.lexsort((ids, -transform(scores)))
            assert np.array_equal(base_order, alt_order)
        relevant = {"c03", "c07", "c11"}
        ranked = tuple(ids[base_order].tolist())
        ap = average_precision(RankedList("q", ranked), relevant)
        assert 0.0 <= ap <= 1.0


def near_tie_dataset(seed, scale_rows=(), scale_queries=1.0):
    """Candidates that tie or nearly tie the relevant rows. Base rows and most
    queries have small integer entries, so any kernel computes a base row's
    dot product exactly and its score has the einsum bits. Each base row also
    appears scaled by 1 +/- a few ulps and with one coordinate one ulp away
    (scores a few ulps off, rounded differently by gemm and einsum), scaled by
    2 and as an exact copy under another id (exact ties). Zero rows and noise
    rows fill the rest, plus `scale_rows` (factor, count) scaled copies of
    base rows; every odd query is scaled by `scale_queries`. Every query has
    its own language, so per_language_map holds each query's AP."""
    rng = np.random.default_rng(seed)
    d = 24
    base = rng.integers(-3, 4, (40, d)).astype(float)
    vecs = []
    for g, row in enumerate(base):  # ten rows per base row, the base row first
        moved = row.copy()
        moved[g % d] = np.nextafter(moved[g % d], np.inf)
        vecs += [row, moved, row * 2.0, row.copy()]
        vecs += [row * (1.0 + k * 2.0**-52) for k in (1, 2, 3)]
        vecs += [row * (1.0 - k * 2.0**-53) for k in (1, 2, 3)]
    vecs += [np.zeros(d)] * 20 + list(rng.standard_normal((100, d)))
    for factor, count in scale_rows:
        vecs += [base[g] * factor for g in rng.integers(0, 40, count)]
    ids = [f"c{i:04d}" for i in rng.permutation(len(vecs))]
    cands = [rec(cid, "en", v) for cid, v in zip(ids, vecs)]
    base_ids = ids[: 10 * 40 : 10]
    queries, qrels = [], {}
    for i in range(60):
        vec = rng.standard_normal(d) if i % 5 == 4 else rng.integers(-3, 4, d).astype(float)
        queries.append(rec(f"q{i:02d}", f"x{i:02d}", vec * (scale_queries if i % 2 else 1.0)))
        # Base rows, and for every third query a few rows from elsewhere.
        qrels[f"q{i:02d}"] = set(rng.choice(base_ids, size=int(rng.integers(1, 4)), replace=False).tolist())
        if i % 3 == 0:
            qrels[f"q{i:02d}"] |= set(rng.choice(ids, size=3, replace=False).tolist())
    queries.append(rec("q-zero", "x-zero", np.zeros(d)))
    qrels["q-zero"] = set(ids[:2])
    return RetrievalDataset(queries, cands, qrels)


class TestCertifiedRanks:
    """evaluate_retrieval ranks with BLAS gemm scores only where they are
    certified against the einsum kernel; its reports must be those of the
    per-query einsum loop in oracles.evaluate_retrieval_oracle."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_synth_reports_match_reference(self, seed):
        cfg = lir.SynthConfig(
            languages=("en", "de", "zh"), topics=8, per_topic_per_lang=12, dim=24,
            bias_scale=4.0, seed=seed,
        )
        res = lir.generate(cfg)
        ds = res.retrieval_dataset()
        bases = {
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 2)
            for lang in cfg.languages
        }
        for b in (None, bases):
            for mode in lir.RemovalMode:
                assert report_json(evaluate_retrieval(ds, b, mode=mode)) == report_json(
                    evaluate_retrieval_oracle(ds, b, mode)
                )

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_near_ties_match_reference(self, seed):
        ds = near_tie_dataset(seed)
        assert report_json(evaluate_retrieval(ds)) == report_json(evaluate_retrieval_oracle(ds))

    @pytest.mark.parametrize("factor", [1e-160, 1e300])
    def test_underflow_and_overflow_rows_match_reference(self, factor):
        # Products of such rows and queries under- or overflow, silently.
        ds = near_tie_dataset(8, scale_rows=[(factor, 30)], scale_queries=factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = report_json(evaluate_retrieval(ds))
        assert report == report_json(evaluate_retrieval_oracle(ds))

    def test_uncertifiable_queries_return_none(self):
        rng = np.random.default_rng(47)
        cmat = rng.standard_normal((50, 8))
        cnorms = np.linalg.norm(cmat, axis=1)
        relevant = np.array([3, 17])
        q = rng.standard_normal(8)
        sims = cmat @ q
        expected = _relevant_positions(_cosine_scores(cmat, cnorms, q), relevant, np.arange(len(cmat)))
        assert _certified_positions(sims, cmat, cnorms, q, relevant) == expected
        for bad in (np.nan, np.inf):
            broken = sims.copy()
            broken[40] = bad
            assert _certified_positions(broken, cmat, cnorms, q, relevant) is None
        for scale in (1e-125, 1e125, 0.0):  # norms outside [2^-400, 2^400], or zero
            assert _certified_positions(sims * scale, cmat, cnorms, q * scale, relevant) is None

    def test_positions_come_out_ascending(self):
        # 300 relevant rows in shuffled order; the ranks come back sorted, without sorting them.
        rng = np.random.default_rng(48)
        cmat = rng.standard_normal((2000, 16))
        cnorms = np.linalg.norm(cmat, axis=1)
        q = rng.standard_normal(16)
        relevant = rng.permutation(2000)[:300]
        expected = _relevant_positions(_cosine_scores(cmat, cnorms, q), relevant, np.arange(len(cmat)))
        positions = _certified_positions(cmat @ q, cmat, cnorms, q, relevant)
        assert positions == expected == sorted(set(expected))

    @pytest.mark.parametrize("block", [1, 32, 48, 1 << 16])
    def test_relevant_rows_scored_in_chunks(self, monkeypatch, block):
        # _NORM_BLOCK values of relevant rows at a time: one, two and three of
        # the 101 rows of 16, and all of them at once.
        rng = np.random.default_rng(52)
        cmat = rng.standard_normal((600, 16))
        cnorms = np.linalg.norm(cmat, axis=1)
        q = rng.standard_normal(16)
        relevant = rng.permutation(600)[:101]
        expected = _relevant_positions(_cosine_scores(cmat, cnorms, q), relevant, np.arange(len(cmat)))
        monkeypatch.setattr(lir.evaluation, "_NORM_BLOCK", block)
        assert _certified_positions(cmat @ q, cmat, cnorms, q, relevant) == expected
        ds = near_tie_dataset(8)
        assert report_json(evaluate_retrieval(ds)) == report_json(evaluate_retrieval_oracle(ds))

    def test_zero_norm_rows_score_exactly_zero(self):
        # sims is overwritten with the sorted scores; a row of 1e-170s has a
        # zero norm (its squares underflow) but a nonzero dot product.
        rng = np.random.default_rng(51)
        cmat = np.vstack([rng.standard_normal((40, 6)), np.zeros((3, 6)), np.full((4, 6), 1e-170)])
        cnorms = np.linalg.norm(cmat, axis=1)
        q = rng.standard_normal(6) * 1e10
        sims = cmat @ q
        assert np.count_nonzero(sims == 0.0) == 3
        expected = _relevant_positions(_cosine_scores(cmat, cnorms, q), np.arange(5), np.arange(len(cmat)))
        assert _certified_positions(sims, cmat, cnorms, q, np.arange(5)) == expected
        assert np.count_nonzero(sims == 0.0) == 7 and np.all(np.diff(sims) >= 0.0)

    def test_zero_norm_candidates_match_reference(self, monkeypatch):
        # Exact zero rows and rows whose squared norm underflows to 0 score 0 in
        # both kernels, though the second kind has nonzero gemm dot products.
        rng = np.random.default_rng(49)
        d = 8
        vecs = list(rng.standard_normal((300, d)))
        vecs += [np.zeros(d)] * 5 + list(rng.standard_normal((5, d)) * 1e-170)
        cands = [rec(f"c{i:03d}", "en", v) for i, v in enumerate(vecs)]
        queries, qrels = [], {}
        for i in range(20):  # the last five may have zero-norm rows among their relevant ones
            queries.append(rec(f"q{i:02d}", "en", rng.standard_normal(d) * 1e10))
            pool = 300 if i < 15 else 310
            qrels[f"q{i:02d}"] = {f"c{j:03d}" for j in rng.choice(pool, size=12, replace=False)}
        ds = RetrievalDataset(queries, cands, qrels)
        certified, original = [], lir.evaluation._certified_positions

        def spy(sims, cmat, cnorms, *args):
            assert not cnorms.all()  # the divide that skips zero norms
            certified.append(original(sims, cmat, cnorms, *args))
            return certified[-1]

        monkeypatch.setattr(lir.evaluation, "_certified_positions", spy)
        assert report_json(evaluate_retrieval(ds)) == report_json(evaluate_retrieval_oracle(ds))
        assert len(certified) == 20 and None not in certified[:15]

    def test_uncertifiable_stack_builds_no_gemm_block(self, monkeypatch):
        # Rows scaled by 1e300 put candidate norms beyond 2^400: no query can be
        # certified, so no gemm block is made.
        def no_gemm(*args):
            raise AssertionError("gemm block built for an uncertifiable stack")

        ds = near_tie_dataset(8, scale_rows=[(1e300, 30)], scale_queries=1e300)
        monkeypatch.setattr(lir.evaluation, "_gemm_rows", no_gemm)
        assert report_json(evaluate_retrieval(ds)) == report_json(evaluate_retrieval_oracle(ds))

    def test_fast_path_reports_do_not_depend_on_threads(self, openblas_threads, monkeypatch):
        # 64 queries x 8000 candidates x 64 dims: a gemm the BLAS splits between threads.
        get_threads, set_threads = openblas_threads
        cfg = lir.SynthConfig(
            languages=("a", "b", "c", "d"), topics=16, per_topic_per_lang=126, dim=64,
            bias_scale=3.0, seed=12,
        )
        ds = lir.generate(cfg).retrieval_dataset()
        certified, original = [], lir.evaluation._certified_positions

        def spy(*args):
            certified.append(original(*args))
            return certified[-1]

        monkeypatch.setattr(lir.evaluation, "_certified_positions", spy)
        reports = []
        for threads in (1, 2):
            set_threads(threads)
            reports.append(report_json(evaluate_retrieval(ds)))
            assert get_threads() == threads
        monkeypatch.undo()
        assert len(certified) == 128 and None not in certified  # no query took the exact path
        assert reports[0] == reports[1] == report_json(evaluate_retrieval_oracle(ds))


class TestCandidateOrder:
    """Candidates are scored in the order given; ties still break by id."""

    def test_relevant_positions_break_ties_by_id_rank(self):
        # Rows in shuffled id order with exact ties and NaN keys: the ranks are
        # those of a stable sort of the id-ordered rows.
        rng = np.random.default_rng(65)
        ids = [f"c{i:03d}" for i in rng.permutation(300)]
        scores = rng.choice([0.5, 0.25, -0.5, np.nan, 0.0], 300)
        scores[:60] = rng.random(60)  # and some distinct scores
        by_id = sorted(range(300), key=ids.__getitem__)
        ranked = np.array(by_id)[np.argsort(-scores[by_id], kind="stable")]
        position_of = {row: pos for pos, row in enumerate(ranked.tolist(), start=1)}
        for _ in range(20):
            relevant = rng.choice(300, int(rng.integers(1, 40)), replace=False)
            expected = sorted(position_of[row] for row in relevant.tolist())
            assert _relevant_positions(scores, relevant, _id_ranks(ids)) == expected

    def test_shuffled_candidates_match_id_ordered(self):
        cfg = lir.SynthConfig(
            languages=("en", "de"), topics=6, per_topic_per_lang=20, dim=16, bias_scale=4.0, seed=66,
        )
        res = lir.generate(cfg)
        ds = res.retrieval_dataset()
        cands = ds.candidates
        shuffled = np.random.default_rng(66).permutation(len(cands))
        table = lir.EmbeddingTable(
            ids=[cands.ids[i] for i in shuffled], langs=[cands.langs[i] for i in shuffled],
            rows=cands.rows[shuffled],
        )
        mixed = RetrievalDataset(ds.queries, table, ds.qrels)
        bases = {
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 1)
            for lang in cfg.languages
        }
        for b in (None, bases):
            got, want = report_to_dict(evaluate_retrieval(mixed, b)), report_to_dict(evaluate_retrieval(ds, b))
            assert got["config"].pop("candidates_fingerprint") != want["config"].pop("candidates_fingerprint")
            assert got == want
            assert report_json(evaluate_retrieval(mixed, b)) == report_json(evaluate_retrieval_oracle(mixed, b))

    def test_lent_tables_are_overwritten_and_left_read_only(self):
        cfg = lir.SynthConfig(
            languages=("en", "de"), topics=6, per_topic_per_lang=20, dim=16, bias_scale=4.0, seed=67,
        )
        res = lir.generate(cfg)
        bases = {
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 2)
            for lang in cfg.languages
        }
        for mode in lir.RemovalMode:
            ds = res.retrieval_dataset()
            expected = report_json(evaluate_retrieval(ds, bases, mode=mode))
            removed = lir.evaluation._features(ds.candidates, bases, mode)
            candidates = ds.candidates.rows
            with _lent_rows(ds.queries), _lent_rows(ds.candidates):
                assert report_json(evaluate_retrieval(ds, bases, mode=mode)) == expected
            assert ds.candidates.rows is candidates and candidates.tobytes() == removed.tobytes()
            assert not ds.queries.rows.flags.writeable and not candidates.flags.writeable
        # One table as both queries and candidates is removed once (removing
        # twice changes paper-eq1 rows; orthogonal removal is idempotent).
        table = res.table
        topics = {}
        for rid in table.ids:
            topics.setdefault(rid.split("-")[1], set()).add(rid)
        qrels = {rid: topics[rid.split("-")[1]] - {rid} for rid in table.ids}
        for mode in lir.RemovalMode:
            expected = report_json(evaluate_retrieval(RetrievalDataset(table, table, qrels), bases, mode=mode))
            own = lir.EmbeddingTable(table.ids, table.langs, table.rows.copy())
            shared = RetrievalDataset(own, own, qrels)
            with _lent_rows(own):
                assert report_json(evaluate_retrieval(shared, bases, mode=mode)) == expected
            assert own.rows.tobytes() == lir.evaluation._features(table, bases, mode).tobytes()
            assert not own.rows.flags.writeable
        # A strict removal that fails part-way (English queries removed, then a
        # German candidate without a basis) leaves the tables read-only too.
        ds = res.retrieval_dataset()
        en = np.flatnonzero(np.array(ds.queries.langs) == "en")
        english = RetrievalDataset(
            lir.synth._take(ds.queries, en), ds.candidates, {ds.queries.ids[i]: ds.qrels[ds.queries.ids[i]] for i in en}
        )
        with pytest.raises(lir.MissingBasis), _lent_rows(english.queries), _lent_rows(english.candidates):
            evaluate_retrieval(english, {"en": bases["en"]})
        assert not english.queries.rows.flags.writeable and not english.candidates.rows.flags.writeable


class TestBoundedMemory:
    """evaluate_retrieval holds one candidate copy plus bounded blocks."""

    @pytest.mark.parametrize("block", [None, 7 * 3, 7 * 5 - 1])
    def test_blocked_norms_match_one_reduction(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(lir.evaluation, "_NORM_BLOCK", block)
        rng = np.random.default_rng(63)
        rows = rng.standard_normal((50, 7)) * np.logspace(-150, 150, 50)[:, None]
        rows[[4, 9]] = 0.0
        rows[11, 2] = 1e200  # the plain sum of squares overflows
        records = [rec(f"c{i:02d}", "en" if i % 3 else "de", v) for i, v in enumerate(rows)]
        bases = {lang: fit_components(LanguageMatrix(lang=lang, rows=rows[20:30]), 1) for lang in ("en", "de")}
        for b in (None, bases):
            cmat, cnorms = _candidate_stack(lir.EmbeddingTable.from_records(records), b, DEFAULT_MODE)
            with np.errstate(over="ignore"):
                assert cnorms.tobytes() == np.linalg.norm(cmat, axis=1).tobytes()

    def test_peak_beyond_inputs_is_one_candidate_copy(self):
        # 19,960 candidates x 128 (19.5 MB): the blocks are small beside it.
        cfg = lir.SynthConfig(
            languages=("a", "b", "c", "d"), topics=10, per_topic_per_lang=500, dim=128,
            bias_scale=5.0, seed=3,
        )
        res = lir.generate(cfg)
        ds = res.retrieval_dataset()
        bases = {
            lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 2)
            for lang in cfg.languages
        }
        n, d = ds.candidates.rows.shape
        relevant = [len(rel) for rel in ds.qrels.values()]
        # One candidate copy, one gemm block, the einsum-scored relevant rows of
        # a query, the norm and removal blocks, the relevant row indices, and
        # 128 B per candidate for its norm and id rank.
        design = (
            ds.candidates.rows.nbytes
            + 8 * (lir.evaluation._BLOCK_SCORES + lir.evaluation._NORM_BLOCK)
            + 8 * 3 * lir.removal._BLOCK
            + 8 * d * max(relevant)
            + 8 * sum(relevant)
            + 128 * n
        )
        assert design < 1.6 * ds.candidates.rows.nbytes  # the parent held 2.07x
        tracemalloc.start()
        try:
            for b, mode in [(None, lir.RemovalMode.ORTHOGONAL), *((bases, m) for m in lir.RemovalMode)]:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                evaluate_retrieval(ds, b, mode=mode)
                assert tracemalloc.get_traced_memory()[1] - start <= design
        finally:
            tracemalloc.stop()


# Wrong types and values beyond float range: each raises a ConfigError naming its field.
LOGISTIC_WRONG_TYPES = [
    ("learning_rate", "0.1"),
    ("learning_rate", None),
    ("learning_rate", 10**400),
    ("l2", None),
    ("l2", "0"),
    ("l2", 10**400),
    ("epochs", 1.5),
    ("epochs", True),
    ("epochs", "3"),
]


class TestTrainLogistic:
    def test_sigmoid_is_the_masked_formula_bit_for_bit(self):
        edges = [0.0, 1e-320, 1e-300, 1.0, 36.0, 37.0, 709.0, 745.0, 746.0, 800.0, 1e308]
        rng = np.random.default_rng(50)
        z = np.concatenate([
            np.array(edges), -np.array(edges),
            *(rng.standard_normal(100_000) * scale for scale in (1e-3, 1.0, 30.0, 700.0)),
        ])
        got, expected = _sigmoid(z), sigmoid_oracle(z)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert got[0] == got[len(edges)] == 0.5  # +0 and -0

    def test_zero_epochs_predicts_half(self):
        x = np.array([[1.0], [-1.0]])
        w = train_logistic(x, [1, 0], LogisticConfig(learning_rate=0.1, epochs=0))
        assert np.all(w == 0.0)
        z = x @ w[:-1] + w[-1]
        assert np.allclose(1.0 / (1.0 + np.exp(-z)), 0.5)

    def test_separable_1d(self):
        x = np.array([[-1.0], [1.0]])
        y = [0, 1]
        w = train_logistic(x, y, LogisticConfig(learning_rate=0.5, epochs=500, l2=0.0))
        assert np.array_equal(predict_logistic(x, w), [0, 1])

    def test_matches_pure_python_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, 3))
        y = (x[:, 0] + 0.2 * rng.standard_normal(12) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = train_logistic(x, y, LogisticConfig(learning_rate=0.3, epochs=40, l2=0.01))
        oracle = logistic_gd_oracle(x.tolist(), list(y), lr=0.3, epochs=40, l2=0.01)
        assert np.allclose(w, oracle, atol=1e-10)

    def test_duplicating_rows_leaves_weights_unchanged(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((10, 2))
        y = (x[:, 0] > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        cfg = LogisticConfig(learning_rate=0.2, epochs=100)
        w1 = train_logistic(x, y, cfg)
        w2 = train_logistic(np.vstack([x, x]), np.concatenate([y, y]), cfg)
        assert np.allclose(w1, w2, atol=1e-12)

    def test_loss_non_increasing_small_lr(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 4))
        y = (x @ np.array([1.0, -0.5, 0.2, 0.0]) > 0).astype(int)
        losses = []
        for epochs in range(0, 60, 5):
            w = train_logistic(x, y, LogisticConfig(learning_rate=0.01, epochs=epochs))
            losses.append(logistic_loss(x, y, w))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize(
        "settings",
        [
            {"l2": math.inf}, {"l2": math.nan}, {"learning_rate": math.inf}, {"learning_rate": math.nan},
            *({field: value} for field, value in LOGISTIC_WRONG_TYPES),
        ],
    )
    def test_non_finite_settings_rejected(self, settings):
        with pytest.raises(ConfigError):
            LogisticConfig(**settings)

    @pytest.mark.parametrize(
        "field, value", LOGISTIC_WRONG_TYPES, ids=[f"{f}-{type(v).__name__}" for f, v in LOGISTIC_WRONG_TYPES]
    )
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            LogisticConfig(**{field: value})

    def test_overflowing_weights_raise(self):
        x = np.array([[1e5], [-1e5], [2e5], [-3e5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for epochs in (1, 3):  # the weights or the next logits overflow
                with pytest.raises(lir.NumericalFailure):
                    train_logistic(x, [1, 0, 1, 0], LogisticConfig(learning_rate=1e308, epochs=epochs))
            with pytest.raises(lir.NumericalFailure):  # logits overflow before the weights
                predict_logistic(x * 1e300, np.array([1e10, 0.0]))
        w = train_logistic(x, [1, 0, 1, 0], LogisticConfig(learning_rate=1e-12, epochs=3))
        assert np.isfinite(w).all()

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            train_logistic(np.ones((3, 2)), [1, 1, 1])

    def test_bad_labels_rejected(self):
        with pytest.raises(ConfigError):
            train_logistic(np.ones((2, 2)), [0, 2])
        with pytest.raises(DimensionError):
            train_logistic(np.ones((2, 2)), [0, 1, 1])


def transfer_fixture(seed=42):
    cfg = lir.SynthConfig(
        languages=("l00", "l01", "l02"),
        topics=3,
        per_topic_per_lang=30,
        dim=12,
        bias_scale=8.0,
        semantic_scale=1.0,
        noise_scale=0.3,
        seed=seed,
        label_rule="topic-parity",
    )
    res = lir.generate(cfg)
    bases = {
        lang: fit_components(LanguageMatrix.from_records(res.records_for(lang)), 1)
        for lang in cfg.languages
    }
    tests = {}
    for lang in cfg.languages:
        recs = res.records_for(lang)
        tests[lang] = (recs, [res.labels[r.id] for r in recs])
    train_recs = res.records_for("l00")
    train_labels = [res.labels[r.id] for r in train_recs]
    return cfg, res, bases, tests, train_recs, train_labels


class TestEvaluateTransfer:
    def test_baseline_report_shape(self):
        cfg, _, _, tests, train_recs, train_labels = transfer_fixture()
        report = evaluate_transfer(train_recs, train_labels, tests)
        assert report.train_language == "l00"
        assert set(report.per_language_accuracy) == set(cfg.languages)
        values = [report.per_language_accuracy[lang] for lang in sorted(tests)]
        assert report.average == pytest.approx(math.fsum(values) / len(values), abs=1e-15)
        assert report.config["placement"] == "both"
        assert report.config["rank"] == 0

    def test_rank_zero_bitwise_equals_baseline(self):
        _, _, _, tests, train_recs, train_labels = transfer_fixture()
        r0 = {
            lang: lir.ComponentBasis(
                lang=lang,
                basis=np.zeros((12, 0)),
                rank=0,
                source_fingerprint="r0",
                sample_count=5,
            )
            for lang in tests
        }
        base = evaluate_transfer(train_recs, train_labels, tests)
        with_r0 = evaluate_transfer(train_recs, train_labels, tests, r0)
        assert report_json(base) == report_json(with_r0)

    def test_train_language_identity_when_same_basis(self):
        # test language == train language, r=0: accuracy equals in-language baseline
        _, _, _, tests, train_recs, train_labels = transfer_fixture()
        only_train = {"l00": tests["l00"]}
        base = evaluate_transfer(train_recs, train_labels, only_train)
        assert base.per_language_accuracy["l00"] == base.average

    def test_removal_improves_cross_language(self):
        cfg, _, bases, tests, train_recs, train_labels = transfer_fixture()
        lcfg = LogisticConfig(learning_rate=1.0, epochs=600)
        base = evaluate_transfer(train_recs, train_labels, tests, logistic=lcfg)
        treated = evaluate_transfer(
            train_recs, train_labels, tests, bases, placement="both", logistic=lcfg
        )
        others = [lang for lang in cfg.languages if lang != "l00"]
        base_avg = np.mean([base.per_language_accuracy[lang] for lang in others])
        lir_avg = np.mean([treated.per_language_accuracy[lang] for lang in others])
        assert lir_avg > base_avg
        assert treated.config["rank"] == 1

    def test_placement_eval_leaves_train_raw(self):
        _, _, bases, tests, train_recs, train_labels = transfer_fixture()
        both = evaluate_transfer(train_recs, train_labels, tests, bases, placement="both")
        eval_only = evaluate_transfer(train_recs, train_labels, tests, bases, placement="eval")
        assert both.config["placement"] == "both"
        assert eval_only.config["placement"] == "eval"
        assert report_json(both) != report_json(eval_only)

    @pytest.mark.parametrize("placement", ["both", "eval"])
    def test_training_table_as_a_test_set(self, placement):
        # The training table itself as a test set reports what an equal copy does.
        _, _, bases, tests, train_recs, train_labels = transfer_fixture()
        train = lir.EmbeddingTable.from_records(train_recs)
        copy = lir.EmbeddingTable(ids=list(train.ids), langs=list(train.langs), rows=train.rows.copy())
        for b in (None, bases):
            reports = [
                report_json(evaluate_transfer(
                    train, train_labels, {**tests, "l00": (table, train_labels)}, b, placement=placement
                ))
                for table in (train, copy)
            ]
            assert reports[0] == reports[1]

    @pytest.mark.parametrize("placement", ["both", "eval"])
    @pytest.mark.parametrize("mode", list(lir.RemovalMode))
    def test_lazy_tests_fetched_once_in_order(self, placement, mode):
        # A mapping that decodes on lookup, as the CLI's does: the training
        # table for its own language, a fresh table for every other one.
        _, _, bases, tests, train_recs, train_labels = transfer_fixture()
        expected = report_json(evaluate_transfer(
            train_recs, train_labels, tests, bases, mode=mode, placement=placement
        ))

        class Lazy(Mapping):
            def __init__(self, train, lend):
                self.train, self.lend, self.fetched, self.last = train, lend, [], None
                self.lent = contextlib.ExitStack()  # lending, as the CLI's does, the table it decodes

            def __getitem__(self, lang):
                self.lent.close()
                # The previously fetched test table is no longer referenced.
                assert self.last is None or self.last() is None
                self.fetched.append(lang)
                recs, labels = tests[lang]
                if lang == self.train.langs[0]:
                    return self.train, labels
                table = lir.EmbeddingTable.from_records(recs)
                if self.lend:
                    self.lent.enter_context(_lent_rows(table))
                self.last = weakref.ref(table.rows)
                return table, labels

            def __iter__(self):
                return iter(tests)

            def __len__(self):
                return len(tests)

        for lend in (False, True):
            train = lir.EmbeddingTable.from_records(train_recs)
            raw = train.rows.copy()
            lazy = Lazy(train, lend)
            with _lent_rows(train) if lend else contextlib.nullcontext(), lazy.lent:
                report = evaluate_transfer(train, train_labels, lazy, bases, mode=mode, placement=placement)
            assert report_json(report) == expected
            assert lazy.fetched == sorted(tests)
            assert not train.rows.flags.writeable
            # A table that is not lent is left as it was; a lent training table
            # ends up holding its rows with components removed.
            removed = lir.evaluation._features(lir.EmbeddingTable.from_records(train_recs), bases, mode)
            assert train.rows.tobytes() == (removed if lend else raw).tobytes()

    def test_invalid_inputs(self):
        _, _, _, tests, train_recs, train_labels = transfer_fixture()
        with pytest.raises(ConfigError):
            evaluate_transfer(train_recs, train_labels, tests, placement="sometimes")
        with pytest.raises(DegenerateLabels):
            evaluate_transfer(train_recs, [0] * len(train_recs), tests)
        mixed = list(train_recs[:2]) + [rec("other", "l01", train_recs[0].vec)]
        with pytest.raises(ConfigError):
            evaluate_transfer(mixed, [0, 1, 0], tests)
        with pytest.raises(ConfigError):
            evaluate_transfer(train_recs, train_labels, {})
        narrow = {lang: axis_basis(lang, 11, 0) for lang in tests}
        for placement in ("both", "eval"):
            with pytest.raises(DimensionError, match="basis expects 11"):
                evaluate_transfer(train_recs, train_labels, tests, narrow, placement=placement)


class TestLendingRule:
    """A table is overwritten only while core._lent_rows lends it; any other
    table is copied before components are removed."""

    @staticmethod
    def tables():
        _, res, bases, tests, train_recs, train_labels = transfer_fixture(seed=43)
        ds = res.retrieval_dataset()
        tests = {lang: (lir.EmbeddingTable.from_records(recs), labels) for lang, (recs, labels) in tests.items()}
        return ds, bases, tests, tests["l00"], train_labels

    def test_a_table_not_lent_keeps_its_bytes(self):
        ds, bases, tests, (train, _), labels = self.tables()
        tables = [ds.queries, ds.candidates, *(t for t, _ in tests.values())]
        before = [t.rows.tobytes() for t in tables]
        for mode in lir.RemovalMode:
            evaluate_retrieval(ds, bases, mode=mode)
            for placement in ("both", "eval"):
                evaluate_transfer(train, labels, tests, bases, mode=mode, placement=placement)
        assert [t.rows.tobytes() for t in tables] == before
        assert not any(t.rows.flags.writeable for t in tables)

    @pytest.mark.parametrize("mode", list(lir.RemovalMode))
    def test_a_lent_table_is_read_only_again_after_a_call(self, mode):
        ds, bases, tests, (train, _), labels = self.tables()
        tables = [ds.queries, ds.candidates, *(t for t, _ in tests.values())]
        before = [t.rows.tobytes() for t in tables]
        with contextlib.ExitStack() as lent:
            for table in tables:
                lent.enter_context(_lent_rows(table))
            evaluate_retrieval(ds, bases, mode=mode)
            evaluate_transfer(train, labels, tests, bases, mode=mode)
            assert all(t.rows.flags.writeable for t in tables)
        assert all(t.rows.tobytes() != b for t, b in zip(tables, before))  # overwritten
        assert not any(t.rows.flags.writeable for t in tables)
        # Strict removals that fail part-way: l00's queries removed, then an
        # l01 candidate without a basis; the training table removed, then l01's.
        ds, bases, tests, (train, _), labels = self.tables()
        l00 = np.flatnonzero(np.array(ds.queries.langs) == "l00")
        qids = [ds.queries.ids[i] for i in l00]
        ds = RetrievalDataset(lir.synth._take(ds.queries, l00), ds.candidates, {q: ds.qrels[q] for q in qids})
        partial = {"l00": bases["l00"]}
        for table, call in [(ds.queries, lambda: evaluate_retrieval(ds, partial, mode=mode)),
                            (train, lambda: evaluate_transfer(train, labels, tests, partial, mode=mode))]:
            raw = table.rows.tobytes()
            with pytest.raises(lir.MissingBasis), _lent_rows(ds.queries), _lent_rows(ds.candidates), \
                    _lent_rows(train):
                call()
            assert table.rows.tobytes() != raw
            assert not any(t.rows.flags.writeable for t in (ds.queries, ds.candidates, train))

    @pytest.mark.parametrize("placement", ["both", "eval"])
    @pytest.mark.parametrize("mode", list(lir.RemovalMode))
    def test_a_test_table_over_the_lent_training_matrix(self, mode, placement):
        # Another table over the lent training matrix, with its ids and tags,
        # stands for the training table: its rows are removed once.
        ds, bases, tests, (train, _), labels = self.tables()
        expected = report_json(evaluate_transfer(train, labels, tests, bases, mode=mode, placement=placement))
        alias = lir.EmbeddingTable(train.ids, train.langs, train.rows)
        assert alias is not train and alias.rows is train.rows
        with _lent_rows(train):
            report = evaluate_transfer(train, labels, {**tests, "l00": (alias, labels)}, bases,
                                       mode=mode, placement=placement)
        assert report_json(report) == expected


class TestExportProjection:
    def test_row_per_record(self):
        rng = np.random.default_rng(9)
        records = [rec(f"r{i}", "en", rng.standard_normal(4)) for i in range(6)]
        rows = export_projection(records, 2)
        assert [r[0] for r in rows] == [r.id for r in records]
        assert all(len(r[2]) == 2 for r in rows)

    def test_offset_languages_separate_then_overlap(self):
        rng = np.random.default_rng(10)
        en = [rec(f"e{i}", "en", [8.0 + rng.normal(0, 0.1), rng.normal(0, 0.5)]) for i in range(30)]
        zh = [rec(f"z{i}", "zh", [-8.0 + rng.normal(0, 0.1), rng.normal(0, 0.5)]) for i in range(30)]
        rows = export_projection(en + zh, 1)
        en_scores = [r[2][0] for r in rows if r[1] == "en"]
        zh_scores = [r[2][0] for r in rows if r[1] == "zh"]
        assert min(en_scores) > max(zh_scores) or min(zh_scores) > max(en_scores)

    def test_duplicated_points_all_zero(self):
        records = [rec(f"r{i}", "en", [1.0, 2.0, 3.0]) for i in range(4)]
        rows = export_projection(records, 1)
        assert all(abs(r[2][0]) <= 1e-12 for r in rows)

    def test_csv_does_not_depend_on_threads(self, openblas_threads, tmp_path):
        # 20,000 x 64: a score product the BLAS would split between threads.
        get_threads, set_threads = openblas_threads
        rng = np.random.default_rng(64)
        rows = rng.standard_normal((20000, 64)) + 4.0 * (np.arange(20000) % 2)[:, None]
        table = lir.EmbeddingTable(
            ids=[f"r{i:05d}" for i in range(20000)], langs=["en"] * 20000, rows=rows
        )
        for threads in (1, 2):
            set_threads(threads)
            lir.io.write_projection_csv(tmp_path / f"{threads}.csv", export_projection(table, 2))
            assert get_threads() == threads
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    def test_errors(self):
        with pytest.raises(lir.RankError):
            export_projection([rec("a", "en", [1.0, 2.0])], 1)
        records = [rec("a", "en", [1.0, 2.0]), rec("b", "en", [2.0, 1.0])]
        with pytest.raises(lir.RankError):
            export_projection(records, 3)
