import numpy as np
import pytest

import lir
from lir import ConfigError, SynthConfig, generate
from lir.core import EmbeddingTable, _lent_rows
from lir.synth import TOPIC_PARITY, _take

from oracles import generate_oracle


def records_of(table):
    """The table's rows as records, in table order."""
    return [lir.EmbeddingRecord(*row) for row in zip(table.ids, table.langs, table.rows)]


def split(res):
    """The generated corpus's records, then its query and its candidate records."""
    records = records_of(res.table)
    queries = [r for r in records if r.id in res.query_ids]
    return records, queries, [r for r in records if r.id not in res.query_ids]


def base_config(**overrides):
    params = dict(
        languages=("l00", "l01", "l02"),
        topics=6,
        per_topic_per_lang=4,
        dim=16,
        bias_scale=3.0,
        semantic_scale=1.0,
        noise_scale=0.1,
        seed=5,
    )
    params.update(overrides)
    return SynthConfig(**params)


# Wrong types and values beyond float range: each raises a ConfigError naming its field.
WRONG_TYPES = [
    ("bias_scale", "1"),
    ("bias_scale", None),
    ("bias_scale", 10**400),
    ("bias_scale", True),
    ("noise_scale", -(10**400)),
    ("semantic_scale", "1.0"),
    ("skew", None),
    ("languages", "ab"),
    ("languages", b"ab"),
    ("languages", None),
    ("languages", 5),
    ("languages", {"l00", "l01", "l02"}),  # a set's order follows the string hash seed
    ("languages", frozenset({"l00", "l01", "l02"})),
]


class TestSynthConfig:
    def test_valid(self):
        cfg = base_config()
        assert cfg.languages == ("l00", "l01", "l02")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"languages": ()},
            {"languages": ("a", "a")},
            {"languages": ("a", " ")},
            {"topics": 1},
            {"per_topic_per_lang": 0},
            {"dim": 4},  # < languages + 2
            {"semantic_scale": 0.0},
            {"bias_scale": -1.0},
            {"noise_scale": -0.1},
            {"seed": -1},
            {"seed": 2**64},
            {"label_rule": "alphabetical"},
            {"skew": -0.5},
            {"topics": 2.5},
            {"per_topic_per_lang": 1.5},
            {"dim": 8.0},
            {"per_topic_per_lang": True},
            {"dim": "16"},
            {"seed": True},
            {"skew": float("nan")},
            {"skew": float("inf")},
            {"noise_scale": float("inf")},
            {"noise_scale": float("nan")},
            {"bias_scale": float("nan")},
            {"bias_scale": float("inf")},
            {"semantic_scale": float("inf")},
            {"semantic_scale": float("nan")},
            *({field: value} for field, value in WRONG_TYPES),
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ConfigError):
            base_config(**overrides)

    @pytest.mark.parametrize(
        "field, value", WRONG_TYPES, ids=[f"{f}-{type(v).__name__}" for f, v in WRONG_TYPES]
    )
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            base_config(**{field: value})

    @pytest.mark.parametrize("languages", [1, 2, 3, 5])
    def test_topics_and_languages_must_fit_in_dim(self, languages):
        # Offsets orthogonal to min(topics, dim) random topic directions need
        # topics + languages <= dim; beyond that the config fails before drawing.
        langs = tuple(f"l{i}" for i in range(languages))
        dim = 12
        ok = base_config(languages=langs, topics=dim - languages, dim=dim)
        assert len(generate(ok).table) == languages * ok.topics * 4
        for topics in (dim - languages + 1, dim, 40):
            with pytest.raises(ConfigError, match=(
                "^cannot orthogonalize language offsets against the topic span; "
                "increase dim or reduce topics$"
            )):
                base_config(languages=langs, topics=topics, dim=dim)


class TestGenerate:
    def test_shapes_and_ids(self):
        cfg = base_config()
        res = generate(cfg)
        records, queries, candidates = split(res)
        assert len(records) == 3 * 6 * 4
        assert len(queries) == 3 * 6
        assert len(candidates) == 3 * 6 * 3
        assert all(r.dim == 16 for r in records)
        # ids encode (lang, topic, index)
        assert records[0].id == "l00-t0000-0000"
        assert records[0].id in res.query_ids

    def test_qrels_mark_same_topic_across_languages(self):
        cfg = base_config()
        res = generate(cfg)
        qid = "l01-t0003-0000"
        rel = res.qrels[qid]
        assert len(rel) == 3 * (4 - 1)
        assert all("-t0003-" in cid for cid in rel)
        assert qid not in rel  # the designated query is not its own candidate

    def test_same_seed_bitwise_identical(self):
        cfg = base_config()
        a = generate(cfg)
        b = generate(cfg)
        assert all(x.vec.tobytes() == y.vec.tobytes() for x, y in zip(records_of(a.table), records_of(b.table)))
        assert dict(a.qrels) == dict(b.qrels)

    def test_different_seed_differs(self):
        a = generate(base_config(seed=5))
        b = generate(base_config(seed=6))
        assert records_of(a.table)[0].vec.tobytes() != records_of(b.table)[0].vec.tobytes()

    def test_bias_only_shifts_by_language_offset(self):
        # same seed: topic vectors and noise are identical, so each record
        # moves exactly by its language's offset when bias changes
        zero = generate(base_config(bias_scale=0.0))
        biased = generate(base_config(bias_scale=5.0))
        for r0, r5 in zip(records_of(zero.table), records_of(biased.table)):
            assert r0.id == r5.id
            shift = r5.vec - r0.vec
            assert np.allclose(shift, biased.ground_truth[r5.lang], atol=1e-9)

    def test_ground_truth_orthogonality(self):
        res = generate(base_config(bias_scale=4.0))
        offsets = [res.ground_truth[lang] for lang in res.config.languages]
        for i in range(len(offsets)):
            assert np.linalg.norm(offsets[i]) == pytest.approx(4.0, abs=1e-9)
            for j in range(i + 1, len(offsets)):
                unit_i = offsets[i] / np.linalg.norm(offsets[i])
                unit_j = offsets[j] / np.linalg.norm(offsets[j])
                assert abs(float(unit_i @ unit_j)) <= 1e-9

    def test_offsets_orthogonal_to_topic_span(self):
        # noise-free, bias-free twin exposes the raw topic vectors; offsets of
        # the biased twin (same seed) must be orthogonal to all of them
        clean = generate(base_config(bias_scale=0.0, noise_scale=0.0))
        topics = np.unique(
            np.round(np.stack([r.vec for r in records_of(clean.table)]), 12), axis=0
        )
        assert topics.shape[0] == clean.config.topics
        biased = generate(base_config(bias_scale=4.0, noise_scale=0.0))
        for lang in biased.config.languages:
            unit = biased.ground_truth[lang] / np.linalg.norm(biased.ground_truth[lang])
            cosines = np.abs(topics @ unit) / np.linalg.norm(topics, axis=1)
            assert np.max(cosines) <= 1e-9

    @pytest.mark.parametrize("semantic_scale", [1e-12, 1e-9, 1.0, 1e3])
    def test_offsets_orthogonal_to_topic_directions_at_any_semantic_scale(self, semantic_scale):
        # The topic directions come from the noise-free, bias-free twin; no scale,
        # however small, may leave a topic out of the span the offsets avoid.
        clean = generate(base_config(bias_scale=0.0, noise_scale=0.0, semantic_scale=semantic_scale))
        per = clean.config.per_topic_per_lang
        rows = clean.table.rows[: clean.config.topics * per : per]  # the first language's
        units = rows / np.linalg.norm(rows, axis=1)[:, None]
        biased = generate(base_config(noise_scale=0.0, semantic_scale=semantic_scale))
        for lang, offset in biased.ground_truth.items():
            assert np.max(np.abs(units @ offset)) <= 1e-12 * np.linalg.norm(offset), lang

    def test_bias_zero_centroids_concentrate(self):
        for seed in (1, 2, 3):
            cfg = base_config(
                bias_scale=0.0, topics=10, per_topic_per_lang=30, dim=24, noise_scale=0.2, seed=seed
            )
            res = generate(cfg)
            centroids = {
                lang: np.mean([r.vec for r in records_of(res.table) if r.lang == lang], axis=0)
                for lang in cfg.languages
            }
            keys = sorted(centroids)
            bound = 3.0 * cfg.noise_scale * np.sqrt(2.0 * cfg.dim / cfg.per_topic_per_lang)
            for i, a in enumerate(keys):
                for b in keys[i + 1 :]:
                    assert np.linalg.norm(centroids[a] - centroids[b]) <= bound

    def test_noiseless_unbiased_map_is_exactly_one(self):
        cfg = base_config(bias_scale=0.0, noise_scale=0.0)
        report = lir.evaluate_retrieval(generate(cfg).retrieval_dataset())
        assert report.overall_map == 1.0

    def test_dominant_component_recovers_offset(self):
        cfg = base_config(bias_scale=5.0, topics=10, per_topic_per_lang=20, dim=24, seed=7)
        res = generate(cfg)
        for lang in cfg.languages:
            matrix = _take(res.table, np.flatnonzero([tag == lang for tag in res.table.langs]))
            basis = lir.fit_decomposition(matrix, 1)[0]
            unit = res.ground_truth[lang] / np.linalg.norm(res.ground_truth[lang])
            assert abs(float(basis.basis[:, 0] @ unit)) >= 0.95

    def test_topic_parity_labels(self):
        res = generate(base_config(label_rule=TOPIC_PARITY))
        assert res.labels is not None
        assert res.labels["l00-t0000-0001"] == 0
        assert res.labels["l02-t0003-0002"] == 1
        assert len(res.labels) == len(res.table)
        assert generate(base_config()).labels is None

    def test_skew_breaks_topic_orthogonality(self):
        clean = generate(base_config(bias_scale=0.0, noise_scale=0.0))
        topics = np.unique(np.round(np.stack([r.vec for r in records_of(clean.table)]), 12), axis=0)
        skewed = generate(base_config(bias_scale=4.0, noise_scale=0.0, skew=0.5))
        worst = 0.0
        for lang in skewed.config.languages:
            unit = skewed.ground_truth[lang] / np.linalg.norm(skewed.ground_truth[lang])
            cosines = np.abs(topics @ unit) / np.linalg.norm(topics, axis=1)
            worst = max(worst, float(np.max(cosines)))
        assert worst > 1e-6

    def test_offsets_impossible_when_topics_fill_space(self):
        # 20 topics in 21 dims leave one free direction, not enough for 3 offsets
        with pytest.raises(ConfigError):
            generate(base_config(topics=20, dim=21))
        generate(base_config(topics=20, dim=23))  # exactly enough room

    def test_retrieval_dataset_roundtrip(self):
        res = generate(base_config())
        ds = res.retrieval_dataset()
        _, queries, candidates = split(res)
        assert len(ds.queries) == 18
        assert len(ds.candidates) == 54
        assert ds.queries.ids == tuple(r.id for r in queries)
        assert ds.candidates.ids == tuple(r.id for r in candidates)
        assert ds.candidates.rows.tobytes() == b"".join(r.vec.tobytes() for r in candidates)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"label_rule": TOPIC_PARITY},
        {"skew": 0.5, "label_rule": TOPIC_PARITY},
        {"bias_scale": 0.0},
        {"per_topic_per_lang": 1},
        {"languages": ("solo",), "topics": 3, "dim": 5},
        {"noise_scale": 0.0, "seed": 2**64 - 1},
    ],
)
def test_generate_matches_record_at_a_time_oracle(overrides):
    res = generate(base_config(**overrides))
    ref = generate_oracle(res.config)
    table = res.table
    assert list(table.ids) == [r.id for r in ref.records]
    assert list(table.langs) == [r.lang for r in ref.records]
    assert table.rows.tobytes() == b"".join(r.vec.tobytes() for r in ref.records)
    assert not table.rows.flags.writeable
    assert res.query_ids == ref.query_ids
    assert dict(res.qrels) == ref.qrels and list(res.qrels) == list(ref.qrels)
    assert (None if res.labels is None else dict(res.labels)) == ref.labels
    assert list(res.ground_truth) == list(ref.ground_truth)
    for lang, offset in ref.ground_truth.items():
        assert res.ground_truth[lang].tobytes() == offset.tobytes()
    # the query, candidate and per-language rows are taken from the table
    def rows(records):
        return [(r.id, r.lang, r.vec.tobytes()) for r in records]

    def take(keep):
        return records_of(_take(table, np.flatnonzero([keep(rid, lang) for rid, lang in zip(table.ids, table.langs)])))

    assert rows(take(lambda rid, lang: rid in res.query_ids)) == rows(r for r in ref.records if r.id in ref.query_ids)
    assert rows(take(lambda rid, lang: rid not in res.query_ids)) == rows(
        r for r in ref.records if r.id not in ref.query_ids)
    for lang in res.config.languages:
        assert rows(take(lambda rid, tag: tag == lang)) == rows(r for r in ref.records if r.lang == lang)


@pytest.mark.parametrize("index", [
    slice(24, 48), slice(0, 72), slice(5, 5), np.array([5, 0, 71, 3]), np.arange(0), np.arange(24, 48),
])
def test_take_equals_the_checked_table_of_the_same_fields(index):
    table = generate(base_config()).table
    sub = _take(table, index)
    pick = np.arange(len(table))[index].tolist()
    ref = EmbeddingTable([table.ids[i] for i in pick], [table.langs[i] for i in pick], table.rows[index])
    assert sub.ids == ref.ids and sub.langs == ref.langs
    assert type(sub.ids) is tuple and type(sub.langs) is tuple
    assert sub.rows.dtype == ref.rows.dtype and sub.rows.shape == ref.rows.shape
    assert sub.rows.tobytes() == ref.rows.tobytes()
    assert sub.rows.flags.c_contiguous and not sub.rows.flags.writeable
    # A slice is a view of the table's matrix, which is never lent; an index array is a copy.
    assert np.shares_memory(sub.rows, table.rows) == (isinstance(index, slice) and len(sub) > 0)
    if isinstance(index, slice) and len(sub):
        with pytest.raises(ValueError):
            with _lent_rows(sub):
                pass
        assert not table.rows.flags.writeable
