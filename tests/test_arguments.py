"""Every numeric argument of the public API: a wrong type, a non-finite value,
a value beyond the float range or one outside the argument's range raises a
LirError naming the argument, before anything is drawn, factorized, trained
or written; a numpy scalar is accepted and kept as a plain int or float."""

import json
import math
import re

import numpy as np
import pytest

import lir
from lir import (
    ComponentBasis,
    ConfigError,
    EmbeddingRecord,
    EmbeddingTable,
    LanguageMatrix,
    LogisticConfig,
    RankError,
    RetrievalDataset,
    SynthConfig,
    evaluate_retrieval,
    evaluate_transfer,
    export_projection,
    fit_components,
    fit_decomposition,
    generate,
    jacobi_eigh,
    logistic_loss,
    pca_project,
)
from lir.io import read_components, report_json, write_components

SYNTH = dict(languages=("l00", "l01", "l02"), topics=6, per_topic_per_lang=4, dim=16, bias_scale=3.0)
BASIS = dict(lang="en", basis=np.eye(3)[:, :1], rank=1, source_fingerprint="fp", sample_count=3)
MATRIX = LanguageMatrix(lang="en", rows=np.random.default_rng(3).standard_normal((4, 3)))
ROWS = np.random.default_rng(4).standard_normal((6, 3))
TABLE = EmbeddingTable(ids=[f"r{i}" for i in range(6)], langs=["en"] * 6, rows=ROWS)
LABELS = [0, 1, 0, 1, 0, 1]


def dataset():
    q = [EmbeddingRecord("q1", "en", [1.0, 0.0, 0.0]), EmbeddingRecord("q2", "de", [0.0, 1.0, 0.0])]
    c = [EmbeddingRecord("c1", "en", [1.0, 0.1, 0.0]), EmbeddingRecord("c2", "de", [0.1, 1.0, 0.0])]
    return RetrievalDataset(q, c, {"q1": {"c2"}, "q2": {"c1"}})


def transfer(**kwargs):
    return evaluate_transfer(TABLE, LABELS, {"en": (TABLE, LABELS)}, **kwargs)


def retrieval_rank(value):
    return evaluate_retrieval(dataset(), rank=value)


def transfer_rank(value):
    return transfer(rank=value)


# (parameter, error class, call with the value, out-of-range values) for every
# numeric parameter of a public callable or config. Each call goes on past the
# check to the work the argument controls: a draw, a factorization, training or a write.
INTEGERS = [
    ("topics", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "topics": v})), [1, 0]),
    ("per_topic_per_lang", ConfigError,
     lambda v: generate(SynthConfig(**{**SYNTH, "per_topic_per_lang": v})), [0, -1]),
    ("dim", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "dim": v})), [4, 0]),
    ("seed", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "seed": v})), [-1, 2**64]),
    ("epochs", ConfigError, lambda v: transfer(logistic=LogisticConfig(epochs=v)), [-1]),
    ("rank", RankError, lambda v: write_components("never.lirc", ComponentBasis(**{**BASIS, "rank": v})),
     [0, 2]),
    ("sample_count", RankError,
     lambda v: write_components("never.lirc", ComponentBasis(**{**BASIS, "sample_count": v})), [-1]),
    ("rank", RankError, lambda v: fit_decomposition(MATRIX, v), [-1, 4]),
    ("rank", RankError, lambda v: fit_components(MATRIX, v), [-1, 4]),
    ("rank", RankError, retrieval_rank, [-1]),  # None takes the bases' rank
    ("rank", RankError, transfer_rank, [-1]),
    ("k", RankError, lambda v: pca_project(ROWS, v), [0, 4]),
    ("k", RankError, lambda v: export_projection(TABLE, v), [0, 4]),
    ("max_sweeps", ConfigError, lambda v: jacobi_eigh(np.eye(3), v), [-1]),
]
REALS = [
    ("bias_scale", lambda v: generate(SynthConfig(**{**SYNTH, "bias_scale": v})), [-1.0]),
    ("semantic_scale", lambda v: generate(SynthConfig(**{**SYNTH, "semantic_scale": v})), [0.0, -1.0]),
    ("noise_scale", lambda v: generate(SynthConfig(**{**SYNTH, "noise_scale": v})), [-0.1]),
    ("skew", lambda v: generate(SynthConfig(**{**SYNTH, "skew": v})), [-0.5]),
    ("learning_rate", lambda v: transfer(logistic=LogisticConfig(learning_rate=v)), [0.0, -0.5]),
    ("l2", lambda v: transfer(logistic=LogisticConfig(l2=v)), [-1.0]),
    ("l2", lambda v: logistic_loss(ROWS, LABELS, np.zeros(4), v), [-1.0]),
]
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, -(10**400)]
BAD_INTEGERS = ["1", None, True, False, 1.5, 2.0, np.float64(1.0), *NOT_FINITE]
BAD_REALS = ["1.0", None, True, False, 1j, np.float32(math.nan), np.float32(math.inf), *NOT_FINITE]


def cases(table, bad):
    for i, (name, *rest) in enumerate(table):
        *head, out_of_range = rest
        for value in [*bad, *out_of_range]:
            if value is None and head[-1] in (retrieval_rank, transfer_rank):
                continue
            yield pytest.param(name, *head, value, id=f"{name}-{i}-{value!r:.12}")


@pytest.fixture
def no_work(monkeypatch, tmp_path):
    """Every stage a numeric argument controls raises AssertionError if it starts."""
    monkeypatch.chdir(tmp_path)

    def started(*args, **kwargs):
        raise AssertionError("work started before the argument was checked")

    monkeypatch.setattr(np.random, "PCG64", started)  # generate's draw
    monkeypatch.setattr(lir.linalg, "_right_factor", started)  # every factorization
    monkeypatch.setattr(lir.evaluation, "train_logistic", started)
    monkeypatch.setattr(lir.evaluation, "_features", started)  # removal before scoring
    monkeypatch.setattr(lir.io, "_write_atomic", started)
    yield tmp_path
    assert list(tmp_path.iterdir()) == []


def names(message: str, name: str) -> bool:
    return re.search(rf"(?<!\w){name}(?!\w)", message) is not None


@pytest.mark.parametrize("name, error, call, value", cases(INTEGERS, BAD_INTEGERS))
def test_bad_integer_argument_raises_naming_it(no_work, name, error, call, value):
    with pytest.raises(error) as info:
        call(value)
    assert names(str(info.value), name), str(info.value)


@pytest.mark.parametrize("name, call, value", cases(REALS, BAD_REALS))
def test_bad_real_argument_raises_naming_it(no_work, name, call, value):
    with pytest.raises(ConfigError) as info:
        call(value)
    assert names(str(info.value), name), str(info.value)


@pytest.mark.parametrize("value, message", [
    ("1", "rank must be an integer"),
    (1.0, "rank must be an integer"),
    (True, "rank must be an integer"),
    (10**400, "rank must be finite"),
    (3, "rank 3 outside valid range [0, 2]"),
    (np.int64(-1), "rank -1 outside valid range [0, 2]"),
])
def test_rank_messages(value, message):
    matrix = LanguageMatrix(lang="en", rows=np.ones((3, 2)))
    with pytest.raises(RankError, match=f"^{re.escape(message)}$"):
        fit_components(matrix, value)


def test_messages_the_cli_prints_are_kept():
    # One per check the CLI can reach; tests/test_cli.py runs the commands.
    with pytest.raises(RankError, match=r"^k=3 outside valid range \[1, 2\]$"):
        pca_project(np.ones((2, 2)) + np.eye(2), 3)
    for overrides, message in [
        ({"topics": 1}, "need at least 2 topics"),
        ({"dim": 4}, "dim must be >= languages + 2 = 5 to leave room for orthogonal offsets "
                     "plus semantic directions"),
        ({"seed": -1}, "seed must be an integer in [0, 2^64)"),
        ({"semantic_scale": 0.0}, "semantic_scale must be positive"),
        ({"bias_scale": -1.0}, "bias_scale must be non-negative"),
        ({"noise_scale": math.nan}, "noise_scale must be finite"),
        ({"semantic_scale": 0.0, "bias_scale": math.nan}, "bias_scale must be finite"),  # finite first
        ({"topics": 1, "per_topic_per_lang": 0}, "need at least 2 topics"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SynthConfig(**{**SYNTH, **overrides})
    for overrides, message in [
        ({"learning_rate": 0.0}, "learning_rate must be positive and finite"),
        ({"learning_rate": math.inf}, "learning_rate must be positive and finite"),
        ({"epochs": -1}, "epochs must be non-negative"),
        ({"l2": math.nan}, "l2 must be non-negative and finite"),
        ({"learning_rate": 0.0, "epochs": -1}, "learning_rate must be positive and finite"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            LogisticConfig(**overrides)


def test_numpy_scalars_are_kept_as_plain_numbers():
    config = SynthConfig(**{**SYNTH, "topics": np.int64(6), "dim": np.uint8(16), "seed": np.uint64(5),
                            "bias_scale": np.float32(3.0), "skew": np.int64(0)})
    assert (type(config.topics), type(config.dim), type(config.seed)) == (int, int, int)
    assert (type(config.bias_scale), type(config.skew)) == (float, float)
    assert generate(config).table.rows.tobytes() == generate(SynthConfig(**SYNTH, seed=5)).table.rows.tobytes()
    logistic = LogisticConfig(learning_rate=np.float16(0.5), epochs=np.int32(3), l2=np.float64(0.0))
    assert [type(v) for v in (logistic.learning_rate, logistic.epochs, logistic.l2)] == [float, int, float]
    assert type(fit_components(MATRIX, np.int16(2)).rank) is int
    assert pca_project(ROWS, np.int64(2)).tolist() == pca_project(ROWS, 2).tolist()


def test_numpy_rank_serializes_as_an_int(tmp_path):
    # Before, both reports held np.int64(1), which json cannot serialize.
    for report in (evaluate_retrieval(dataset(), rank=np.int64(1)), transfer(rank=np.int64(1))):
        assert json.loads(report_json(report))["config"]["rank"] == 1
        assert type(report.config["rank"]) is int
    basis = ComponentBasis(**{**BASIS, "rank": np.int64(1), "sample_count": np.int32(3)})
    write_components(tmp_path / "en.lirc", basis)
    back = read_components(tmp_path / "en.lirc")
    assert (back.rank, back.sample_count) == (1, 3)
    assert (type(basis.rank), type(basis.sample_count)) == (int, int)


@pytest.mark.parametrize("field, value", [("rank", 1.0), ("sample_count", 3.5), ("sample_count", 3.0)])
def test_float_basis_count_raises_at_construction(tmp_path, field, value):
    # Before, ComponentBasis took these and wrote a .lirc that read_components rejected.
    with pytest.raises(RankError, match=f"^{field} must be an integer$"):
        write_components(tmp_path / "en.lirc", ComponentBasis(**{**BASIS, field: value}))
    assert not (tmp_path / "en.lirc").exists()
