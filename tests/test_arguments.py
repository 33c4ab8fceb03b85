"""Every numeric argument of the public API: a wrong type, a non-finite value,
a value beyond the float range or one outside the argument's range raises a
LirError naming the argument, before anything is drawn, factorized, trained
or written; a numpy scalar is accepted and kept as a plain int or float.
Every array argument: a string, complex, ragged or object array, the wrong
number of axes, an empty axis where one is rejected, or a NaN or +/-inf
entry raises a LirError naming the argument, with no warning first.
Every name, choice and mapping argument: a value of another type, an empty
(or, where it is trimmed, blank) name, or a mapping holding a value of the
wrong type raises a LirError naming the argument; nothing is converted.
Every flag and lir object: a value of another type (a flag's is bool) raises
a LirError naming the argument, and so does a report config value that a JSON
round trip does not keep, a writer's key or set that it cannot encode or that
its reader rejects (an empty key, id or mapping), and a transfer test value
that is not a (records, labels) pair. The README's
argument table names every checker of lir.errors."""

import inspect
import itertools
import json
import math
import random
import re
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import lir
from lir import (
    ComponentBasis,
    ConfigError,
    DatasetError,
    DimensionError,
    EmbeddingRecord,
    EmbeddingTable,
    EvalReport,
    InvalidMatrix,
    InvalidVector,
    FormatError,
    LirError,
    LogisticConfig,
    RankError,
    RemovalMode,
    RetrievalDataset,
    SvdResult,
    SynthConfig,
    SynthResult,
    TransferReport,
    evaluate_retrieval,
    evaluate_transfer,
    export_projection,
    fit_decomposition,
    generate,
    jacobi_eigh,
    pca_project,
    predict_logistic,
    project_out,
    project_out_scaled,
    remove_batch,
    svd,
    train_logistic,
)
from lir.io import (
    read_components,
    read_labels,
    read_qrels,
    report_json,
    write_components,
    write_embeddings,
    write_labels,
    write_qrels,
    write_report,
)

SYNTH = dict(languages=("l00", "l01", "l02"), topics=6, per_topic_per_lang=4, dim=16, bias_scale=3.0)
BASIS = dict(lang="en", basis=np.eye(3)[:, :1], rank=1, source_fingerprint="fp", sample_count=3)
MATRIX = EmbeddingTable(ids=[f"m{i}" for i in range(4)], langs=["en"] * 4,
                        rows=np.random.default_rng(3).standard_normal((4, 3)))
ROWS = np.random.default_rng(4).standard_normal((6, 3))
TABLE = EmbeddingTable(ids=[f"r{i}" for i in range(6)], langs=["en"] * 6, rows=ROWS)
LABELS = [0, 1, 0, 1, 0, 1]


QUERIES = [EmbeddingRecord("q1", "en", [1.0, 0.0, 0.0]), EmbeddingRecord("q2", "de", [0.0, 1.0, 0.0])]
CANDIDATES = [EmbeddingRecord("c1", "en", [1.0, 0.1, 0.0]), EmbeddingRecord("c2", "de", [0.1, 1.0, 0.0])]
QRELS = {"q1": {"c2"}, "q2": {"c1"}}


def dataset(qrels=QRELS):
    return RetrievalDataset(QUERIES, CANDIDATES, qrels)


def transfer(**kwargs):
    return evaluate_transfer(TABLE, LABELS, {"en": (TABLE, LABELS)}, **kwargs)


# (parameter, the callable or type it goes to, error class, call with the value,
# out-of-range values) for every numeric parameter of a public callable or config.
# Each call goes on past the check to the work the argument controls: a draw, a
# factorization, training or a write. The first two fields name the cases.
INTEGERS = [
    ("topics", "SynthConfig", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "topics": v})), [1, 0]),
    ("per_topic_per_lang", "SynthConfig", ConfigError,
     lambda v: generate(SynthConfig(**{**SYNTH, "per_topic_per_lang": v})), [0, -1]),
    ("dim", "SynthConfig", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "dim": v})), [4, 0]),
    ("seed", "SynthConfig", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "seed": v})), [-1, 2**64]),
    ("epochs", "LogisticConfig", ConfigError, lambda v: transfer(logistic=LogisticConfig(epochs=v)), [-1]),
    ("rank", "ComponentBasis", RankError,
     lambda v: write_components("never.lirc", ComponentBasis(**{**BASIS, "rank": v})), [0, 2]),
    ("sample_count", "ComponentBasis", RankError,
     lambda v: write_components("never.lirc", ComponentBasis(**{**BASIS, "sample_count": v})), [-1]),
    ("rank", "fit_decomposition", RankError, lambda v: fit_decomposition(MATRIX, v), [-1, 4]),
    ("k", "pca_project", RankError, lambda v: pca_project(ROWS, v), [0, 4]),
    ("k", "export_projection", RankError, lambda v: export_projection(TABLE, v), [0, 4]),
    ("max_sweeps", "jacobi_eigh", ConfigError, lambda v: jacobi_eigh(np.eye(3), v), [-1]),
    ("query_count", "EvalReport", ConfigError,
     lambda v: write_report("never.json", EvalReport(0.5, {}, v, {})), [0]),
]
REALS = [
    ("bias_scale", "SynthConfig", lambda v: generate(SynthConfig(**{**SYNTH, "bias_scale": v})), [-1.0]),
    ("semantic_scale", "SynthConfig",
     lambda v: generate(SynthConfig(**{**SYNTH, "semantic_scale": v})), [0.0, -1.0]),
    ("noise_scale", "SynthConfig", lambda v: generate(SynthConfig(**{**SYNTH, "noise_scale": v})), [-0.1]),
    ("skew", "SynthConfig", lambda v: generate(SynthConfig(**{**SYNTH, "skew": v})), [-0.5]),
    ("learning_rate", "LogisticConfig", lambda v: transfer(logistic=LogisticConfig(learning_rate=v)), [0.0, -0.5]),
    ("l2", "LogisticConfig", lambda v: transfer(logistic=LogisticConfig(l2=v)), [-1.0]),
    ("overall_map", "EvalReport",
     lambda v: write_report("never.json", EvalReport(v, {"en": 0.5}, 1, {})), [-0.1, 1.5]),
    ("per_language_map", "EvalReport", lambda v: write_report("never.json", EvalReport(0.5, {"en": v}, 1, {})),
     [-0.1, 1.5]),
    ("average", "TransferReport",
     lambda v: write_report("never.json", TransferReport({"en": 0.5}, v, "en", {})), [-0.1, 1.5]),
    ("per_language_accuracy", "TransferReport",
     lambda v: write_report("never.json", TransferReport({"en": v}, 0.5, "en", {})), [-0.1, 1.5]),
]
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400, -(10**400)]
BAD_INTEGERS = ["1", None, True, False, 1.5, 2.0, np.float64(1.0), *NOT_FINITE]
BAD_REALS = ["1.0", None, True, False, 1j, np.float32(math.nan), np.float32(math.inf), *NOT_FINITE]


def cases(table, bad):
    for name, where, *rest in table:
        *head, out_of_range = rest
        for value in [*bad, *out_of_range]:
            yield pytest.param(name, *head, value, id=f"{name}-{where}-{value!r:.12}")


@pytest.fixture
def no_work(monkeypatch, tmp_path):
    """Every stage an argument controls raises AssertionError if it starts."""
    monkeypatch.chdir(tmp_path)

    def started(*args, **kwargs):
        raise AssertionError("work started before the argument was checked")

    monkeypatch.setattr(np.random, "PCG64", started)  # generate's draw
    monkeypatch.setattr(lir.linalg, "_right_factor", started)  # every factorization
    monkeypatch.setattr(lir.evaluation, "train_logistic", started)
    monkeypatch.setattr(lir.evaluation, "_features", started)  # removal before scoring
    monkeypatch.setattr(lir.linalg, "project_out", started)  # remove_batch's removal kernels
    monkeypatch.setattr(lir.linalg, "project_out_scaled", started)
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


B = np.eye(3)[:, :1]
W = np.zeros(4)
EMPTY = [np.empty((0, 3)), np.empty((6, 0))]


def record_vec(vec):
    return write_embeddings("never.lire", [EmbeddingRecord("a", "en", vec)])


def table_rows(rows):
    return write_embeddings("never.lire", EmbeddingTable(ids=TABLE.ids, langs=TABLE.langs, rows=rows))


def fit_rows(rows):
    return fit_decomposition(EmbeddingTable(ids=TABLE.ids, langs=TABLE.langs, rows=rows), 1)


# A record, and so a table, names the record of a non-finite row, as the CLI prints it.
NAMES_THE_RECORD = {record_vec: "'a'", table_rows: "'r5'", fit_rows: "'r5'"}


# (parameter, the callable or type it goes to, error class, call with the value,
# a valid value, the empty shapes it rejects) for every array parameter of a
# public callable or type.
ARRAYS = [
    ("v", "project_out", InvalidVector, lambda v: project_out(v, B), ROWS, [np.empty((6, 0)), np.empty(0)]),
    ("basis", "project_out", InvalidMatrix, lambda b: project_out(ROWS, b), B, []),
    ("v", "project_out_scaled", InvalidVector,
     lambda v: project_out_scaled(v, B), ROWS, [np.empty((6, 0)), np.empty(0)]),
    ("basis", "project_out_scaled", InvalidMatrix, lambda b: project_out_scaled(ROWS, b), B, []),
    ("m", "svd", InvalidMatrix, svd, ROWS, EMPTY),
    ("a", "jacobi_eigh", InvalidMatrix, jacobi_eigh, np.eye(3), [np.empty((0, 0))]),
    ("m", "pca_project", InvalidMatrix, lambda m: pca_project(m, 1), ROWS, EMPTY),
    ("features", "train_logistic", InvalidMatrix, lambda x: train_logistic(x, LABELS), ROWS, EMPTY),
    ("labels", "train_logistic", ConfigError, lambda y: train_logistic(ROWS, y), np.array(LABELS, float), []),
    ("features", "predict_logistic", InvalidMatrix, lambda x: predict_logistic(x, W), ROWS, EMPTY),
    ("weights", "predict_logistic", DimensionError, lambda w: predict_logistic(ROWS, w), W, []),
    ("vec", "EmbeddingRecord", InvalidVector, record_vec, ROWS[0], [np.empty(0)]),
    ("rows", "EmbeddingTable", DimensionError, table_rows, ROWS, []),
    ("rows", "fit_decomposition", DimensionError, fit_rows, ROWS, []),
    ("basis", "ComponentBasis", InvalidMatrix,
     lambda b: write_components("never.lirc", ComponentBasis(**{**BASIS, "basis": b})), B, [np.empty((0, 1))]),
    ("u", "SvdResult", InvalidMatrix, lambda u: SvdResult(u, np.ones(1), np.eye(1)), B, []),
    ("sigma", "SvdResult", InvalidMatrix, lambda s: SvdResult(B, s, np.eye(1)), np.ones(1), []),
    ("v", "SvdResult", InvalidMatrix, lambda v: SvdResult(B, np.ones(1), v), np.eye(1), []),
    ("ground_truth", "SynthResult", InvalidVector,
     lambda g: SynthResult(TABLE, (), {}, None, {"en": g}, SynthConfig(**SYNTH)), ROWS[0], []),
]


def bad_arrays(valid, empties):
    """(label, value) for each kind of bad array, shaped as valid where it has a shape."""
    rows = valid.tolist()
    yield "str", "abc"
    yield "numeric-str", "1.5"
    yield "str-list", valid.astype(str).tolist()
    yield "complex", valid + 1j
    yield "complex-list", (valid + 1j).tolist()
    yield "ragged", [*rows, rows[-1][:-1]] if valid.ndim == 2 else [rows, *rows]
    yield "object", valid.astype(object)
    yield "ndim", valid[None]
    for empty in empties:
        yield f"empty{empty.shape}", empty
    for x in (math.nan, math.inf, -math.inf):
        bad = valid.copy()
        bad.flat[-1] = x
        yield repr(x), bad


def array_cases():
    for name, where, error, call, valid, empties in ARRAYS:
        for label, value in bad_arrays(valid, empties):
            record = call in NAMES_THE_RECORD and label in ("nan", "inf", "-inf")
            named, raised = (NAMES_THE_RECORD[call], InvalidVector) if record else (name, error)
            yield pytest.param(named, raised, call, value, id=f"{name}-{where}-{label}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, error, call, value", array_cases())
def test_bad_array_argument_raises_naming_it(no_work, name, error, call, value):
    with pytest.raises(error) as info:
        call(value)
    assert names(str(info.value), name), str(info.value)


def test_valid_arrays_are_kept_or_converted_exactly():
    frozen = ROWS.copy()
    frozen.flags.writeable = False  # owned, read-only and C-ordered: stored without a copy
    assert EmbeddingTable(ids=TABLE.ids, langs=TABLE.langs, rows=frozen).rows is frozen
    ints = np.arange(18).reshape(6, 3) - 9
    for value in (ints, ints.tolist(), ints.astype(np.int8), ints.astype(np.float32)):
        assert project_out(value, B).tobytes() == project_out(ints.astype(float), B).tobytes()
    assert project_out(ints > 0, B).tobytes() == project_out((ints > 0).astype(float), B).tobytes()


@pytest.mark.parametrize("value, message", [
    ("1", "rank must be an integer"),
    (1.0, "rank must be an integer"),
    (True, "rank must be an integer"),
    (10**400, "rank must be finite"),
    (3, "rank 3 outside valid range [0, 2]"),
    (np.int64(-1), "rank -1 outside valid range [0, 2]"),
])
def test_rank_messages(value, message):
    matrix = EmbeddingTable(ids=["a", "b", "c"], langs=["en"] * 3, rows=np.ones((3, 2)))
    with pytest.raises(RankError, match=f"^{re.escape(message)}$"):
        fit_decomposition(matrix, value)


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
    assert type(fit_decomposition(MATRIX, np.int16(2))[0].rank) is int
    assert pca_project(ROWS, np.int64(2)).tolist() == pca_project(ROWS, 2).tolist()


def test_numpy_rank_serializes_as_an_int(tmp_path):
    # A report's rank is its bases' rank, kept as a plain int however it was given.
    basis = ComponentBasis(**{**BASIS, "rank": np.int64(1), "sample_count": np.int32(3)})
    bases = {"en": basis, "de": ComponentBasis(**{**BASIS, "lang": "de", "rank": np.int64(1)})}
    for report in (evaluate_retrieval(dataset(), bases), transfer(bases={"en": basis})):
        assert json.loads(report_json(report))["config"]["rank"] == 1
        assert type(report.config["rank"]) is int
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


RECORD = EmbeddingRecord("a", "en", [1.0, 0.0, 0.0])
EN = ComponentBasis(**BASIS)


def record_with(**fields):
    record = EmbeddingRecord(**{"id": "a", "lang": "en", "vec": ROWS[0], **fields})
    return write_embeddings("never.lire", [record])


def table_with(ids=TABLE.ids, langs=TABLE.langs, rows=ROWS):
    return write_embeddings("never.lire", EmbeddingTable(ids=ids, langs=langs, rows=rows))


def basis_with(**fields):
    return write_components("never.lirc", ComponentBasis(**{**BASIS, **fields}))


def eval_report(per_language_map=MappingProxyType({"en": 0.5}), config=MappingProxyType({})):
    return write_report("never.json", EvalReport(0.5, per_language_map, 1, config))


def transfer_report(per_language_accuracy=MappingProxyType({"en": 0.5}), train_language="en",
                    config=MappingProxyType({})):
    return write_report("never.json", TransferReport(per_language_accuracy, 0.5, train_language, config))


# (name in the message, the callable, type or qrels part it goes to, error class,
# call with the value, trimmed, hashed) for every name argument. A hashed name (a
# key or a set member) cannot be a list.
NAMES = [
    ("record id", "EmbeddingRecord", InvalidVector, lambda v: record_with(id=v), False, False),
    ("language tag", "EmbeddingRecord", InvalidVector, lambda v: record_with(lang=v), True, False),
    ("record id", "EmbeddingTable", InvalidVector, lambda v: table_with(ids=[*TABLE.ids[:5], v]), False, False),
    ("language tag", "EmbeddingTable", InvalidVector, lambda v: table_with(langs=["en"] * 5 + [v]), True, False),
    ("language tag", "fit_decomposition", InvalidVector,
     lambda v: fit_decomposition(EmbeddingTable(ids=TABLE.ids, langs=[v] * 6, rows=ROWS), 1), True, False),
    ("language tag", "ComponentBasis", InvalidMatrix, lambda v: basis_with(lang=v), True, False),
    ("source_fingerprint", "ComponentBasis", InvalidMatrix,
     lambda v: basis_with(source_fingerprint=v), False, False),
    ("languages", "SynthConfig", ConfigError,
     lambda v: generate(SynthConfig(**{**SYNTH, "languages": ("l00", "l01", v)})), True, False),
    ("qrels", "key", DatasetError, lambda v: evaluate_retrieval(dataset({"q1": {"c2"}, "q2": {"c1"}, v: {"c1"}})),
     False, True),
    ("qrels", "list-member", DatasetError, lambda v: evaluate_retrieval(dataset({"q1": ["c2", v], "q2": {"c1"}})),
     False, False),
    ("qrels", "frozenset-member", DatasetError,  # a frozenset is kept unchecked unless an id is not found
     lambda v: evaluate_retrieval(dataset({"q1": frozenset({"c2", v}), "q2": {"c1"}})), False, True),
    ("per_language_map", "EvalReport", ConfigError, lambda v: eval_report({v: 0.5}), False, True),
    ("per_language_accuracy", "TransferReport", ConfigError, lambda v: transfer_report({v: 0.5}), False, True),
    ("train_language", "TransferReport", ConfigError, lambda v: transfer_report(train_language=v), False, False),
    ("tests", "evaluate_transfer", ConfigError,
     lambda v: evaluate_transfer(TABLE, LABELS, {v: (TABLE, LABELS)}), False, True),
]
# (name, error class, call with the value) for every sequence of names.
COLUMNS = [
    ("ids", InvalidVector, lambda v: table_with(ids=v, langs=["en"] * 2, rows=ROWS[:2])),
    ("langs", InvalidVector, lambda v: table_with(ids=["a", "b"], langs=v, rows=ROWS[:2])),
]


def name_cases():
    for name, where, error, call, strip, hashed in NAMES:
        for value in [None, 1, b"en", *([] if hashed else [["en"]]), "", *(["  "] if strip else [])]:
            yield pytest.param(name, error, call, value, id=f"{name}-{where}-{value!r}")
    for name, error, call in COLUMNS:
        for value in [None, 1, "ab"]:  # bytes are a sequence of ints: each a bad name
            yield pytest.param(name, error, call, value, id=f"{name}-column-{value!r}")


# (name, the callable or type it goes to, error class, call with the value, None allowed,
# the value's other form) for every choice.
CHOICES = [
    ("mode", "evaluate_retrieval", ConfigError,
     lambda v: evaluate_retrieval(dataset(), mode=v), False, "orthogonal"),
    ("mode", "evaluate_transfer", ConfigError, lambda v: transfer(mode=v), False, "orthogonal"),
    ("mode", "remove_batch", ConfigError, lambda v: remove_batch([RECORD], {"en": EN}, v), False, "orthogonal"),
    ("mode", "remove_batch-empty", ConfigError,
     lambda v: remove_batch([], {}, v), False, "bogus"),  # checked before any row
    ("placement", "evaluate_transfer", ConfigError, lambda v: transfer(placement=v), False, b"both"),
    ("label_rule", "SynthConfig", ConfigError, lambda v: generate(SynthConfig(**{**SYNTH, "label_rule": v})), True,
     b"topic-parity"),
]


def choice_cases():
    for name, where, error, call, none, other in CHOICES:
        for value in [*([] if none else [None]), 1, True, other]:
            yield pytest.param(name, error, call, value, id=f"{name}-{where}-{value!r}")


# (name, the callable or type it goes to, error class, call with the value, None
# allowed, a mapping with a key or value of the wrong type) for every mapping. A
# test set is looked up only after training, so tests' bad entry is its key
# (test_bad_test_pair_raises_naming_it).
MAPPINGS = [
    ("qrels", "RetrievalDataset", DatasetError,
     lambda v: evaluate_retrieval(dataset(v)), False, {"q1": "c1", "q2": {"c1"}}),
    ("bases", "evaluate_retrieval", ConfigError, lambda v: evaluate_retrieval(dataset(), v), True, {"en": 1}),
    ("bases", "evaluate_transfer", ConfigError, lambda v: transfer(bases=v), True, {"en": 1}),
    ("bases", "remove_batch", ConfigError, lambda v: remove_batch([RECORD], v), False, {"en": 1}),
    ("tests", "evaluate_transfer", ConfigError,
     lambda v: evaluate_transfer(TABLE, LABELS, v), False, {1: (TABLE, LABELS)}),
    ("per_language_map", "EvalReport", ConfigError,
     lambda v: eval_report(per_language_map=v), False, {"en": "0.5"}),
    ("config", "EvalReport", ConfigError, lambda v: eval_report(config=v), False, {1: "a", "b": 2}),
    ("per_language_accuracy", "TransferReport", ConfigError,
     lambda v: transfer_report(per_language_accuracy=v), False, {"en": "0.5"}),
    ("config", "TransferReport", ConfigError, lambda v: transfer_report(config=v), False, {"b": 2, 1: "a"}),
]


def mapping_cases():
    for name, where, error, call, none, wrong in MAPPINGS:
        values = {"pairs": [("en", 1)], "str": "en"}
        if not none:
            values["None"] = None
        if wrong is not None:
            values["wrong-value"] = wrong
        for label, value in values.items():
            yield pytest.param(name, error, call, value, id=f"{name}-mapping-{where}-{label}")


# Report config values that a JSON round trip does not give back unchanged.
BAD_CONFIG_VALUES = [object(), math.nan, math.inf, (1,), {1: "a"}]


def config_cases():
    for where, call in (("EvalReport", lambda v: eval_report(config=v)),
                        ("TransferReport", lambda v: transfer_report(config=v))):
        for value in BAD_CONFIG_VALUES:
            config = {"fine": 1, "x": value}
            yield pytest.param(r"config\['x'\]", ConfigError, call, config,
                               id=f"config-value-{where}-{value!r:.12}")


# (name, a label of the bad value, call with the value, the value) for the keys and
# sets of the JSONL writers.
WRITERS = [
    ("qrels", "qrels-int-key", lambda v: write_qrels("never.jsonl", v), {1: frozenset({"a"})}),
    ("qrels", "qrels-later-int-key",
     lambda v: write_qrels("never.jsonl", v), {"q": frozenset({"a"}), 1: frozenset({"a"})}),
    (r"qrels\['q'\]", "qrels-str-set", lambda v: write_qrels("never.jsonl", v), {"q": "ab"}),
    (r"qrels\['q'\]", "qrels-set", lambda v: write_qrels("never.jsonl", v), {"p": frozenset({"a"}), "q": {"a"}}),
    (r"qrels\['q'\]", "qrels-int-member", lambda v: write_qrels("never.jsonl", v), {"q": frozenset({"a", 1})}),
    (r"qrels\['q'\]", "qrels-int-set", lambda v: write_qrels("never.jsonl", v), {"q": 5}),
    ("labels", "labels-int-key", lambda v: write_labels("never.jsonl", v), {1: 0}),
    ("labels", "labels-later-int-key", lambda v: write_labels("never.jsonl", v), {"a": 0, 1: 1}),
    # What the readers reject: an empty key, an empty id and a file of no lines.
    ("qrels key", "qrels-empty-key", lambda v: write_qrels("never.jsonl", v), {"": frozenset({"a"})}),
    ("labels key", "labels-empty-key", lambda v: write_labels("never.jsonl", v), {"a": 0, "": 1}),
    (r"qrels\['q'\] id", "qrels-empty-id",
     lambda v: write_qrels("never.jsonl", v), {"p": frozenset({"a"}), "q": frozenset({"", "a"})}),
    ("empty qrels", "qrels-empty", lambda v: write_qrels("never.jsonl", v), {}),
    ("empty labels", "labels-empty", lambda v: write_labels("never.jsonl", v), MappingProxyType({})),
    ("qrels", "qrels-list", lambda v: write_qrels("never.jsonl", v), []),
    ("labels", "labels-list", lambda v: write_labels("never.jsonl", v), [("a", 0)]),
]


def writer_cases():
    for name, where, call, value in WRITERS:
        yield pytest.param(name, FormatError, call, value, id=f"writer-{where}")  # a set's repr varies


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, error, call, value", [
    *name_cases(), *choice_cases(), *mapping_cases(), *config_cases(), *writer_cases()])
def test_bad_name_choice_or_mapping_raises_naming_it(no_work, name, error, call, value):
    with pytest.raises(error) as info:
        call(value)
    assert issubclass(error, LirError)
    assert names(str(info.value), name), str(info.value)


def test_valid_names_and_choices_are_kept_unconverted():
    record = EmbeddingRecord(np.str_("a"), np.str_(" en "), [1.0])
    assert type(record.id) is np.str_ and record.lang == "en"
    table = EmbeddingTable(ids=[np.str_("a"), "b"], langs=[np.str_("en"), " en"], rows=np.ones((2, 1)))
    assert table.ids == ("a", "b") and type(table.ids[0]) is np.str_ and table.langs == ("en", "en")
    ds = dataset({np.str_("q1"): [np.str_("c2")], "q2": frozenset({"c1"})})
    assert ds.qrels == {"q1": frozenset({"c2"}), "q2": frozenset({"c1"})}
    assert evaluate_retrieval(ds, mode=RemovalMode.PAPER_EQ1).config["mode"] == "paper-eq1"
    assert transfer(placement="eval").config["placement"] == "eval"
    en = np.str_("en")
    assert json.loads(report_json(TransferReport({en: 0.5}, 0.5, en, {})))["train_language"] == "en"


def test_what_the_writers_accept_reads_back_equal(tmp_path):
    # Ids of escaped, non-ASCII, blank and surrogate characters; sets shared,
    # empty, or a tuple with a repeated id (read back as its frozenset).
    rng = random.Random(91)
    alphabet = ["a", "Z", " ", "\t", "\n", "\r", '"', "\\", "\x00", "é", "日", "\U0001f600", "\udcff", "\u2028"]

    def word():
        return "".join(rng.choices(alphabet, k=rng.randint(1, 3)))

    for _ in range(60):
        keys = {word() for _ in range(rng.randint(1, 8))}
        sets = [frozenset(), frozenset(word() for _ in range(3)), (word(),) * 2]
        qrels = {key: rng.choice(sets) for key in keys}
        labels = {key: rng.randint(0, 1) for key in keys}
        write_qrels(tmp_path / "qrels.jsonl", MappingProxyType(qrels))
        assert read_qrels(tmp_path / "qrels.jsonl") == {key: frozenset(ids) for key, ids in qrels.items()}
        write_labels(tmp_path / "labels.jsonl", labels)
        assert read_labels(tmp_path / "labels.jsonl") == labels


def test_read_qrels_sets_stay_shared(tmp_path):
    write_qrels(tmp_path / "qrels.jsonl", {"q1": frozenset({"c1", "c2"}), "q2": frozenset({"c2", "c1"})})
    qrels = read_qrels(tmp_path / "qrels.jsonl")
    assert qrels["q1"] is qrels["q2"]
    ds = dataset(qrels)
    assert ds.qrels["q1"] is ds.qrels["q2"] is qrels["q1"]



ZZ = EmbeddingRecord("z", "zz", [1.0, 0.0, 0.0])

# (name, the callable it goes to, call with the value) for every flag. Each call
# reaches the work the flag controls: remove_batch's strict decides whether the
# uncovered record raises.
FLAGS = [
    ("center", "fit_decomposition", lambda v: fit_decomposition(MATRIX, 1, center=v)),
    ("normalize", "fit_decomposition", lambda v: fit_decomposition(MATRIX, 1, normalize=v)),
    ("strict", "remove_batch", lambda v: remove_batch([ZZ], {"en": EN}, strict=v)),
]
BAD_FLAGS = ["no", 1, None, np.True_]

# (name, the callable or type it goes to, error class, call with the value) for
# every lir object argument, and for the records (or table) that a record
# collection argument takes.
OBJECTS = [
    ("matrix", "fit_decomposition", ConfigError, lambda v: fit_decomposition(v, 1)),
    ("dataset", "evaluate_retrieval", ConfigError, evaluate_retrieval),
    ("logistic", "evaluate_transfer", ConfigError, lambda v: transfer(logistic=v)),
    ("config", "train_logistic", ConfigError, lambda v: train_logistic(ROWS, LABELS, v)),
    ("config", "generate", ConfigError, generate),
    ("basis", "write_components", ConfigError, lambda v: write_components("never.lirc", v)),
    ("records", "remove_batch", InvalidVector, lambda v: remove_batch(v, {})),
    ("records", "write_embeddings", InvalidVector, lambda v: write_embeddings("never.lire", v)),
    ("records", "export_projection", InvalidVector, lambda v: export_projection(v, 1)),
    ("records", "corpus_fingerprint", InvalidVector, lambda v: lir.corpus_fingerprint(v)),
    ("queries", "RetrievalDataset", InvalidVector, lambda v: RetrievalDataset(v, CANDIDATES, QRELS)),
    ("candidates", "RetrievalDataset", InvalidVector, lambda v: RetrievalDataset(QUERIES, v, QRELS)),
    ("train_records", "evaluate_transfer", InvalidVector,
     lambda v: evaluate_transfer(v, LABELS, {"en": (TABLE, LABELS)})),
]
BAD_OBJECTS = [5, "x", None, [RECORD, 5]]


def flag_and_object_cases():
    for name, where, call in FLAGS:
        for value in BAD_FLAGS:
            yield pytest.param(name, ConfigError, call, value, id=f"{name}-flag-{where}-{value!r}")
    for name, where, error, call in OBJECTS:
        for value in BAD_OBJECTS:
            yield pytest.param(name, error, call, value, id=f"{name}-object-{where}-{value!r:.12}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, error, call, value", flag_and_object_cases())
def test_bad_flag_or_object_raises_naming_it(no_work, name, error, call, value):
    with pytest.raises(error) as info:
        call(value)
    assert names(str(info.value), name), str(info.value)


def test_flags_take_bools():
    assert remove_batch([ZZ], {"en": EN}, strict=False).passed_through == {"zz": 1}
    plain = fit_decomposition(MATRIX, 1)[0].basis.tobytes()
    assert fit_decomposition(MATRIX, 1, center=False, normalize=False)[0].basis.tobytes() == plain
    assert fit_decomposition(MATRIX, 1, center=True)[0].basis.tobytes() != plain


@pytest.mark.parametrize("value", [1, None, (TABLE,), (TABLE, LABELS, 0), [5, LABELS]],
                         ids=["int", "None", "one", "three", "int-records"])
def test_bad_test_pair_raises_naming_it(value):
    # Checked on lookup, after training: tests may decode each set when it is looked up.
    with pytest.raises(LirError) as info:
        evaluate_transfer(TABLE, LABELS, {"en": value})
    assert names(str(info.value), r"tests\['en'\]"), str(info.value)


CONFIG_VALUES = [
    1, -0.0, 1.5, 10**400, "s", True, None, [1, "a", [None]], {"a": {"b": [1.5]}}, np.float64(0.25),
    np.int64(1), np.float64(math.nan), *BAD_CONFIG_VALUES, {"a": {"b": 1, 2: 3}}, [math.inf], "\ud800",
]


def test_report_json_succeeds_for_every_report_that_constructs():
    def refuse(constant):
        raise AssertionError(f"report_json wrote {constant}")

    builds = (lambda c: EvalReport(0.5, {"en": 0.5}, 1, c), lambda c: TransferReport({"en": 0.5}, 0.5, "en", c))
    built = 0
    for value, build in itertools.product(CONFIG_VALUES, builds):
        try:
            report = build({"x": value})
        except ConfigError as exc:
            assert names(str(exc), r"config\['x'\]"), str(exc)
            continue
        assert json.loads(report_json(report), parse_constant=refuse)["config"] == {"x": value}
        built += 1
    assert built == 2 * 11


def test_readme_table_names_every_checker_of_lir_errors():
    # The "Checker" column of the README's argument table, against the
    # functions lir.errors defines: a new checker needs its own row.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("\n| Argument kind | Checker |", 1)[1].splitlines()[2:]
    rows = itertools.takewhile(lambda line: line.startswith("| "), lines)
    named = {name for row in rows for name in re.findall(r"`(\w+)`", row.split(" | ")[1])}
    defined = {name for name, value in vars(lir.errors).items()
               if inspect.isfunction(value) and value.__module__ == "lir.errors"}
    assert named == defined


def case_ids():
    """(test, id) of every case the parametrized tests above take from a table."""
    tests = [cases(INTEGERS, BAD_INTEGERS), cases(REALS, BAD_REALS), array_cases(),
             [*name_cases(), *choice_cases(), *mapping_cases(), *config_cases(), *writer_cases()],
             flag_and_object_cases()]
    return [(test, param.id) for test, params in enumerate(tests) for param in params]


def test_case_ids_are_unique_and_kept_when_a_row_goes(monkeypatch):
    # An id names its own row, not the row's position: without any one row, the
    # other rows' cases keep their ids.
    ids = case_ids()
    assert len(set(ids)) == len(ids)
    for table in ("INTEGERS", "REALS", "ARRAYS", "NAMES", "COLUMNS", "CHOICES", "MAPPINGS", "WRITERS",
                  "FLAGS", "OBJECTS"):
        for i in range(len(globals()[table])):
            with monkeypatch.context() as patch:
                rows = globals()[table]
                patch.setitem(globals(), table, rows[:i] + rows[i + 1 :])
                fewer = case_ids()
            assert len(fewer) < len(ids) and set(fewer) <= set(ids), (table, i)
