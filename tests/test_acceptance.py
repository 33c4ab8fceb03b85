"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget. Tolerances are pinned here, not configurable.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools
import hashlib
import json
import os
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lir
from lir.cli import main as cli_main
from lir.evaluation import LogisticConfig
from lir.io import (
    read_components,
    read_embeddings,
    read_labels,
    read_qrels,
    report_json,
    report_to_dict,
    write_components,
    write_embeddings,
)
from lir.synth import _take
from oracles import average_precision_oracle, gram_eigvals_oracle


def criterion(number, description, budget_seconds):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_seconds, (
                    f"runtime {elapsed:.1f}s exceeds the {budget_seconds}s budget"
                )
            except BaseException:
                print(f"[acceptance] criterion {number} FAIL - {description}", flush=True)
                raise
            print(
                f"[acceptance] criterion {number} PASS - {description} ({elapsed:.2f}s)",
                flush=True,
            )

        return wrapper

    return deco


BIASED_CONFIG = dict(
    languages=("l00", "l01", "l02", "l03"),
    topics=50,
    per_topic_per_lang=25,
    dim=64,
    bias_scale=5.0,
    semantic_scale=1.0,
    noise_scale=0.1,
    seed=42,
)


def language_rows(result, lang):
    """The table of a generated corpus's rows of one language."""
    return _take(result.table, np.flatnonzero([tag == lang for tag in result.table.langs]))


def records_of(table):
    return [lir.EmbeddingRecord(*row) for row in zip(table.ids, table.langs, table.rows)]


def table_of(records):
    return lir.EmbeddingTable([r.id for r in records], [r.lang for r in records], np.array([r.vec for r in records]))


def fit_all(result, rank=1):
    return {
        lang: lir.fit_decomposition(language_rows(result, lang), rank)[0]
        for lang in result.config.languages
    }


@criterion(1, "SVD reconstruction and brute-force spectrum agreement", 10.0)
def test_criterion_1_svd_correctness():
    rng = np.random.default_rng(20240100)
    checked_against_oracle = 0
    for trial in range(200):
        n = int(rng.integers(1, 101))
        d = int(rng.integers(1, 17))
        scale = float(10.0 ** rng.uniform(-3, 3))
        a = scale * rng.standard_normal((n, d))
        res = lir.svd(a)
        k = min(n, d)
        recon = res.u @ np.diag(res.sigma) @ res.v.T
        assert np.linalg.norm(recon - a) <= 1e-6 * max(1.0, np.linalg.norm(a))
        assert np.all(res.sigma >= 0.0) and np.all(np.diff(res.sigma) <= 0.0)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) <= 1e-6
        assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) <= 1e-6
        if k <= 6:
            oracle = np.array(gram_eigvals_oracle(a)[:k])
            tol = 1e-8 * max(float(oracle[0]), 1e-30)
            assert np.max(np.abs(res.sigma**2 - oracle)) <= tol
            checked_against_oracle += 1
    assert checked_against_oracle >= 50


@criterion(2, "projection laws on 1,000 randomized cases plus the literal-formula witness", 5.0)
def test_criterion_2_projection_laws():
    rng = np.random.default_rng(20240200)
    for _ in range(1000):
        d = int(rng.integers(1, 33))
        r = int(rng.integers(0, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
        basis = q[:, :r]
        v = rng.standard_normal(d) * float(10.0 ** rng.uniform(-2, 2))
        out = lir.project_out(v, basis)
        again = lir.project_out(out, basis)
        assert np.max(np.abs(again - out)) <= 1e-9 * max(1.0, float(np.linalg.norm(v)))
        if r:
            assert np.max(np.abs(basis.T @ out)) <= 1e-6 * max(1.0, float(np.linalg.norm(v)))
        assert np.linalg.norm(out) <= np.linalg.norm(v) + 1e-12
    # documented non-idempotence of the norm-scaled variant: v = 2c maps to c
    c = np.zeros(5)
    c[2] = 1.0
    basis = c.reshape(5, 1)
    once = lir.project_out_scaled(2.0 * c, basis)
    assert np.allclose(once, c, atol=1e-12)
    assert np.linalg.norm(lir.project_out_scaled(once, basis)) <= 1e-12


@criterion(3, "average precision equals the exact rational oracle", 1.0)
def test_criterion_3_map_oracle():
    ranking = lir.RankedList(query_id="q", candidate_ids=("rel1", "other", "rel2"))
    ap = lir.average_precision(ranking, {"rel1", "rel2"})
    assert ap == float(Fraction(5, 6))
    rng = np.random.default_rng(20240300)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        ids = [f"c{i}" for i in range(n)]
        rng.shuffle(ids)
        n_rel = int(rng.integers(1, n + 1))
        relevant = set(rng.choice(ids, size=n_rel, replace=False).tolist())
        got = lir.average_precision(lir.RankedList("q", tuple(ids)), relevant)
        assert got == float(average_precision_oracle(ids, relevant))


@criterion(4, "bias removal: component recovery and MAP gain on the biased corpus", 30.0)
def test_criterion_4_synthetic_bias_removal():
    result = lir.generate(lir.SynthConfig(**BIASED_CONFIG))
    bases = fit_all(result, rank=1)
    for lang in result.config.languages:
        truth = result.ground_truth[lang]
        unit = truth / np.linalg.norm(truth)
        cos = abs(float(bases[lang].basis[:, 0] @ unit))
        assert cos >= 0.95, f"{lang}: |cos|={cos:.4f}"
    dataset = result.retrieval_dataset()
    before = lir.evaluate_retrieval(dataset)
    after = lir.evaluate_retrieval(dataset, bases, mode=lir.RemovalMode.ORTHOGONAL)
    assert after.overall_map - before.overall_map >= 0.3, (
        f"improvement {after.overall_map - before.overall_map:.3f}"
    )
    assert after.overall_map >= 0.9, f"MAP after {after.overall_map:.3f}"


@criterion(5, "no-bias regression: removal changes MAP by at most -0.05 / +0.02", 30.0)
def test_criterion_5_strong_alignment_regression():
    config = dict(BIASED_CONFIG)
    config["bias_scale"] = 0.0
    result = lir.generate(lir.SynthConfig(**config))
    bases = fit_all(result, rank=1)
    dataset = result.retrieval_dataset()
    before = lir.evaluate_retrieval(dataset)
    after = lir.evaluate_retrieval(dataset, bases, mode=lir.RemovalMode.ORTHOGONAL)
    delta = after.overall_map - before.overall_map
    assert delta >= -0.05, f"delta {delta:.4f} below -0.05"
    assert delta <= 0.02, f"delta {delta:.4f} above +0.02"


@criterion(6, "transfer: removal lifts cross-language accuracy without hurting in-language", 30.0)
def test_criterion_6_transfer_direction():
    # Odd topic count makes the parity labels imbalanced, so part of the
    # learned intercept rides on the train language's offset direction and
    # fails to transfer unless the offsets are removed.
    config = lir.SynthConfig(
        languages=("l00", "l01", "l02", "l03"),
        topics=3,
        per_topic_per_lang=60,
        dim=16,
        bias_scale=14.0,
        semantic_scale=1.0,
        noise_scale=0.3,
        seed=42,
        label_rule="topic-parity",
    )
    result = lir.generate(config)
    bases = fit_all(result, rank=1)
    train_lang = "l00"
    train_records = records_of(language_rows(result, train_lang))
    train_labels = [result.labels[r.id] for r in train_records]
    tests = {
        lang: (
            records_of(language_rows(result, lang)),
            [result.labels[r.id] for r in records_of(language_rows(result, lang))],
        )
        for lang in config.languages
    }
    settings = LogisticConfig(learning_rate=1.0, epochs=800, l2=0.0)
    baseline = lir.evaluate_transfer(train_records, train_labels, tests, logistic=settings)
    treated = lir.evaluate_transfer(
        train_records, train_labels, tests, bases, placement="both", logistic=settings
    )
    others = [lang for lang in config.languages if lang != train_lang]
    base_avg = sum(baseline.per_language_accuracy[lang] for lang in others) / len(others)
    treated_avg = sum(treated.per_language_accuracy[lang] for lang in others) / len(others)
    assert treated_avg - base_avg >= 0.1, (
        f"gap {treated_avg - base_avg:.3f} (baseline {base_avg:.3f}, treated {treated_avg:.3f})"
    )
    train_drop = (
        baseline.per_language_accuracy[train_lang]
        - treated.per_language_accuracy[train_lang]
    )
    assert train_drop <= 0.02, f"train-language accuracy dropped by {train_drop:.3f}"


def separation_statistic(records):
    """Between-language over within-topic centroid distance in 2-D PCA scores."""
    rows = lir.export_projection(records, 2)
    scores = {rid: np.array(vals) for rid, _, vals in rows}
    by_lang: dict = {}
    by_topic: dict = {}
    for rec in records:
        s = scores[rec.id]
        by_lang.setdefault(rec.lang, []).append(s)
        by_topic.setdefault(rec.id.rsplit("-", 2)[1], []).append(s)
    lang_centroids = {k: np.mean(v, axis=0) for k, v in by_lang.items()}
    keys = sorted(lang_centroids)
    between = np.mean(
        [
            np.linalg.norm(lang_centroids[a] - lang_centroids[b])
            for i, a in enumerate(keys)
            for b in keys[i + 1 :]
        ]
    )
    within = np.mean(
        [
            np.mean([np.linalg.norm(s - np.mean(group, axis=0)) for s in group])
            for group in by_topic.values()
        ]
    )
    return float(between / within)


@criterion(7, "2-D PCA language separation collapses at least 5x after removal", 10.0)
def test_criterion_7_pca_separation():
    result = lir.generate(lir.SynthConfig(**BIASED_CONFIG))
    bases = fit_all(result, rank=1)
    records = records_of(result.table)
    pre = separation_statistic(records)
    post = separation_statistic(lir.remove_batch(records, bases).records)
    assert pre >= 5.0 * post, f"pre {pre:.3f}, post {post:.3f}, ratio {pre / post:.2f}"


def run_cli(args, cwd, env=None, module=True):
    """Run `python -m lir args` (or `python args` if not module) in cwd."""
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    # The child runs in `cwd`, where a relative PYTHONPATH entry would not
    # resolve: point it at the package this test imported.
    package_root = str(Path(lir.__file__).resolve().parent.parent)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, full_env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, *(["-m", "lir"] if module else []), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=full_env,
    )
    assert proc.returncode == 0, f"lir {' '.join(args)} failed: {proc.stderr}"
    return proc


def run_full_pipeline(root: Path, env=None):
    root.mkdir(parents=True)
    run_cli(
        [
            "synth", "--languages", "3", "--topics", "10", "--per", "6", "--dim", "24",
            "--bias", "5.0", "--seed", "1234", "--labels", "--out", "data",
        ],
        root,
        env=env,
    )
    run_cli(["fit", "--input", "data/corpus", "--rank", "1", "--output", "comp"], root, env=env)
    run_cli(
        [
            "apply", "--components", "comp", "--input", "data/corpus/l00.lire",
            "--output", "applied_l00.lire",
        ],
        root,
        env=env,
    )
    run_cli(
        [
            "eval-retrieval", "--queries", "data/queries", "--candidates", "data/candidates",
            "--qrels", "data/qrels.jsonl", "--report", "baseline.json",
        ],
        root,
        env=env,
    )
    run_cli(
        [
            "eval-retrieval", "--queries", "data/queries", "--candidates", "data/candidates",
            "--qrels", "data/qrels.jsonl", "--components", "comp", "--mode", "paper-eq1",
            "--report", "treated.json",
        ],
        root,
        env=env,
    )
    run_cli(
        [
            "eval-transfer", "--train", "data/corpus/l00.lire", "--tests", "data/corpus",
            "--labels", "data/labels.jsonl", "--components", "comp", "--placement", "both",
            "--epochs", "120", "--report", "transfer.json",
        ],
        root,
        env=env,
    )
    run_cli(["project", "--input", "data/corpus", "--dims", "2", "--output", "scores.csv"], root, env=env)


def tree_hashes(root: Path):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@criterion(8, "CLI pipeline reruns are byte-identical (checksum comparison)", 60.0)
def test_criterion_8_determinism(tmp_path):
    # second run pins every math-library thread pool to 1 so the comparison
    # also covers thread-count variation, not just rerun stability
    single_thread = {
        name: "1"
        for name in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    }
    run_full_pipeline(tmp_path / "run1")
    run_full_pipeline(tmp_path / "run2", env=single_thread)
    hashes1 = tree_hashes(tmp_path / "run1")
    hashes2 = tree_hashes(tmp_path / "run2")
    assert hashes1.keys() == hashes2.keys()
    mismatched = [name for name in hashes1 if hashes1[name] != hashes2[name]]
    assert not mismatched, f"non-deterministic outputs: {mismatched}"
    assert len(hashes1) >= 15


@criterion("8b", "fit, SVD and PCA bytes do not depend on the BLAS thread count (1, 2, 4, 8)", 30.0)
def test_criterion_8b_blas_thread_count(openblas_threads, across_threads, monkeypatch):
    # Multi-threaded OpenBLAS rounds a^T a differently from one thread at
    # 3000 x 300 (not at 1000 x 256), a a^T at the n < d 100 x 768, and U's
    # recovery from a V at most shapes. Criterion 8's d=24 sees none of this.
    get_threads, set_threads = openblas_threads
    rng = np.random.default_rng(7)
    for n, d in ((1000, 256), (3000, 300), (100, 768)):
        rows = rng.standard_normal((n, d))
        matrix = lir.EmbeddingTable([f"r{i}" for i in range(n)], ["en"] * n, rows)

        def factorizations():
            basis, sigma = lir.fit_decomposition(matrix, 4)
            full = lir.svd(rows)
            return (
                basis.basis.tobytes(),
                sigma.tobytes(),
                lir.pca_project(rows, 2).tobytes(),
                full.u.tobytes(),
                full.sigma.tobytes(),
                full.v.tobytes(),
            )

        outputs = across_threads(factorizations)
        for threads, output in outputs.items():
            assert output == outputs[1], f"{n} x {d}: {threads} threads"

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    set_threads(2)
    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(lir.NumericalFailure):
        lir.fit_decomposition(matrix, 4)
    assert get_threads() == 2


@criterion("8c", "retrieval reports do not depend on the BLAS thread count", 60.0)
def test_criterion_8c_retrieval_blas_thread_count(openblas_threads):
    # 4001 vectors x 5 copies under shuffled ids: at 20k x 64 a multi-threaded
    # BLAS gemv splits the rows between threads and rounds the copies apart.
    get_threads, set_threads = openblas_threads
    rng = np.random.default_rng(37)
    base = rng.standard_normal((4001, 64))
    group = np.repeat(np.arange(4001), 5)
    ids = [f"c{i:05d}" for i in rng.permutation(group.size)]
    candidates = [
        lir.EmbeddingRecord(id=cid, lang="en", vec=base[g]) for cid, g in zip(ids, group)
    ]
    members = {}
    for cid, g in zip(ids, group.tolist()):
        members.setdefault(g, []).append(cid)
    queries = [
        lir.EmbeddingRecord(id=f"q{i:02d}", lang="en", vec=rng.standard_normal(64))
        for i in range(20)
    ]
    # Two of each group's five copies are relevant, so AP sees a reorder inside a group.
    qrels = {
        q.id: {cid for g in range(i, 4001, 20) for cid in sorted(members[g])[:2]}
        for i, q in enumerate(queries)
    }
    dataset = lir.RetrievalDataset(queries=queries, candidates=candidates, qrels=qrels)
    outputs = []
    for threads in (1, 2):
        set_threads(threads)
        outputs.append(report_json(lir.evaluate_retrieval(dataset)))
        assert get_threads() == threads
    assert outputs[0] == outputs[1]


@criterion("8d", "batch removal rows do not depend on position, batch or BLAS thread count", 60.0)
def test_criterion_8d_removal_row_independence(openblas_threads):
    # 2005 rows in 3 languages: a per-language BLAS gemm rounds most rows
    # differently from the same kernel on one row.
    get_threads, set_threads = openblas_threads
    rng = np.random.default_rng(41)
    langs = ("l00", "l01", "l02")
    offsets = {lang: 5.0 * rng.standard_normal(64) for lang in langs}
    records = [
        lir.EmbeddingRecord(
            id=f"r{i:04d}", lang=langs[i % 3], vec=offsets[langs[i % 3]] + rng.standard_normal(64)
        )
        for i in range(2005)
    ]
    for rank in (1, 4):
        bases = {
            lang: lir.fit_decomposition(table_of([r for r in records if r.lang == lang]), rank)[0]
            for lang in langs
        }
        for mode in lir.RemovalMode:
            outputs = []
            for threads in (1, 2):
                set_threads(threads)
                batch = lir.remove_batch(records, bases, mode).records
                assert get_threads() == threads
                outputs.append(b"".join(r.vec.tobytes() for r in batch))
            assert outputs[0] == outputs[1], f"rank {rank} {mode.value}: thread count"
            alone = [
                lir.remove_batch([r], {r.lang: bases[r.lang]}, mode).records[0].vec.tobytes()
                for r in records
            ]
            assert [r.vec.tobytes() for r in batch] == alone, f"rank {rank} {mode.value}"
            backward = lir.remove_batch(records[::-1], bases, mode).records
            assert [r.vec.tobytes() for r in backward] == alone[::-1]

    queries = [
        lir.EmbeddingRecord(id=f"q{i:02d}", lang=r.lang, vec=r.vec + 0.1 * rng.standard_normal(64))
        for i, r in enumerate(records[:30])
    ]
    qrels = {q.id: {r.id for r in records[i::30]} for i, q in enumerate(queries)}

    def order_free_json(candidates):
        # The candidate fingerprint identifies the input order on purpose.
        dataset = lir.RetrievalDataset(queries=queries, candidates=candidates, qrels=qrels)
        report = report_to_dict(lir.evaluate_retrieval(dataset, bases))
        del report["config"]["candidates_fingerprint"]
        return json.dumps(report, sort_keys=True)

    assert order_free_json(records[::-1]) == order_free_json(records)


def _avx512_targets():
    """numpy's AVX-512 dispatch targets in this build (empty off x86-64)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [name for name in __cpu_dispatch__ if name == "X86_V4" or name.startswith("AVX512")]


# `lir synth`, then the sha256 of every read_components basis in argv[1].
SYNTH_AND_READ = """
import hashlib, sys
from pathlib import Path
from lir.cli import main
from lir.io import read_components
assert main(sys.argv[2:]) == 0
digest = hashlib.sha256()
for path in sorted(Path(sys.argv[1]).glob("*.lirc")):
    digest.update(read_components(path).basis.tobytes())
print(digest.hexdigest())
"""


@criterion("8e", "synth corpora and read bases do not depend on BLAS threads or CPU kernels", 60.0)
def test_criterion_8e_same_bytes_on_every_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks another OpenBLAS kernel and NPY_DISABLE_CPU_FEATURES
    # turns numpy's AVX-512 loops off, so this one machine acts as several CPUs.
    # A BLAS product in synth's or read_components' Gram-Schmidt rounds apart
    # under Haswell and Prescott.
    synth = ["synth", "--languages", "4", "--topics", "20", "--per", "50", "--dim", "128",
             "--bias", "5.0", "--labels", "--seed", "7", "--out"]
    assert cli_main([*synth, str(tmp_path / "ref")]) == 0
    comp = tmp_path / "comp"
    assert cli_main(["fit", "--input", str(tmp_path / "ref" / "corpus"), "--rank", "4",
                     "--output", str(comp)]) == 0
    settings = {
        "default": {},
        "1 thread": {"OPENBLAS_NUM_THREADS": "1"},
        "8 threads": {"OPENBLAS_NUM_THREADS": "8"},
        "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    }
    avx512 = _avx512_targets()
    if avx512:
        settings["no AVX-512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    files, bases = {}, {}
    for name, env in settings.items():  # one child at a time
        out = tmp_path / name.replace(" ", "-")
        child = [*synth, str(out)]
        proc = run_cli(["-c", SYNTH_AND_READ, str(comp), *child], tmp_path, env, module=False)
        files[name] = tree_hashes(out)
        bases[name] = proc.stdout.splitlines()[-1]
    assert len(files["default"]) == 15  # 4 languages x 3 + qrels, labels, manifest
    assert files["default"] == tree_hashes(tmp_path / "ref")
    for name in settings:
        assert files[name] == files["default"], f"synth files differ under {name}"
        assert bases[name] == bases["default"], f"read_components bases differ under {name}"


def _valid_lire_bytes():
    records = [
        lir.EmbeddingRecord(id=f"r{i}", lang="en", vec=np.arange(3.0) + i) for i in range(3)
    ]
    from tempfile import NamedTemporaryFile

    with NamedTemporaryFile(suffix=".lire", delete=False) as handle:
        path = Path(handle.name)
    write_embeddings(path, records)
    blob = path.read_bytes()
    path.unlink()
    return blob


def malformed_corpus(base: Path):
    """Build the malformed-file corpus; returns (path, reader, error, cli_args)."""
    lire = _valid_lire_bytes()
    rng = np.random.default_rng(3)
    ortho, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    basis = lir.ComponentBasis(
        lang="en", basis=ortho, rank=3, source_fingerprint="fp", sample_count=10
    )
    lirc_path = base / "valid.lirc.tmp"
    write_components(lirc_path, basis)
    lirc = lirc_path.read_bytes()
    lirc_path.unlink()
    head_len = struct.unpack("<I", lirc[5:9])[0]
    values_at = 9 + head_len

    def corrupt_column(blob):
        out = bytearray(blob)
        col = np.frombuffer(bytes(out[values_at : values_at + 24]), dtype="<f4")
        out[values_at : values_at + 24] = (col * 2.0).astype("<f4").tobytes()
        return bytes(out)

    def patch_rank(blob):
        header = json.loads(blob[9 : 9 + head_len].decode())
        header["rank"] = 99
        hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        return blob[:5] + struct.pack("<I", len(hjson)) + hjson + blob[values_at:]

    nan_f32 = struct.pack("<f", float("nan"))
    cases = [
        ("empty.lire", b"", read_embeddings, lir.FormatError),
        ("magic.lire", b"XXXX" + lire[4:], read_embeddings, lir.FormatError),
        ("version.lire", lire[:4] + bytes([9]) + lire[5:], read_embeddings, lir.FormatError),
        ("hdrcut.lire", lire[:20], read_embeddings, lir.TruncatedFile),
        ("hdrjson.lire", lire[:9] + b"x" * (len(lire) - 9), read_embeddings, lir.FormatError),
        ("count.lire", lire[: len(lire) - (2 + 2 + 12)], read_embeddings, lir.TruncatedFile),
        ("trailing.lire", lire + b"\x01", read_embeddings, lir.FormatError),
        ("utf8.lire", lire.replace(b"r0", b"\xff\xfe", 1), read_embeddings, lir.FormatError),
        (
            "nan.lire",
            lire[: len(lire) - 4] + nan_f32,
            read_embeddings,
            lir.InvalidVector,
        ),
        ("magic.lirc", b"LIRX" + lirc[4:], read_components, lir.FormatError),
        ("cut.lirc", lirc[:-10], read_components, lir.TruncatedFile),
        ("scaled.lirc", corrupt_column(lirc), read_components, lir.CorruptBasis),
        ("rank.lirc", patch_rank(lirc), read_components, lir.FormatError),
        ("trailing.lirc", lirc + b"\x00", read_components, lir.FormatError),
        ("version.lirc", lirc[:4] + bytes([7]) + lirc[5:], read_components, lir.FormatError),
        (
            "badline.qrels.jsonl",
            b'{"query_id": "q", "relevant": ["a"]}\nnot json at all\n',
            read_qrels,
            lir.ParseError,
        ),
        (
            "missing.labels.jsonl",
            b'{"label": 1}\n',
            read_labels,
            lir.ParseError,
        ),
        (
            "relevant.qrels.jsonl",
            b'{"query_id": "q", "relevant": "a"}\n',
            read_qrels,
            lir.ParseError,
        ),
        (
            "dupid.labels.jsonl",
            b'{"id": "a", "label": 1}\n{"id": "a", "label": 0}\n',
            read_labels,
            lir.DuplicateKey,
        ),
        (
            "dupq.qrels.jsonl",
            b'{"query_id": "q", "relevant": ["a"]}\n{"query_id": "q", "relevant": ["b"]}\n',
            read_qrels,
            lir.DuplicateKey,
        ),
        (
            "badlabel.labels.jsonl",
            b'{"id": "a", "label": 7}\n',
            read_labels,
            lir.ParseError,
        ),
    ]
    out = []
    for name, blob, reader, error in cases:
        path = base / name
        path.write_bytes(blob)
        out.append((path, reader, error))
    return out


@criterion(9, "malformed-file corpus: structured errors and exit code 2, zero crashes", 5.0)
def test_criterion_9_io_totality(tmp_path):
    corpus_dir = tmp_path / "malformed"
    corpus_dir.mkdir()
    cases = malformed_corpus(corpus_dir)
    assert len(cases) >= 20

    # every case raises its expected structured error through the API
    for path, reader, error in cases:
        with pytest.raises(error):
            reader(path)

    # and reaches exit code 2 (never a crash) through the CLI entry point
    comp_dir = tmp_path / "lirc_case"
    report = str(tmp_path / "r.json")
    valid_lire = tmp_path / "valid.lire"
    valid_lire.write_bytes(_valid_lire_bytes())
    for path, reader, _ in cases:
        name = path.name
        if name.endswith(".lirc"):
            if comp_dir.exists():
                for old in comp_dir.glob("*"):
                    old.unlink()
            else:
                comp_dir.mkdir()
            (comp_dir / "en.lirc").write_bytes(path.read_bytes())
            argv = [
                "apply", "--components", str(comp_dir),
                "--input", str(valid_lire), "--output", str(tmp_path / "out.lire"),
            ]
        elif name.endswith(".qrels.jsonl"):
            argv = [
                "eval-retrieval", "--queries", str(valid_lire),
                "--candidates", str(valid_lire), "--qrels", str(path),
                "--report", report,
            ]
        elif name.endswith(".labels.jsonl"):
            argv = [
                "eval-transfer", "--train", str(valid_lire), "--tests", str(tmp_path),
                "--labels", str(path), "--report", report,
            ]
        else:
            argv = [
                "fit", "--input", str(path), "--rank", "1",
                "--output", str(tmp_path / "comp_out"),
            ]
        code = cli_main(argv)
        assert code == 2, f"{name}: expected exit 2, got {code}"
