import contextlib
import hashlib
import json
import os
import re
import resource
import struct
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import lir
from lir import DuplicateKey
from lir.cli import main
from lir.io import (
    read_components,
    read_components_dir,
    read_embeddings,
    read_qrels,
    write_components,
    write_embeddings,
    write_labels,
)

from oracles import synth_files_oracle


def run_synth(out, languages=3, topics=6, per=5, dim=16, bias=5.0, seed=9, labels=False, extra=()):
    argv = [
        "synth",
        "--languages", str(languages),
        "--topics", str(topics),
        "--per", str(per),
        "--dim", str(dim),
        "--bias", str(bias),
        "--seed", str(seed),
        "--out", str(out),
    ]
    if labels:
        argv.append("--labels")
    argv.extend(extra)
    return main(argv)


def tree_hashes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthCommand:
    def test_writes_expected_tree(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data", labels=True) == 0
        out = tmp_path / "data"
        for sub in ("corpus", "queries", "candidates"):
            assert sorted(p.name for p in (out / sub).glob("*.lire")) == [
                "l00.lire", "l01.lire", "l02.lire",
            ]
        assert (out / "qrels.jsonl").exists()
        assert (out / "labels.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["records"] == 3 * 6 * 5
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_identical_checksums(self, tmp_path):
        run_synth(tmp_path / "a", labels=True)
        run_synth(tmp_path / "b", labels=True)
        assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")

    def test_bias_change_keeps_topics(self, tmp_path):
        run_synth(tmp_path / "b0", bias=0.0)
        run_synth(tmp_path / "b5", bias=5.0)
        for lang in ("l00", "l01", "l02"):
            zero = read_embeddings(tmp_path / "b0" / "corpus" / f"{lang}.lire")
            five = read_embeddings(tmp_path / "b5" / "corpus" / f"{lang}.lire")
            shifts = np.stack([a.vec - b.vec for a, b in zip(five, zero)])
            # constant per-language shift: topic and noise draws are unchanged
            assert np.max(np.abs(shifts - shifts[0])) <= 1e-6

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        assert run_synth(tmp_path / "x", topics=1) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("languages", [2, 3])
    def test_topics_beyond_the_free_dims_exit_2_writes_nothing(self, tmp_path, capsys, languages):
        # At dim 16, 16 - languages topics leave room for the offsets; one more does not.
        out = tmp_path / "x"
        assert run_synth(out, languages=languages, topics=17 - languages, dim=16) == 2
        assert capsys.readouterr().err == (
            "error: cannot orthogonalize language offsets against the topic span; "
            "increase dim or reduce topics\n"
        )
        assert not out.exists()
        assert run_synth(out, languages=languages, topics=16 - languages, dim=16) == 0

    @pytest.mark.parametrize("per", [1, 0])
    def test_per_below_two_exit_2_writes_nothing(self, tmp_path, capsys, per):
        out = tmp_path / "x"
        assert run_synth(out, per=per, labels=True) == 2
        assert "--per must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bias_beyond_float32_exit_2_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_synth(out, bias=1e300, labels=True) == 2
        assert "beyond the 32-bit float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--skew", "nan"), ("--skew", "inf"), ("--noise", "inf"), ("--noise", "nan"),
        ("--bias", "nan"), ("--bias", "inf"), ("--semantic", "inf"),
    ])
    def test_non_finite_scale_exit_2_writes_nothing(self, tmp_path, capsys, flag, value):
        # Rejected before anything is drawn: no numpy warning, no record error.
        out = tmp_path / "x"
        assert run_synth(out, languages=2, topics=3, per=2, dim=8, bias=1.0, seed=1,
                         extra=(flag, value)) == 2
        field = {"--skew": "skew", "--noise": "noise_scale", "--bias": "bias_scale",
                 "--semantic": "semantic_scale"}[flag]
        assert capsys.readouterr().err == f"error: {field} must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("params", [
        {"labels": True},
        {},
        {"per": 2, "labels": True},
        {"languages": 1, "labels": True},
        {"skew": 0.3, "labels": True},
        {"dim": 256, "topics": 20, "per": 3},
    ])
    def test_files_match_the_full_table_oracle(self, tmp_path, params):
        args = {"languages": 3, "topics": 6, "per": 5, "dim": 16, "bias": 5.0, "seed": 9,
                "labels": False, "skew": 0.0, **params}
        skew = args.pop("skew")
        assert run_synth(tmp_path / "cli", **args, extra=("--skew", str(skew))) == 0
        config = lir.SynthConfig(
            languages=tuple(f"l{i:02d}" for i in range(args["languages"])),
            topics=args["topics"], per_topic_per_lang=args["per"], dim=args["dim"],
            bias_scale=args["bias"], seed=args["seed"], skew=skew,
            label_rule="topic-parity" if args["labels"] else None,
        )
        synth_files_oracle(config, tmp_path / "oracle")
        assert tree_hashes(tmp_path / "cli") == tree_hashes(tmp_path / "oracle")

    def test_checks_rows_once_and_writes_each_corpus_from_a_view(self, tmp_path, monkeypatch):
        import lir.core
        import lir.synth

        checked, results, written = [], [], {}
        check_rows, generate, write = lir.core._check_rows, lir.synth.generate, lir.cli.write_embeddings

        def spy_check_rows(ids, langs, rows):
            checked.append(len(ids))
            return check_rows(ids, langs, rows)

        def spy_generate(config):
            results.append(generate(config))
            return results[-1]

        def spy_write(path, table):
            written[Path(path).relative_to(tmp_path / "d").as_posix()] = table
            return write(path, table)

        monkeypatch.setattr(lir.core, "_check_rows", spy_check_rows)
        monkeypatch.setattr(lir.synth, "generate", spy_generate)
        monkeypatch.setattr(lir.cli, "write_embeddings", spy_write)
        assert run_synth(tmp_path / "d", labels=True) == 0
        (result,) = results
        assert checked == [len(result.table)]  # the generated table's, and no sub-table's
        assert len(written) == 9
        for lang in ("l00", "l01", "l02"):
            corpus = written[f"corpus/{lang}.lire"]
            assert np.shares_memory(corpus.rows, result.table.rows)
            assert corpus.ids == tuple(rid for rid in result.table.ids if rid.startswith(lang))
            for sub in ("queries", "candidates"):
                table = written[f"{sub}/{lang}.lire"]
                assert not np.shares_memory(table.rows, result.table.rows)
            for table in (written[f"{sub}/{lang}.lire"] for sub in ("corpus", "queries", "candidates")):
                assert not table.rows.flags.writeable

    def test_manifest_counts_match_files(self, tmp_path):
        run_synth(tmp_path / "d", languages=2, topics=3, per=4)
        counts = json.loads((tmp_path / "d" / "manifest.json").read_text())["counts"]
        rows = {
            sub: sum(len(read_embeddings(f)) for f in (tmp_path / "d" / sub).glob("*.lire"))
            for sub in ("corpus", "queries", "candidates")
        }
        assert counts == {"records": rows["corpus"], "queries": rows["queries"],
                          "candidates": rows["candidates"]}
        assert counts == {"records": 24, "queries": 6, "candidates": 18}


class TestFitCommand:
    def test_fit_matches_library_bitwise(self, tmp_path, capsys):
        run_synth(tmp_path / "data")
        code = main([
            "fit",
            "--input", str(tmp_path / "data" / "corpus"),
            "--rank", "1",
            "--output", str(tmp_path / "comp"),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "top_singular_values" in stdout
        files = sorted((tmp_path / "comp").glob("*.lirc"))
        assert [f.name for f in files] == ["l00.lirc", "l01.lirc", "l02.lirc"]
        from lir.io import write_components

        for lang in ("l00", "l01", "l02"):
            records = read_embeddings(tmp_path / "data" / "corpus" / f"{lang}.lire")
            expected = lir.fit_components(lir.LanguageMatrix.from_records(records), 1)
            direct = tmp_path / "direct.lirc"
            write_components(direct, expected)
            assert direct.read_bytes() == (tmp_path / "comp" / f"{lang}.lirc").read_bytes()

    def test_rank_too_large_exit_2(self, tmp_path, capsys):
        assert run_synth(tmp_path / "data", per=2, topics=2, dim=16) == 0
        code = main([
            "fit",
            "--input", str(tmp_path / "data" / "corpus" / "l00.lire"),
            "--rank", "99",
            "--output", str(tmp_path / "comp"),
        ])
        assert code == 2
        assert "rank 99" in capsys.readouterr().err.lower()

    def test_missing_input_exit_2(self, tmp_path):
        assert main([
            "fit", "--input", str(tmp_path / "nope"), "--rank", "1",
            "--output", str(tmp_path / "c"),
        ]) == 2

    def test_failure_on_second_language_writes_nothing(self, tmp_path, monkeypatch, capsys):
        run_synth(tmp_path / "data", topics=2, per=2, dim=16)
        capsys.readouterr()
        import lir.cli as cli_mod

        calls = []

        def fail_second(*args, **kwargs):
            calls.append(args[0].lang)
            if len(calls) == 2:
                raise lir.NumericalFailure("did not converge", iterations=0)
            return lir.fit_decomposition(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "fit_decomposition", fail_second)
        out = tmp_path / "comp"
        code = main([
            "fit", "--input", str(tmp_path / "data" / "corpus"), "--rank", "1",
            "--output", str(out),
        ])
        assert code == 3
        assert calls == ["l00", "l01"]
        assert not out.exists() or not any(out.iterdir())
        assert capsys.readouterr().out == ""

    def test_center_normalize_flags(self, tmp_path):
        run_synth(tmp_path / "data")
        assert main([
            "fit",
            "--input", str(tmp_path / "data" / "corpus" / "l00.lire"),
            "--rank", "1",
            "--output", str(tmp_path / "comp"),
            "--center", "--normalize",
        ]) == 0
        records = read_embeddings(tmp_path / "data" / "corpus" / "l00.lire")
        matrix = lir.LanguageMatrix.from_records(records)
        expected = lir.fit_components(matrix, 1, center=True, normalize=True)
        loaded = read_components(tmp_path / "comp" / "l00.lirc")
        assert np.max(np.abs(np.abs(loaded.basis) - np.abs(expected.basis))) <= 1e-4


@pytest.fixture
def pipeline(tmp_path):
    data = tmp_path / "data"
    comp = tmp_path / "comp"
    run_synth(data, labels=True)
    main(["fit", "--input", str(data / "corpus"), "--rank", "1", "--output", str(comp)])
    return tmp_path, data, comp


class TestApplyCommand:
    def test_apply_twice_idempotent_bytes(self, pipeline):
        tmp_path, data, comp = pipeline
        once = tmp_path / "once.lire"
        twice = tmp_path / "twice.lire"
        assert main([
            "apply", "--components", str(comp),
            "--input", str(data / "corpus" / "l00.lire"), "--output", str(once),
        ]) == 0
        assert main([
            "apply", "--components", str(comp),
            "--input", str(once), "--output", str(twice),
        ]) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_apply_matches_library(self, pipeline):
        tmp_path, data, comp = pipeline
        out = tmp_path / "out.lire"
        main(["apply", "--components", str(comp),
              "--input", str(data / "corpus" / "l00.lire"), "--output", str(out)])
        records = read_embeddings(data / "corpus" / "l00.lire")
        bases = read_components_dir(comp)
        expected = lir.remove_batch(records, bases).records
        direct = tmp_path / "direct.lire"
        write_embeddings(direct, expected)
        assert direct.read_bytes() == out.read_bytes()

    def test_scaled_mode_on_unit_input_close_to_orthogonal(self, pipeline, tmp_path):
        _, data, comp = pipeline
        records = read_embeddings(data / "corpus" / "l00.lire")
        unit = [
            lir.EmbeddingRecord(id=r.id, lang=r.lang, vec=r.vec / np.linalg.norm(r.vec))
            for r in records
        ]
        unit_path = tmp_path / "unit.lire"
        write_embeddings(unit_path, unit)
        out_orth = tmp_path / "orth.lire"
        out_scaled = tmp_path / "scaled.lire"
        main(["apply", "--components", str(comp), "--input", str(unit_path),
              "--output", str(out_orth), "--mode", "orthogonal"])
        main(["apply", "--components", str(comp), "--input", str(unit_path),
              "--output", str(out_scaled), "--mode", "paper-eq1"])
        for a, b in zip(read_embeddings(out_orth), read_embeddings(out_scaled)):
            assert np.max(np.abs(a.vec - b.vec)) <= 1e-6

    def test_missing_basis_pass_through_with_warning(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        # strip one language's basis
        (comp / "l02.lirc").unlink()
        out = tmp_path / "out.lire"
        code = main(["apply", "--components", str(comp),
                     "--input", str(data / "corpus" / "l02.lire"), "--output", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "passed through" in err and "l02" in err
        src = read_embeddings(data / "corpus" / "l02.lire")
        back = read_embeddings(out)
        assert all(np.array_equal(a.vec, b.vec) for a, b in zip(src, back))

    def test_missing_basis_strict_exit_2(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        (comp / "l02.lirc").unlink()
        code = main(["apply", "--components", str(comp),
                     "--input", str(data / "corpus" / "l02.lire"),
                     "--output", str(tmp_path / "out.lire"), "--strict"])
        assert code == 2
        assert "l02" in capsys.readouterr().err

    def test_missing_output_directory_names_the_output(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        target = tmp_path / "missing" / "x.lire"
        code = main(["apply", "--components", str(comp),
                     "--input", str(data / "corpus" / "l00.lire"), "--output", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"


class TestEvalRetrievalCommand:
    def test_baseline_and_improvement(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        base_report = tmp_path / "base.json"
        lir_report = tmp_path / "lir.json"
        assert main([
            "eval-retrieval",
            "--queries", str(data / "queries"),
            "--candidates", str(data / "candidates"),
            "--qrels", str(data / "qrels.jsonl"),
            "--report", str(base_report),
        ]) == 0
        assert main([
            "eval-retrieval",
            "--queries", str(data / "queries"),
            "--candidates", str(data / "candidates"),
            "--qrels", str(data / "qrels.jsonl"),
            "--components", str(comp),
            "--report", str(lir_report),
        ]) == 0
        base = json.loads(base_report.read_text())
        treated = json.loads(lir_report.read_text())
        assert treated["overall_map"] - base["overall_map"] >= 0.3
        assert base["config"]["rank"] == 0
        assert treated["config"]["rank"] == 1
        assert set(treated["per_language_map"]) == {"l00", "l01", "l02"}
        out = capsys.readouterr().out
        assert "overall_map" in out

    def test_relevant_ids_are_the_candidate_strings(self, pipeline, monkeypatch, tmp_path):
        _, data, _ = pipeline
        seen = []

        def spy(dataset, *args, **kwargs):
            seen.append(dataset)
            return evaluate(dataset, *args, **kwargs)

        # The handler imports evaluate_retrieval when it runs, so the spy goes on evaluation.
        evaluate = lir.evaluation.evaluate_retrieval
        monkeypatch.setattr(lir.evaluation, "evaluate_retrieval", spy)
        assert main(["eval-retrieval", "--queries", str(data / "queries"), "--candidates",
                     str(data / "candidates"), "--qrels", str(data / "qrels.jsonl"),
                     "--report", str(tmp_path / "r.json")]) == 0
        (dataset,) = seen
        held = {id(cid) for cid in dataset.candidates.ids}
        assert all(id(cid) in held for rel in dataset.qrels.values() for cid in rel)

    def test_matches_library_report_bytes(self, pipeline):
        tmp_path, data, comp = pipeline
        report_path = tmp_path / "cli.json"
        main([
            "eval-retrieval",
            "--queries", str(data / "queries"),
            "--candidates", str(data / "candidates"),
            "--qrels", str(data / "qrels.jsonl"),
            "--components", str(comp),
            "--report", str(report_path),
        ])
        queries = []
        candidates = []
        for f in sorted((data / "queries").glob("*.lire")):
            queries.extend(read_embeddings(f))
        for f in sorted((data / "candidates").glob("*.lire")):
            candidates.extend(read_embeddings(f))
        ds = lir.RetrievalDataset(
            queries=queries, candidates=candidates, qrels=read_qrels(data / "qrels.jsonl")
        )
        expected = lir.evaluate_retrieval(ds, read_components_dir(comp))
        from lir.io import report_json

        assert report_path.read_text() == report_json(expected)

    def test_unknown_candidate_in_qrels_exit_2(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        bad = tmp_path / "bad_qrels.jsonl"
        bad.write_text('{"query_id": "l00-t0000-0000", "relevant": ["ghost"]}\n')
        code = main([
            "eval-retrieval",
            "--queries", str(data / "queries"),
            "--candidates", str(data / "candidates"),
            "--qrels", str(bad),
            "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "ghost" in capsys.readouterr().err


def test_eval_commands_basis_of_wrong_dimension_exit_2(pipeline, capsys):
    tmp_path, data, _ = pipeline
    narrow = tmp_path / "narrow"
    narrow.mkdir()
    for lang in ("l00", "l01", "l02"):
        basis = lir.ComponentBasis(
            lang=lang, basis=np.eye(15)[:, :1], rank=1, source_fingerprint="x", sample_count=15
        )
        write_components(narrow / f"{lang}.lirc", basis)
    assert main([
        "eval-retrieval",
        "--queries", str(data / "queries"),
        "--candidates", str(data / "candidates"),
        "--qrels", str(data / "qrels.jsonl"),
        "--components", str(narrow),
        "--report", str(tmp_path / "r.json"),
    ]) == 2
    assert "basis expects 15" in capsys.readouterr().err
    assert main([
        "eval-transfer",
        "--train", str(data / "corpus" / "l00.lire"),
        "--tests", str(data / "corpus"),
        "--labels", str(data / "labels.jsonl"),
        "--components", str(narrow),
        "--report", str(tmp_path / "t.json"),
    ]) == 2
    assert "basis expects 15" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("case", ["repeated id", "other dimension", "repeated id of other dimension"])
def test_collection_of_several_files_exit_2(pipeline, capsys, case):
    # A directory is one record collection: the error is what check_collection
    # raises on the files' records read in name order.
    tmp_path, data, _ = pipeline
    split = tmp_path / "split"
    split.mkdir()
    records = read_embeddings(data / "candidates" / "l01.lire")
    write_embeddings(split / "l01.lire", records)
    first = read_embeddings(data / "candidates" / "l00.lire")[3]
    extra = [lir.EmbeddingRecord(id="new", lang="l02", vec=np.ones(16))]
    if case != "repeated id":
        extra = [lir.EmbeddingRecord(id=r.id, lang="l02", vec=np.ones(8)) for r in extra]
    if case != "other dimension":
        extra.insert(0, lir.EmbeddingRecord(id=records[5].id, lang="l02", vec=extra[0].vec))
    write_embeddings(split / "l02.lire", extra)
    write_embeddings(split / "l00.lire", [first])
    combined = [first, *records, *extra]
    error = DuplicateKey if "repeated" in case else lir.DimensionError
    with pytest.raises(error) as exc_info:
        lir.check_collection(combined)
    message = str(exc_info.value)
    assert (records[5].id if error is DuplicateKey else "new") in message
    for argv in (
        ["eval-retrieval", "--queries", str(data / "queries"), "--candidates", str(split),
         "--qrels", str(data / "qrels.jsonl"), "--report", str(tmp_path / "r.json")],
        ["project", "--input", str(split), "--dims", "2", "--output", str(tmp_path / "p.csv")],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        lir.cli._read_collection(str(split))
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "p.csv").exists()


class TestEvalTransferCommand:
    def test_baseline_and_removal(self, pipeline):
        tmp_path, data, comp = pipeline
        base_report = tmp_path / "base.json"
        assert main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(data / "labels.jsonl"),
            "--report", str(base_report),
            "--epochs", "50",
        ]) == 0
        base = json.loads(base_report.read_text())
        assert base["train_language"] == "l00"
        assert set(base["per_language_accuracy"]) == {"l00", "l01", "l02"}
        lir_report = tmp_path / "lir.json"
        assert main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(data / "labels.jsonl"),
            "--components", str(comp),
            "--placement", "both",
            "--report", str(lir_report),
            "--epochs", "50",
        ]) == 0
        treated = json.loads(lir_report.read_text())
        assert treated["config"]["rank"] == 1
        assert treated["config"]["placement"] == "both"

    def test_single_class_labels_exit_2(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        labels = {}
        for f in sorted((data / "corpus").glob("*.lire")):
            for r in read_embeddings(f):
                labels[r.id] = 1
        from lir.io import write_labels

        mono = tmp_path / "mono.jsonl"
        write_labels(mono, labels)
        code = main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(mono),
            "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "classes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, code",
        [(["--l2", "inf"], 2), (["--l2", "nan"], 2), (["--lr", "inf"], 2), (["--lr", "1e308", "--epochs", "3"], 3)],
    )
    def test_non_finite_training_writes_no_report(self, pipeline, capsys, extra, code):
        tmp_path, data, comp = pipeline
        report = tmp_path / "r.json"
        assert main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(data / "labels.jsonl"),
            "--report", str(report),
            *extra,
        ]) == code
        err = capsys.readouterr().err
        assert "error" in err and "Warning" not in err
        assert not report.exists()

    def test_missing_label_exit_2(self, pipeline):
        tmp_path, data, comp = pipeline
        partial = tmp_path / "partial.jsonl"
        partial.write_text('{"id": "l00-t0000-0000", "label": 1}\n')
        assert main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(partial),
            "--report", str(tmp_path / "r.json"),
        ]) == 2

    def test_each_test_table_is_lent_and_dropped_before_the_next(self, pipeline, monkeypatch):
        # The training file is also a test file: the command lends its table,
        # which serves as l00's test table; l01 and l02 are decoded in turn.
        tmp_path, data, comp = pipeline
        events, decoded = [], []
        read_table, lent_rows = lir.cli._read_table, lir.cli._lent_rows

        def read(*paths):
            # The previous test table is un-lent and no longer referenced.
            assert len(decoded) < 2 or decoded[-1]() is None
            table = read_table(*paths)
            decoded.append(weakref.ref(table.rows))
            events.append(("read", table.langs[0]))
            return table

        @contextlib.contextmanager
        def lend(table):
            with lent_rows(table) as rows:
                events.append(("lend", table.langs[0]))
                yield rows
            events.append(("return", table.langs[0], table.rows.flags.writeable))

        monkeypatch.setattr(lir.cli, "_read_table", read)
        monkeypatch.setattr(lir.cli, "_lent_rows", lend)
        for placement in ("both", "eval"):
            events.clear()
            decoded.clear()
            assert main([
                "eval-transfer",
                "--train", str(data / "corpus" / "l00.lire"),
                "--tests", str(data / "corpus"),
                "--labels", str(data / "labels.jsonl"),
                "--components", str(comp),
                "--placement", placement,
                "--report", str(tmp_path / "r.json"),
            ]) == 0
            tests = [event for lang in ("l01", "l02") for event in
                     [("read", lang), ("lend", lang), ("return", lang, False)]]
            assert events == [("read", "l00"), ("lend", "l00"), *tests, ("return", "l00", False)]


@pytest.mark.parametrize("command", ["eval-retrieval", "eval-transfer"])
def test_mixed_ranks_exit_2_with_a_remedy_the_cli_can_take(pipeline, capsys, command):
    tmp_path, data, comp = pipeline
    assert main(["fit", "--input", str(data / "corpus" / "l01.lire"), "--rank", "2",
                 "--output", str(comp)]) == 0
    inputs = {
        "eval-retrieval": ["--queries", str(data / "queries"), "--candidates",
                           str(data / "candidates"), "--qrels", str(data / "qrels.jsonl")],
        "eval-transfer": ["--train", str(data / "corpus" / "l00.lire"), "--tests",
                          str(data / "corpus"), "--labels", str(data / "labels.jsonl")],
    }[command]
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main([command, *inputs, "--components", str(comp), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        "error: bases carry mixed ranks [1, 2]; refit every language at one rank\n"
    )
    assert not report.exists()


class TestProjectCommand:
    def test_csv_row_count(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        out = tmp_path / "proj.csv"
        assert main([
            "project", "--input", str(data / "corpus"), "--dims", "2",
            "--output", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,lang,score_1,score_2"
        assert len(lines) == 1 + 3 * 6 * 5

    def test_k_too_large_exit_2(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        assert main([
            "project", "--input", str(data / "corpus"), "--dims", "999",
            "--output", str(tmp_path / "p.csv"),
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_matches_library_bytes(self, pipeline):
        tmp_path, data, comp = pipeline
        out = tmp_path / "cli.csv"
        main(["project", "--input", str(data / "corpus"), "--dims", "2", "--output", str(out)])
        records = []
        for f in sorted((data / "corpus").glob("*.lire")):
            records.extend(read_embeddings(f))
        from lir.io import write_projection_csv

        direct = tmp_path / "direct.csv"
        write_projection_csv(direct, lir.export_projection(records, 2))
        assert direct.read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "synth, source",
    [
        (dict(topics=30, per=100, dim=300, labels=True), "corpus"),
        (dict(topics=10, per=10, dim=768), "corpus/l00.lire"),
    ],
    ids=["6000x300", "100x768"],
)
def test_project_csv_does_not_depend_on_blas_threads(tmp_path, across_threads, synth, source):
    # Multi-threaded OpenBLAS rounds a^T a of the first input differently from
    # one thread; the second has n < d, where a a^T rounds differently.
    assert run_synth(tmp_path / "data", languages=2, seed=3, bias=5.0, **synth) == 0
    out = tmp_path / "p.csv"

    def project():
        argv = ["project", "--input", str(tmp_path / "data" / source), "--dims", "2", "--output", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    outputs = across_threads(project)
    for threads, csv in outputs.items():
        assert csv == outputs[1], f"{threads} threads"


class TestTransferWrapperParity:
    def test_report_matches_library_bytes(self, pipeline):
        tmp_path, data, comp = pipeline
        report_path = tmp_path / "cli.json"
        main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(data / "labels.jsonl"),
            "--components", str(comp),
            "--placement", "eval",
            "--epochs", "40",
            "--report", str(report_path),
        ])
        from lir.io import read_labels, report_json

        labels = read_labels(data / "labels.jsonl")
        train_records = read_embeddings(data / "corpus" / "l00.lire")
        tests = {}
        for f in sorted((data / "corpus").glob("*.lire")):
            recs = read_embeddings(f)
            tests[recs[0].lang] = (recs, [labels[r.id] for r in recs])
        expected = lir.evaluate_transfer(
            train_records,
            [labels[r.id] for r in train_records],
            tests,
            read_components_dir(comp),
            placement="eval",
            logistic=lir.LogisticConfig(learning_rate=0.5, epochs=40, l2=0.0),
        )
        assert report_path.read_text() == report_json(expected)

    def test_training_file_among_tests_matches_library_bytes(self, pipeline):
        # The training file is also in --tests: the CLI reads it once.
        tmp_path, data, comp = pipeline
        report_path = tmp_path / "cli.json"
        assert main([
            "eval-transfer",
            "--train", str(data / "corpus" / "l00.lire"),
            "--tests", str(data / "corpus"),
            "--labels", str(data / "labels.jsonl"),
            "--components", str(comp),
            "--placement", "both",
            "--epochs", "40",
            "--report", str(report_path),
        ]) == 0
        from lir.io import read_labels, report_json

        labels = read_labels(data / "labels.jsonl")
        tests = {}
        for f in sorted((data / "corpus").glob("*.lire")):
            recs = read_embeddings(f)
            tests[recs[0].lang] = (recs, [labels[r.id] for r in recs])
        expected = lir.evaluate_transfer(
            *tests["l00"],
            tests,
            read_components_dir(comp),
            placement="both",
            logistic=lir.LogisticConfig(learning_rate=0.5, epochs=40, l2=0.0),
        )
        assert report_path.read_text() == report_json(expected)


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """A 12,000 x 128 synth corpus with rank-2 bases, plus copies of its
    candidate and corpus files with their rows shuffled out of id order."""
    root = tmp_path_factory.mktemp("wide")
    data, comp = root / "data", root / "comp"
    assert run_synth(data, languages=4, topics=10, per=300, dim=128, seed=5) == 0
    assert main(["fit", "--input", str(data / "corpus"), "--rank", "2", "--output", str(comp)]) == 0
    rng = np.random.default_rng(68)
    for sub in ("candidates", "corpus"):
        (root / "shuffled" / sub).mkdir(parents=True)
        for f in sorted((data / sub).glob("*.lire")):
            records = read_embeddings(f)
            write_embeddings(root / "shuffled" / sub / f.name, [records[i] for i in rng.permutation(len(records))])
    return root, data, comp


def traced_beyond(monkeypatch, argv, after, until=None):
    """Run the CLI under tracemalloc; return the traced peak from the moment
    lir.cli.<after> returns (holding the decoded matrices) until
    lir.cli.<until> returns, or the command ends, less the memory held then."""
    marks = {}

    def spy(name, func, at_return):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            at_return()
            return result
        monkeypatch.setattr(lir.cli, name, wrapper)

    def start():
        marks["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    spy(after, getattr(lir.cli, after), start)
    if until is not None:
        spy(until, getattr(lir.cli, until), lambda: marks.setdefault("peak", tracemalloc.get_traced_memory()[1]))
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = marks.get("peak", tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return peak - marks["start"]


class TestDecodedMatrixOnly:
    """eval-retrieval, project and apply work on the matrix they decoded: beyond
    it they hold bounded blocks and per-row bookkeeping, never a second n x d
    copy (1 kB a row at d=128), whatever the order of the rows in the files."""

    @pytest.mark.parametrize("order", ["id-ordered", "shuffled"])
    @pytest.mark.parametrize("removal", [None, *sorted(m.value for m in lir.RemovalMode)])
    def test_eval_retrieval(self, wide_corpus, monkeypatch, tmp_path, order, removal):
        root, data, comp = wide_corpus
        candidates = data / "candidates" if order == "id-ordered" else root / "shuffled" / "candidates"
        argv = ["eval-retrieval", "--queries", str(data / "queries"), "--candidates", str(candidates),
                "--qrels", str(data / "qrels.jsonl"), "--report", str(tmp_path / "cli.json")]
        if removal is not None:
            argv += ["--components", str(comp), "--mode", removal]
        beyond = traced_beyond(monkeypatch, argv, "read_qrels")
        queries = lir.cli._read_collection(str(data / "queries"))
        dataset = lir.RetrievalDataset(queries, lir.cli._read_collection(str(candidates)),
                                       read_qrels(data / "qrels.jsonl"))
        bases = None if removal is None else read_components_dir(comp)
        mode = lir.RemovalMode(removal or "orthogonal")
        expected = lir.evaluate_retrieval(dataset, bases, mode=mode)
        assert (tmp_path / "cli.json").read_text() == lir.io.report_json(expected)
        n, d = dataset.candidates.rows.shape
        relevant = np.diff(dataset.relevant_ends)
        # The peak is in scoring: the qrels' dataset index, one gemm block, one
        # _NORM_BLOCK of einsum-scored relevant rows, and 32 B per candidate
        # for its norm, its gemm score and its norm scaled by the query's.
        # The removal and norm blocks are freed before scoring starts.
        design = (
            8 * (lir.evaluation._BLOCK_SCORES + lir.evaluation._NORM_BLOCK)
            + 8 * relevant.sum()
            + 32 * n
        )
        assert beyond <= design < 8 * n * d

    @pytest.mark.parametrize("order", ["id-ordered", "shuffled"])
    def test_project(self, wide_corpus, monkeypatch, tmp_path, order):
        root, data, _ = wide_corpus
        corpus = data / "corpus" if order == "id-ordered" else root / "shuffled" / "corpus"
        argv = ["project", "--input", str(corpus), "--dims", "2", "--output", str(tmp_path / "cli.csv")]
        beyond = traced_beyond(monkeypatch, argv, "_read_collection")
        records = [r for f in sorted(corpus.glob("*.lire")) for r in read_embeddings(f)]
        lir.io.write_projection_csv(tmp_path / "direct.csv", lir.export_projection(records, 2))
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
        # The n x 2 scores, the d x d Gram matrix and its factors, and one CSV
        # block: its Python floats, their text and its UTF-8 bytes, about
        # 150 B a score.
        d = records[0].dim
        assert beyond <= 8 * 2 * len(records) + 4 * 8 * d * d + 160 * lir.io._CSV_BLOCK

    @pytest.mark.parametrize("order", ["id-ordered", "shuffled"])
    @pytest.mark.parametrize("mode", sorted(m.value for m in lir.RemovalMode))
    def test_apply(self, wide_corpus, monkeypatch, tmp_path, order, mode):
        root, data, comp = wide_corpus
        source = (data if order == "id-ordered" else root / "shuffled") / "corpus" / "l01.lire"
        argv = ["apply", "--components", str(comp), "--input", str(source), "--output",
                str(tmp_path / "cli.lire"), "--mode", mode]
        beyond = traced_beyond(monkeypatch, argv, "_read_table", "_remove_rows")
        records = read_embeddings(source)
        removed = lir.remove_batch(records, read_components_dir(comp), lir.RemovalMode(mode)).records
        write_embeddings(tmp_path / "direct.lire", removed)
        assert (tmp_path / "cli.lire").read_bytes() == (tmp_path / "direct.lire").read_bytes()
        # A removal block, the kernel's output and temporaries, and the
        # per-row language groups and dimensions.
        assert beyond <= 8 * 3 * lir.removal._BLOCK + 96 * len(records)

    @pytest.mark.parametrize("placement", ["both", "eval"])
    @pytest.mark.parametrize("mode", sorted(m.value for m in lir.RemovalMode))
    def test_eval_transfer(self, wide_corpus, monkeypatch, tmp_path, placement, mode):
        # Four 3,000-row test files, the training file among them: the command
        # holds the training table and one test table, never all of them.
        _, data, comp = wide_corpus
        corpus = data / "corpus"
        tables = {f.stem: lir.io._read_table(f) for f in sorted(corpus.glob("*.lire"))}
        labels = {rid: int(rid.split("-")[1][1:]) % 2 for t in tables.values() for rid in t.ids}
        write_labels(tmp_path / "labels.jsonl", labels)
        argv = ["eval-transfer", "--train", str(corpus / "l00.lire"), "--tests", str(corpus),
                "--labels", str(tmp_path / "labels.jsonl"), "--components", str(comp),
                "--placement", placement, "--mode", mode, "--epochs", "20",
                "--report", str(tmp_path / "cli.json")]
        tests = {lang: (t, [labels[rid] for rid in t.ids]) for lang, t in tables.items()}
        # Computed first, so that what it imports is not traced in the command.
        expected = lir.evaluate_transfer(
            *tests["l00"], tests, read_components_dir(comp), mode=lir.RemovalMode(mode),
            placement=placement, logistic=lir.LogisticConfig(epochs=20),
        )
        beyond = traced_beyond(monkeypatch, argv, "read_labels")
        assert (tmp_path / "cli.json").read_text() == lir.io.report_json(expected)
        n, d = tables["l00"].rows.shape
        # The training table and one test table (8 B a value each), the read
        # buffer with one buffer of gathered values while a file is decoded,
        # or later the removal blocks, and 200 B a row for ids, labels and
        # predictions. Two more held test tables, or a copy of the features,
        # exceed it.
        blocks = max(2 * lir.io._READ_BUFFER, 8 * 3 * lir.removal._BLOCK)
        design = 2 * 8 * n * d + blocks + 200 * n
        assert beyond <= design < 8 * n * d + 24 * n * d


class TestOneReader:
    """Every command decodes its .lire files through _read_table, one file or
    a directory of them, each file once."""

    def test_rows_read_are_the_rows_of_the_files(self, pipeline, monkeypatch, tmp_path, capsys):
        _, data, comp = pipeline
        calls = []
        read_table = lir.cli._read_table

        def spy(*paths):
            table = read_table(*paths)
            calls.append((paths, len(table)))
            return table

        monkeypatch.setattr(lir.cli, "_read_table", spy)
        corpus = sorted((data / "corpus").glob("*.lire"))
        queries = sorted((data / "queries").glob("*.lire"))
        candidates = sorted((data / "candidates").glob("*.lire"))
        commands = {
            "fit": (["--input", str(data / "corpus"), "--rank", "1", "--output", str(tmp_path / "c")],
                    corpus),
            "apply": (["--components", str(comp), "--input", str(corpus[0]),
                       "--output", str(tmp_path / "a.lire")], corpus[:1]),
            "eval-retrieval": (["--queries", str(data / "queries"), "--candidates",
                                str(data / "candidates"), "--qrels", str(data / "qrels.jsonl"),
                                "--report", str(tmp_path / "r.json")], queries + candidates),
            # The training file is also a test file: it is read once.
            "eval-transfer": (["--train", str(corpus[0]), "--tests", str(data / "corpus"),
                               "--labels", str(data / "labels.jsonl"),
                               "--report", str(tmp_path / "t.json")], corpus),
            "project": (["--input", str(data / "corpus"), "--dims", "2",
                         "--output", str(tmp_path / "p.csv")], corpus),
        }
        for command, (argv, files) in commands.items():
            calls.clear()
            assert main([command, *argv]) == 0, capsys.readouterr().err
            read = sorted(Path(path) for paths, _ in calls for path in paths)
            assert read == sorted(files), command
            rows = sum(len(read_embeddings(file)) for file in files)
            assert sum(n for _, n in calls) == rows, command
        capsys.readouterr()

    def test_apply_error_leaves_the_decoded_matrix_read_only(self, pipeline, monkeypatch, tmp_path,
                                                             capsys):
        _, data, comp = pipeline
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "l01.lirc").write_bytes((comp / "l01.lirc").read_bytes())
        tables = []
        read_table = lir.cli._read_table

        def spy(*paths):
            tables.append(read_table(*paths))
            return tables[-1]

        monkeypatch.setattr(lir.cli, "_read_table", spy)
        assert main(["apply", "--components", str(partial), "--input", str(data / "corpus" / "l00.lire"),
                     "--output", str(tmp_path / "a.lire"), "--strict"]) == 2
        assert capsys.readouterr().err == "error: no component basis for language 'l00'\n"
        assert len(tables) == 1 and not tables[0].rows.flags.writeable
        assert not (tmp_path / "a.lire").exists()

    def test_eval_transfer_report_failure_reads_each_file_once(self, pipeline, monkeypatch, tmp_path,
                                                               capsys):
        # Every test file is decoded and labelled before the report is written,
        # so a failed write raises its own error without reading them again.
        _, data, _ = pipeline
        corpus = sorted((data / "corpus").glob("*.lire"))
        calls = []
        read_table = lir.cli._read_table

        def spy(*paths):
            calls.extend(paths)
            return read_table(*paths)

        monkeypatch.setattr(lir.cli, "_read_table", spy)
        report = tmp_path / "missing" / "t.json"
        assert main(["eval-transfer", "--train", str(corpus[0]), "--tests", str(data / "corpus"),
                     "--labels", str(data / "labels.jsonl"), "--report", str(report)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(report)!r}\n"
        assert sorted(map(Path, calls)) == corpus


class TestErrorOrder:
    def test_qrels_error_wins_over_missing_basis(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "l00.lirc").write_bytes((comp / "l00.lirc").read_bytes())
        bad = tmp_path / "bad_qrels.jsonl"
        bad.write_text('{"query_id": "l00-t0000-0000", "relevant": ["ghost"]}\n')
        argv = ["eval-retrieval", "--queries", str(data / "queries"), "--candidates",
                str(data / "candidates"), "--components", str(partial), "--report", str(tmp_path / "r.json")]
        assert main([*argv, "--qrels", str(bad)]) == 2
        assert "ghost" in capsys.readouterr().err
        assert main([*argv, "--qrels", str(data / "qrels.jsonl")]) == 2
        assert capsys.readouterr().err == "error: no component basis for language 'l01'\n"
        assert not (tmp_path / "r.json").exists()

    # eval-transfer decodes each test file only when it is evaluated, yet every
    # test file's own error still comes before what components or training raise.

    @staticmethod
    def truncated(source, target):
        """target: source less its last 3 bytes (inside the last record's
        values, past what its header can check); the error reading it raises."""
        target.write_bytes(source.read_bytes()[:-3])
        with pytest.raises(lir.TruncatedFile) as exc_info:
            lir.io._read_table(target)
        return str(exc_info.value)

    @staticmethod
    def transfer(capsys, tmp_path, data, tests, *extra, components=None):
        """(exit code, stderr) of eval-transfer on l00 against tests; no report is written."""
        report = tmp_path / "r.json"
        argv = ["eval-transfer", "--train", str(data / "corpus" / "l00.lire"), "--tests", str(tests),
                "--labels", str(data / "labels.jsonl"), "--report", str(report), *extra]
        if components is not None:
            argv += ["--components", str(components)]
        code = main(argv)
        assert not report.exists()
        return code, capsys.readouterr().err

    def copies(self, data, tests, *names):
        tests.mkdir()
        for name in names:
            (tests / name).write_bytes((data / "corpus" / name).read_bytes())

    def test_truncated_test_file_wins_over_training_overflow(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        tests = tmp_path / "tests"
        self.copies(data, tests, "l00.lire", "l01.lire", "l02.lire")
        overflow = ("--lr", "1e308", "--epochs", "3")
        assert self.transfer(capsys, tmp_path, data, tests, *overflow)[0] == 3
        message = self.truncated(data / "corpus" / "l02.lire", tests / "l02.lire")
        assert self.transfer(capsys, tmp_path, data, tests, *overflow) == (2, f"error: {message}\n")

    def test_truncated_test_file_wins_over_earlier_dimension(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        tests = tmp_path / "tests"
        self.copies(data, tests, "l00.lire", "l01.lire", "l02.lire")
        # Language a0 sorts first; its records reuse labeled ids at dimension 3.
        narrow = [lir.EmbeddingRecord(r.id, "a0", np.ones(3)) for r in read_embeddings(tests / "l01.lire")]
        write_embeddings(tests / "a0.lire", narrow)
        dimension = "error: test set 'a0' has dimension 3, train has 16\n"
        assert self.transfer(capsys, tmp_path, data, tests) == (2, dimension)
        message = self.truncated(data / "corpus" / "l02.lire", tests / "l02.lire")
        assert self.transfer(capsys, tmp_path, data, tests) == (2, f"error: {message}\n")

    def test_missing_label_wins_over_missing_training_basis(self, pipeline, capsys):
        tmp_path, data, comp = pipeline
        partial = tmp_path / "partial"
        partial.mkdir()
        for name in ("l01.lirc", "l02.lirc"):
            (partial / name).write_bytes((comp / name).read_bytes())
        tests = tmp_path / "tests"
        self.copies(data, tests, "l00.lire", "l01.lire", "l02.lire")
        basis = "error: no component basis for language 'l00'\n"
        assert self.transfer(capsys, tmp_path, data, tests, components=partial) == (2, basis)
        ghost = lir.EmbeddingRecord("ghost", "l02", np.ones(16))
        write_embeddings(tests / "l02.lire", [*read_embeddings(tests / "l02.lire"), ghost])
        label = "error: no label for record 'ghost'\n"
        assert self.transfer(capsys, tmp_path, data, tests, components=partial) == (2, label)

    def test_truncated_test_file_wins_over_duplicate_language(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        tests = tmp_path / "tests"
        self.copies(data, tests, "l00.lire", "l01.lire")
        (tests / "l01b.lire").write_bytes((tests / "l01.lire").read_bytes())
        duplicate = "error: two test files for language 'l01'\n"
        assert self.transfer(capsys, tmp_path, data, tests) == (2, duplicate)
        message = self.truncated(tests / "l01.lire", tests / "l01b.lire")
        assert self.transfer(capsys, tmp_path, data, tests) == (2, f"error: {message}\n")

    # A test file whose header does not read is named by its stem until it is decoded.

    @staticmethod
    def bad_magic(source, target):
        """target: source with its magic changed; reading it raises 'bad magic'."""
        target.write_bytes(b"LIRX" + source.read_bytes()[4:])
        with pytest.raises(lir.FormatError, match="^bad magic$"):
            lir.io._read_table(target)

    def test_bad_magic_test_file_wins_over_training_overflow(self, pipeline, capsys):
        tmp_path, data, _ = pipeline
        tests = tmp_path / "tests"
        self.copies(data, tests, "l00.lire", "l01.lire", "l02.lire")
        overflow = ("--lr", "1e308", "--epochs", "3")
        assert self.transfer(capsys, tmp_path, data, tests, *overflow)[0] == 3
        self.bad_magic(data / "corpus" / "l02.lire", tests / "l02.lire")
        assert self.transfer(capsys, tmp_path, data, tests, *overflow) == (2, "error: bad magic\n")

    @pytest.mark.parametrize("other", ["k01.lire", "m01.lire"])
    def test_bad_magic_test_file_wins_over_its_stem_as_duplicate_language(self, pipeline, capsys,
                                                                          other):
        # other holds language l01 and sorts before or after l01.lire.
        tmp_path, data, _ = pipeline
        tests = tmp_path / "tests"
        self.copies(data, tests, "l00.lire", "l01.lire")
        (tests / other).write_bytes((tests / "l01.lire").read_bytes())
        duplicate = "error: two test files for language 'l01'\n"
        assert self.transfer(capsys, tmp_path, data, tests) == (2, duplicate)
        self.bad_magic(data / "corpus" / "l01.lire", tests / "l01.lire")
        assert self.transfer(capsys, tmp_path, data, tests) == (2, "error: bad magic\n")

    @pytest.mark.parametrize("dims", ["1", "999"])
    def test_one_row_projection_raises_rank_error(self, tmp_path, capsys, dims):
        one = tmp_path / "one.lire"
        write_embeddings(one, [lir.EmbeddingRecord(id="a", lang="en", vec=np.ones(4))])
        with pytest.raises(lir.RankError) as exc_info:
            lir.export_projection(read_embeddings(one), int(dims))
        assert main(["project", "--input", str(one), "--dims", dims, "--output", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"error: {exc_info.value}\n"
        assert not (tmp_path / "p.csv").exists()


class TestCliPlumbing:
    def test_help_documents_defaults(self, capsys):
        for sub in ("apply", "eval-retrieval", "eval-transfer"):
            with pytest.raises(SystemExit) as exc_info:
                main([sub, "--help"])
            assert exc_info.value.code == 0
            out = capsys.readouterr().out
            assert "orthogonal" in out
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "(default: off)" in out

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit", "--nope"])
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_numerical_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        run_synth(tmp_path / "data", topics=2, per=2, dim=16)
        import lir.cli as cli_mod

        def boom(*args, **kwargs):
            raise lir.NumericalFailure("did not converge", iterations=100)

        monkeypatch.setattr(cli_mod, "fit_decomposition", boom)
        code = main([
            "fit", "--input", str(tmp_path / "data" / "corpus" / "l00.lire"),
            "--rank", "1", "--output", str(tmp_path / "comp"),
        ])
        assert code == 3
        assert "converge" in capsys.readouterr().err

    def test_eigensolver_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        run_synth(tmp_path / "data", topics=2, per=2, dim=16)
        capsys.readouterr()

        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        code = main([
            "fit", "--input", str(tmp_path / "data" / "corpus" / "l00.lire"),
            "--rank", "1", "--output", str(tmp_path / "comp"),
        ])
        assert code == 3
        assert "Eigenvalues did not converge" in capsys.readouterr().err


def run_lir_process(args, memory_limit=3 << 30):
    """Run `python -m lir` in a child process whose address space is capped,
    so a reader that trusts a declared size fails fast instead of paging."""
    env = dict(os.environ)
    package_root = str(Path(lir.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    return subprocess.run(
        [sys.executable, "-m", "lir", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_memory,
        timeout=120,
    )


def framed(magic, header, payload=b""):
    raw = json.dumps(header).encode()
    return magic + bytes([1]) + struct.pack("<I", len(raw)) + raw + payload


class TestDeclaredSizes:
    def test_oversized_basis_exit_2(self, tmp_path):
        comp = tmp_path / "comp"
        comp.mkdir()
        header = {
            "dim": 2**31,
            "lang": "l00",
            "rank": 2**31,
            "sample_count": 1,
            "source_fingerprint": "fp",
        }
        (comp / "l00.lirc").write_bytes(framed(b"LIRC", header))
        records = [lir.EmbeddingRecord(id="a", lang="l00", vec=np.ones(4))]
        write_embeddings(tmp_path / "in.lire", records)
        proc = run_lir_process([
            "apply", "--components", str(comp), "--input", str(tmp_path / "in.lire"),
            "--output", str(tmp_path / "out.lire"),
        ])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_embeddings_exit_2(self, tmp_path):
        header = {"count": 1, "dim": 2**40, "dtype": "f32", "lang": "en"}
        path = tmp_path / "huge.lire"
        path.write_bytes(framed(b"LIRE", header, struct.pack("<H", 1) + b"a" + bytes(8)))
        proc = run_lir_process([
            "fit", "--input", str(path), "--rank", "1", "--output", str(tmp_path / "comp"),
        ])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
