"""Subcommand CLI orchestrating the full pipeline end to end.

Every subcommand is a thin wrapper over the library, so its output artifacts
are bitwise-identical to the corresponding direct calls. Exit codes: 0 on
success, 2 on input/config errors, 3 on numerical failures. Logs go to
standard error; result summaries go to standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import re
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .core import EmbeddingTable, RetrievalDataset, _lent_rows, corpus_fingerprint
from .errors import ConfigError, DuplicateKey, FormatError, LirError, NumericalFailure
from .io import (
    _check_f32,
    _lire_head,
    _read_table,
    _write_atomic,
    _write_projection,
    read_components_dir,
    read_labels,
    read_qrels,
    write_components,
    write_embeddings,
    write_labels,
    write_qrels,
    write_report,
)
from .linalg import _pca_scores
from .removal import RemovalMode, _language_of, _remove_rows, fit_decomposition

# evaluation and synth are imported by the handlers that run them, so the
# other commands never load them.

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_SAFE_LANG = re.compile(r"^[A-Za-z0-9._-]+$")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _embedding_paths(target: str) -> list[Path]:
    path = Path(target)
    if path.is_dir():
        files = sorted(path.glob("*.lire"))
        if not files:
            raise FormatError(f"no .lire files found in {path}")
        return files
    return [path]


def _read_collection(target: str) -> EmbeddingTable:
    """One table of every .lire file that target names, decoded into one matrix."""
    return _read_table(*_embedding_paths(target))


def _cmd_fit(args) -> int:
    # Every basis is fitted before any is written, so a failure leaves no .lirc set half done.
    fitted = {}
    for file in _embedding_paths(args.input):
        table = _read_table(file)
        lang = _language_of(table)
        if lang in fitted:
            raise DuplicateKey(lang, f"two input files for language {lang!r}")
        if not _SAFE_LANG.match(lang):
            raise FormatError(f"language tag {lang!r} is not filename-safe")
        basis, sigma = fit_decomposition(
            table, args.rank, center=args.center, normalize=args.normalize
        )
        top = ", ".join(f"{s:.6g}" for s in sigma[:5])
        fitted[lang] = (basis, f"n={len(table)} d={table.dim} top_singular_values=[{top}]")
        del table  # freed before the next file is decoded
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for lang, (basis, summary) in fitted.items():
        write_components(outdir / f"{lang}.lirc", basis)
        print(f"{lang}: {summary}")
    return EXIT_OK


def _cmd_apply(args) -> int:
    bases = read_components_dir(args.components)
    table, mode = _read_table(args.input), RemovalMode(args.mode)
    with _lent_rows(table) as rows:  # removed in place on the decoded rows
        passed = _remove_rows(table.ids, table.langs, rows, bases, mode, strict=args.strict)
    if passed:
        _log(
            f"warning: {sum(passed.values())} records passed through without a basis "
            f"(languages: {', '.join(sorted(passed))})"
        )
    write_embeddings(args.output, table)
    return EXIT_OK


def _cmd_eval_retrieval(args) -> int:
    from .evaluation import evaluate_retrieval

    queries = _read_collection(args.queries)
    candidates = _read_collection(args.candidates)
    # Relevant ids are the candidate table's own strings, not a copy of each.
    dataset = RetrievalDataset(queries, candidates, read_qrels(args.qrels, _strings=candidates.ids))
    bases = read_components_dir(args.components) if args.components else None
    with _lent_rows(queries), _lent_rows(candidates):  # removal overwrites the decoded matrices
        report = evaluate_retrieval(dataset, bases, mode=RemovalMode(args.mode))
    write_report(args.report, report)
    print(f"overall_map={report.overall_map!r} queries={report.query_count}")
    return EXIT_OK


def _labeled(table, labels):
    for rid in table.ids:
        if rid not in labels:
            raise ConfigError(f"no label for record {rid!r}")
    return [labels[rid] for rid in table.ids]


class _TestTables(Mapping):
    """Test tables and their labels by language, from {language: file, or
    None for the training file}. A lookup un-lends the last test table, which
    the caller has dropped, then decodes the file, lends its table (the
    training table, lent by the holder, is reused) and labels its records.
    Only `lent` keeps a table; the holder closes it when evaluation ends."""

    def __init__(self, files: dict, train: EmbeddingTable, labels: dict):
        self._files, self._train, self._labels = files, train, labels
        self.lent = contextlib.ExitStack()

    def __getitem__(self, lang):
        self.lent.close()
        file = self._files[lang]
        table = self._train if file is None else _read_table(file)
        if file is not None:
            self.lent.enter_context(_lent_rows(table))
        return table, _labeled(table, self._labels)

    def __iter__(self):
        return iter(self._files)

    def __len__(self):
        return len(self._files)


def _check_tests(files, train_path, train, labels) -> None:
    """Raise the first error of reading the test files in turn, each as a
    table (the training file's reused), then its language, then its labels."""
    langs = set()
    for file in files:
        table = train if file.samefile(train_path) else _read_table(file)
        lang = table.langs[0] if len(table) else file.stem
        if lang in langs:
            raise DuplicateKey(lang, f"two test files for language {lang!r}")
        langs.add(lang)
        _labeled(table, labels)
        del table  # freed before the next file is decoded


def _cmd_eval_transfer(args) -> int:
    from .evaluation import LogisticConfig, evaluate_transfer

    labels = read_labels(args.labels)
    train = _read_table(args.train)
    train_labels = _labeled(train, labels)
    files = sorted(Path(args.tests).glob("*.lire"))
    if not files:
        raise FormatError(f"no .lire files found in {args.tests}")
    # The test files are decoded one at a time, as evaluate_transfer looks them up.
    try:
        tests = {}
        for file in files:
            count, _, lang = _lire_head(file) or (0, 0, "")
            lang = lang.strip() if count else file.stem  # a file without records: its stem
            if lang in tests:
                raise DuplicateKey(lang, f"two test files for language {lang!r}")
            tests[lang] = None if file.samefile(args.train) else file
        bases = read_components_dir(args.components) if args.components else None
        tables = _TestTables(tests, train, labels)
        with _lent_rows(train), tables.lent:  # removal overwrites the decoded matrices
            report = evaluate_transfer(
                train,
                train_labels,
                tables,
                bases,
                mode=RemovalMode(args.mode),
                placement=args.placement,
                logistic=LogisticConfig(learning_rate=args.lr, epochs=args.epochs, l2=args.l2),
            )
    except (LirError, OSError):
        # Every test file's own error comes before what reads components or
        # trains, as when all the files were read first.
        _check_tests(files, args.train, train, labels)
        raise
    write_report(args.report, report)  # every test file was decoded and labelled
    print(f"average_accuracy={report.average!r} train_language={report.train_language}")
    return EXIT_OK


def _cmd_project(args) -> int:
    # export_projection and write_projection_csv, centering the decoded matrix in place.
    table = _read_collection(args.input)
    with _lent_rows(table) as rows:
        scores = _pca_scores(rows, args.dims)
    _write_projection(args.output, table.ids, table.langs, scores)
    print(f"wrote {len(table)} rows with {args.dims} scores each")
    return EXIT_OK


def _cmd_synth(args) -> int:
    from .synth import TOPIC_PARITY, SynthConfig, _take, generate

    if args.per < 2:
        raise ConfigError("--per must be >= 2, so that every query has a relevant candidate")
    config = SynthConfig(
        languages=tuple(f"l{i:02d}" for i in range(args.languages)),
        topics=args.topics,
        per_topic_per_lang=args.per,
        dim=args.dim,
        bias_scale=args.bias,
        semantic_scale=args.semantic,
        noise_scale=args.noise,
        seed=args.seed,
        label_rule=TOPIC_PARITY if args.labels else None,
        skew=args.skew,
    )
    result = generate(config)
    _check_f32(result.table)  # a value .lire cannot store raises before anything is written
    out = Path(args.out)
    subsets = ("corpus", "queries", "candidates")
    for sub in subsets:
        (out / sub).mkdir(parents=True, exist_ok=True)
    # A language's rows are one block, a view of the table; its queries are every per-th
    # row, the rest candidates, each gathered only while its file is written.
    block = np.arange(config.topics * args.per)
    picks = (slice(None), block[:: args.per], block[block % args.per > 0])
    fingerprints = {}
    for lang, start in zip(config.languages, range(0, len(result.table), block.size)):
        corpus = _take(result.table, slice(start, start + block.size))
        fingerprints[lang] = corpus_fingerprint(corpus)
        for sub, pick in zip(subsets, picks):
            write_embeddings(out / sub / f"{lang}.lire", _take(corpus, pick))
    write_qrels(out / "qrels.jsonl", dict(result.qrels))
    if result.labels is not None:
        write_labels(out / "labels.jsonl", dict(result.labels))
    manifest = {
        "config": dataclasses.asdict(config),
        "counts": {
            "candidates": len(result.table) - len(result.query_ids),
            "queries": len(result.query_ids),
            "records": len(result.table),
        },
        "fingerprints": fingerprints,
    }
    _write_atomic(
        out / "manifest.json",
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    print(f"wrote {len(result.table)} records for {args.languages} languages to {out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lir",
        description=(
            "Fit per-language identity components from embedding matrices, remove "
            "them by projection, and evaluate retrieval/transfer/PCA effects."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mode = dict(
        choices=sorted(mode.value for mode in RemovalMode),
        default=RemovalMode.ORTHOGONAL.value,
        help="removal mode (default: orthogonal)",
    )

    p = sub.add_parser("fit", help="fit component bases from embedding files")
    p.add_argument("--input", required=True, help=".lire file or directory of them")
    p.add_argument("--rank", required=True, type=int, help="number of components r")
    p.add_argument("--output", required=True, help="output directory for .lirc files")
    p.add_argument(
        "--center",
        action="store_true",
        help="subtract the column mean before the factorization (default: off)",
    )
    p.add_argument(
        "--normalize",
        action="store_true",
        help="length-normalize rows before the factorization (default: off)",
    )
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("apply", help="remove fitted components from embeddings")
    p.add_argument("--components", required=True, help="directory of .lirc files")
    p.add_argument("--input", required=True, help="input .lire file")
    p.add_argument("--output", required=True, help="output .lire file")
    p.add_argument("--mode", **mode)
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on records whose language has no basis (default: pass through)",
    )
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("eval-retrieval", help="MAP evaluation of cosine retrieval")
    p.add_argument("--queries", required=True, help=".lire file or directory")
    p.add_argument("--candidates", required=True, help=".lire file or directory")
    p.add_argument("--qrels", required=True, help="relevance judgments (JSONL)")
    p.add_argument("--components", help="directory of .lirc files (optional)")
    p.add_argument("--mode", **mode)
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_eval_retrieval)

    p = sub.add_parser("eval-transfer", help="zero-shot transfer classification")
    p.add_argument("--train", required=True, help="training .lire file (one language)")
    p.add_argument("--tests", required=True, help="directory of test .lire files")
    p.add_argument("--labels", required=True, help="labels JSONL ({'id','label'})")
    p.add_argument("--components", help="directory of .lirc files (optional)")
    p.add_argument(
        "--placement",
        choices=("both", "eval"),
        default="both",
        help="apply removal at train+eval or eval only (default: both)",
    )
    p.add_argument("--mode", **mode)
    p.add_argument("--lr", type=float, default=0.5, help="learning rate (default: 0.5)")
    p.add_argument("--epochs", type=int, default=300, help="epochs (default: 300)")
    p.add_argument("--l2", type=float, default=0.0, help="L2 penalty (default: 0.0)")
    p.add_argument("--report", required=True, help="output report JSON path")
    p.set_defaults(func=_cmd_eval_transfer)

    p = sub.add_parser("project", help="export PCA scores as CSV")
    p.add_argument("--input", required=True, help=".lire file or directory")
    p.add_argument("--dims", required=True, type=int, help="number of PCA scores K")
    p.add_argument("--output", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("synth", help="generate a synthetic multilingual corpus")
    p.add_argument("--languages", required=True, type=int, help="number of languages")
    p.add_argument("--topics", required=True, type=int, help="number of topics T")
    p.add_argument("--per", required=True, type=int, help="records per (topic, language)")
    p.add_argument("--dim", required=True, type=int, help="embedding dimension")
    p.add_argument("--bias", required=True, type=float, help="language offset length")
    p.add_argument(
        "--semantic", type=float, default=1.0, help="topic vector length (default: 1.0)"
    )
    p.add_argument(
        "--noise", type=float, default=0.1, help="per-coordinate noise std (default: 0.1)"
    )
    p.add_argument("--seed", required=True, type=int, help="PCG64 seed")
    p.add_argument(
        "--labels",
        action="store_true",
        help="emit topic-parity labels for transfer experiments (default: off)",
    )
    p.add_argument(
        "--skew",
        type=float,
        default=0.0,
        help="tilt offsets back into the topic span by this factor (default: 0.0)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        _log(f"error: {exc}")
        return EXIT_NUMERIC
    except (LirError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
