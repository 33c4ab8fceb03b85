"""Subcommand CLI orchestrating the full pipeline end to end.

Every subcommand is a thin wrapper over the library, so its output artifacts
are bitwise-identical to the corresponding direct calls. Exit codes: 0 on
success, 2 on input/config errors, 3 on numerical failures. Logs go to
standard error; result summaries go to standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from .core import EmbeddingTable, LanguageMatrix, RetrievalDataset, corpus_fingerprint
from .core import _check_collection
from .errors import ConfigError, DuplicateKey, FormatError, LirError, NumericalFailure
from .evaluation import LogisticConfig, _projection_scores, evaluate_retrieval, evaluate_transfer
from .io import (
    _decode,
    _f32_rows,
    _lire_shape,
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
from .removal import RemovalMode, _remove_rows, fit_decomposition
from .synth import TOPIC_PARITY, SynthConfig, _take, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_MODES = {mode.value: mode for mode in RemovalMode}
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


def _release(table: EmbeddingTable) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """A table's ids, languages and matrix, the matrix made writable (a table
    owns its matrix, so numpy allows it): for a command that holds the only
    table on the matrix, uses only these columns from then on, and
    overwrites the rows in place instead of copying them."""
    table.rows.flags.writeable = True
    return table.ids, table.langs, table.rows


def _read_collection(target: str) -> EmbeddingTable:
    """One table of every file's rows, decoded into one matrix and checked
    once. Errors are those of reading each file as a table in turn, then
    checking all their rows as one record collection."""
    files = _embedding_paths(target)
    if len(files) == 1:
        return _read_table(files[0])
    shapes = list(filter(None, map(_lire_shape, files)))
    dims = {dim for _, dim in shapes}
    block = np.empty((sum(n for n, _ in shapes), dims.pop())) if len(dims) == 1 else None
    parts, at = [], 0
    try:
        for file in files:
            parts.append(_decode(file, None if block is None else block[at:]))
            at += len(parts[-1][0])
        ids = [rid for file_ids, _, _ in parts for rid in file_ids]
        langs = [lang for file_ids, lang, _ in parts for _ in file_ids]
        matrices = [rows for _, _, rows in parts]
        if block is not None and at == len(block) and all(m.base is block for m in matrices):
            rows = block
        else:  # files of several dimensions (or changed since their headers were read)
            widths = [m.shape[1] for m in matrices]
            _check_collection(ids, np.repeat(widths, [len(m) for m in matrices]))
            rows = np.concatenate([m for m in matrices if len(m)] or matrices[:1])
        rows.flags.writeable = False
        return EmbeddingTable(ids=ids, langs=langs, rows=rows)
    except (LirError, OSError):
        for ids, lang, rows in parts:  # each earlier file's own checks fail first
            EmbeddingTable(ids=ids, langs=[lang] * len(ids), rows=rows)
        raise


def _cmd_fit(args) -> int:
    # Every basis is fitted before any is written, so a failure leaves no .lirc set half done.
    fitted = {}
    for file in _embedding_paths(args.input):
        matrix = LanguageMatrix.from_records(_read_table(file))
        if matrix.lang in fitted:
            raise DuplicateKey(matrix.lang, f"two input files for language {matrix.lang!r}")
        if not _SAFE_LANG.match(matrix.lang):
            raise FormatError(f"language tag {matrix.lang!r} is not filename-safe")
        basis, sigma = fit_decomposition(
            matrix, args.rank, center=args.center, normalize=args.normalize
        )
        top = ", ".join(f"{s:.6g}" for s in sigma[:5])
        fitted[matrix.lang] = (basis, f"n={matrix.n} d={matrix.d} top_singular_values=[{top}]")
        del matrix  # freed before the next file is decoded
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for lang, (basis, summary) in fitted.items():
        write_components(outdir / f"{lang}.lirc", basis)
        print(f"{lang}: {summary}")
    return EXIT_OK


def _cmd_apply(args) -> int:
    bases = read_components_dir(args.components)
    ids, langs, rows = _release(_read_table(args.input))  # removed in place on the decoded rows
    passed = _remove_rows(ids, langs, rows, bases, _MODES[args.mode], strict=args.strict)
    if passed:
        _log(
            f"warning: {sum(passed.values())} records passed through without a basis "
            f"(languages: {', '.join(sorted(passed))})"
        )
    rows.flags.writeable = False
    write_embeddings(args.output, EmbeddingTable(ids=ids, langs=langs, rows=rows))
    return EXIT_OK


def _cmd_eval_retrieval(args) -> int:
    dataset = RetrievalDataset(
        queries=_read_collection(args.queries),
        candidates=_read_collection(args.candidates),
        qrels=read_qrels(args.qrels),
    )
    bases = read_components_dir(args.components) if args.components else None
    # The dataset is this command's own: removal overwrites its decoded matrices.
    report = evaluate_retrieval(dataset, bases, mode=_MODES[args.mode], _in_place=True)
    write_report(args.report, report)
    print(f"overall_map={report.overall_map!r} queries={report.query_count}")
    return EXIT_OK


def _labeled(table, labels):
    for rid in table.ids:
        if rid not in labels:
            raise ConfigError(f"no label for record {rid!r}")
    return [labels[rid] for rid in table.ids]


def _cmd_eval_transfer(args) -> int:
    labels = read_labels(args.labels)
    train = _read_table(args.train)
    train_labels = _labeled(train, labels)
    tests = {}
    for file in sorted(Path(args.tests).glob("*.lire")):
        table = train if file.samefile(args.train) else _read_table(file)
        lang = table.langs[0] if len(table) else file.stem
        if lang in tests:
            raise DuplicateKey(lang, f"two test files for language {lang!r}")
        tests[lang] = (table, _labeled(table, labels))
    if not tests:
        raise FormatError(f"no .lire files found in {args.tests}")
    bases = read_components_dir(args.components) if args.components else None
    report = evaluate_transfer(
        train,
        train_labels,
        tests,
        bases,
        mode=_MODES[args.mode],
        placement=args.placement,
        logistic=LogisticConfig(learning_rate=args.lr, epochs=args.epochs, l2=args.l2),
    )
    write_report(args.report, report)
    print(f"average_accuracy={report.average!r} train_language={report.train_language}")
    return EXIT_OK


def _cmd_project(args) -> int:
    # export_projection and write_projection_csv, centering the decoded matrix in place.
    ids, langs, rows = _release(_read_collection(args.input))
    scores = _projection_scores(rows, args.dims)
    _write_projection(args.output, ids, langs, scores.T.tolist())
    print(f"wrote {len(ids)} rows with {args.dims} scores each")
    return EXIT_OK


def _cmd_synth(args) -> int:
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
    _f32_rows(result.table)  # a value .lire cannot store raises before anything is written
    out = Path(args.out)
    subsets = ("corpus", "queries", "candidates")
    for sub in subsets:
        (out / sub).mkdir(parents=True, exist_ok=True)
    # A language's rows are one block; its queries are every per-th row, the rest candidates.
    block = np.arange(config.topics * args.per)
    queries, candidates = block[:: args.per], block[block % args.per > 0]
    fingerprints = {}
    for lang, start in zip(config.languages, range(0, len(result.table), block.size)):
        corpus = _take(result.table, start + block)
        fingerprints[lang] = corpus_fingerprint(corpus)
        for sub, table in zip(subsets, (corpus, _take(corpus, queries), _take(corpus, candidates))):
            write_embeddings(out / sub / f"{lang}.lire", table)
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
        choices=sorted(_MODES),
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
