"""Bit-exact serialization: binary embedding/component files, JSONL inputs,
report JSON, and the projection CSV.

Binary layouts (all integers little-endian):

  embeddings (.lire):
    magic b"LIRE" | version byte 1 | u32 header length | UTF-8 JSON header
    {"count","dim","dtype":"f32","lang"} | per record: u16 id length,
    id bytes (UTF-8), dim float32 values.

  components (.lirc):
    magic b"LIRC" | version byte 1 | u32 header length | UTF-8 JSON header
    {"dim","rank","lang","sample_count","source_fingerprint"[,"mode_hint"]}
    | dim*rank float32 values in column-major order.

One decoder reads a .lire file into an EmbeddingTable and one encoder writes
a table; the record functions convert on the way. Files store 32-bit floats;
everything is upcast to 64-bit on read, and a stored basis is
re-orthonormalized after the 32-bit round trip. Writes are
byte-deterministic: the same in-memory value always produces the same file.
They are also atomic: a file appears whole under its name or not at all.
Every malformed input raises a structured error, never a crash.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import struct
from io import StringIO
from pathlib import Path
from typing import BinaryIO, Mapping, NoReturn, Sequence

import numpy as np

from .core import (
    ComponentBasis,
    EmbeddingRecord,
    EmbeddingTable,
    EvalReport,
    TransferReport,
    _check_rows,
    check_collection,
)
from .errors import (
    CorruptBasis,
    DimensionError,
    DuplicateKey,
    FormatError,
    InvalidVector,
    LanguageMismatch,
    LirError,
    ParseError,
    TruncatedFile,
)
from .linalg import _gram_schmidt

EMBEDDING_MAGIC = b"LIRE"
COMPONENT_MAGIC = b"LIRC"
FORMAT_VERSION = 1

_CORRUPT_BASIS_TOL = 1e-2


def _read_exact(f: BinaryIO, nbytes: int, what: str) -> bytes:
    data = f.read(nbytes)
    if len(data) != nbytes:
        raise TruncatedFile(f"file ends inside {what}")
    return data


def _check_remaining(f: BinaryIO, nbytes: int, what: str) -> None:
    # Checked before reading, so a corrupt declared size cannot exhaust memory.
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        raise TruncatedFile(f"file is shorter than its declared {what}")


def _write_atomic(path, *chunks: bytes) -> None:
    """Write chunks to a temporary file beside path, then rename it onto path.

    Readers see the old file or the whole new one; on any failure the
    temporary file is removed. It is created like open(path, "wb") would
    create path (mode 0o666 less the umask).
    """
    head, name = os.path.split(os.fspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for attempt in itertools.count():
        tmp = os.path.join(head, f".{name}.{os.getpid()}.{attempt}.tmp")
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:  # named by the file asked for, not the temporary one
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _header_bytes(magic: bytes, header: dict) -> bytes:
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return magic + bytes([FORMAT_VERSION]) + struct.pack("<I", len(hjson)) + hjson


def _read_header(f: BinaryIO, magic: bytes) -> dict:
    if f.read(len(magic)) != magic:
        raise FormatError("bad magic")
    version = _read_exact(f, 1, "version byte")[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    (hlen,) = struct.unpack("<I", _read_exact(f, 4, "header length"))
    _check_remaining(f, hlen, "header")
    raw = _read_exact(f, hlen, "header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise FormatError(f"header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header must be a JSON object")
    return header


def _header_int(header: dict, key: str, minimum: int = 0) -> int:
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise FormatError(f"header field {key!r} must be an integer >= {minimum}")
    return value


def _header_str(header: dict, key: str) -> str:
    value = header.get(key)
    if not isinstance(value, str) or not value:
        raise FormatError(f"header field {key!r} must be a non-empty string")
    return value


def _f32_rows(table: EmbeddingTable) -> np.ndarray:
    """The table's rows as stored in .lire; a value beyond the float32 range
    (which would be stored as inf) raises, naming the first such record."""
    with np.errstate(over="ignore"):
        rows = table.rows.astype("<f4")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise FormatError(f"record {table.ids[bad[0]]!r} has values beyond the 32-bit float range")
    return rows


def write_embeddings(path, records: Sequence[EmbeddingRecord] | EmbeddingTable) -> None:
    """Write one language's records, or table, to a .lire file (32-bit values)."""
    table = EmbeddingTable.from_records(records)
    if not len(table):
        raise FormatError("refusing to write an empty embedding file")
    langs = set(table.langs)
    if len(langs) > 1:
        raise LanguageMismatch(
            f"an embedding file holds a single language, got {sorted(langs)}"
        )
    header = {"count": len(table), "dim": table.dim, "dtype": "f32", "lang": table.langs[0]}
    values = _f32_rows(table).view(np.uint8)
    width = values.shape[1]
    encoded = list(map(str.encode, table.ids))
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    if lengths.max() > 0xFFFF:
        rec_id = table.ids[np.argmax(lengths > 0xFFFF)]
        raise FormatError(f"record id too long to store: {rec_id[:32]!r}...")
    # Record i: its u16 id length at starts[i], its id bytes, then its values.
    ends = np.cumsum(lengths + (2 + width))
    starts = ends - (lengths + (2 + width))
    buf = np.empty(ends[-1], np.uint8)
    buf[starts] = lengths & 0xFF
    buf[starts + 1] = lengths >> 8
    id_ends = np.cumsum(lengths)
    id_bytes = np.frombuffer(b"".join(encoded), np.uint8)
    buf[np.repeat(starts + 2 - (id_ends - lengths), lengths) + np.arange(len(id_bytes))] = id_bytes
    # Every record's values through a writable window of the buffer at their offset.
    windows = np.lib.stride_tricks.as_strided(buf, (len(buf) - width + 1, width), (1, 1))
    windows[ends - width] = values
    _write_atomic(path, _header_bytes(EMBEDDING_MAGIC, header), buf)


def _lire_header(f: BinaryIO) -> tuple[int, int, str]:
    """The record count, dimension and language of a .lire header; f is left
    at the first record, which the file must have room for."""
    header = _read_header(f, EMBEDDING_MAGIC)
    count = _header_int(header, "count")
    dim = _header_int(header, "dim", minimum=1)
    lang = _header_str(header, "lang")
    if header.get("dtype") != "f32":
        raise FormatError(f"unsupported dtype {header.get('dtype')!r}")
    _check_remaining(f, count * (2 + 4 * dim), f"{count} records")
    return count, dim, lang


def _lire_shape(path) -> tuple[int, int] | None:
    """(record count, dimension) from a .lire header, or None where it does not read."""
    try:
        with open(path, "rb") as f:
            return _lire_header(f)[:2]
    except (LirError, OSError):
        return None


def _utf8(raw: bytes) -> str | None:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _frame(data: bytes, count: int, dim: int) -> tuple[list[str], list[int], LirError | None]:
    """The ids and value offsets of data's records up to the first bad one,
    and the error that one raises: its framing or id (the id is checked
    first), else trailing data after the last record, else None."""
    width, size = 4 * dim, len(data)
    starts, offsets, pos, error = [], [], 0, None
    for idx in range(count):
        start = pos + 2
        if start > size:
            error = TruncatedFile(f"file ends inside record {idx} id length")
            break
        at = start + (data[pos] | data[pos + 1] << 8)
        pos = at + width
        if pos > size:
            if at > size:
                error = TruncatedFile(f"file ends inside record {idx} id")
            elif _utf8(data[start:at]) is None:
                error = FormatError(f"record {idx} id is not valid UTF-8")
            else:
                error = TruncatedFile(f"file ends inside record {idx} values")
            break
        starts.append(start)
        offsets.append(at)
    else:
        if pos != size:
            error = FormatError("trailing data after the declared record count")
    raw = list(map(data.__getitem__, map(slice, starts, offsets)))
    try:
        ids = list(map(bytes.decode, raw))
    except UnicodeDecodeError:  # an earlier record's id, which fails first
        ids = list(map(_utf8, raw))
        del ids[ids.index(None) :], offsets[len(ids) :]
        error = FormatError(f"record {len(ids)} id is not valid UTF-8")
    return ids, offsets, error


def _decode(path, block: np.ndarray | None = None) -> tuple[list[str], str, np.ndarray]:
    """A .lire file's ids, language and rows. The rows are decoded into the
    head of block where it has the file's dimension and room for its records,
    else into a new array. Errors name the first bad record, as reading record
    by record would: its framing, id or values, else trailing data."""
    with open(path, "rb") as f:
        count, dim, lang = _lire_header(f)
        data = f.read()
    ids, offsets, error = _frame(data, count, dim)
    fits = block is not None and block.shape[1] == dim and len(block) >= count
    rows = block[: len(ids)] if fits else np.empty((len(ids), dim))
    if ids:  # one gather of every record's values from the window at its offset
        windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), 4 * dim)
        rows[...] = windows[np.array(offsets)].view("<f4")
    del data
    if error is not None:
        # The records before the failure were built first; a bad one wins.
        _check_rows(ids, [lang.strip()] * len(ids), rows)
        raise error
    return ids, lang, rows


def _read_table(path) -> EmbeddingTable:
    """Decode a .lire file into a table. Errors name the first bad record, as
    reading record by record would: its framing, id or values, else trailing
    data, else a repeated id."""
    ids, lang, rows = _decode(path)
    rows.flags.writeable = False
    return EmbeddingTable(ids=ids, langs=[lang] * len(ids), rows=rows)


def read_embeddings(path) -> list[EmbeddingRecord]:
    """Read a .lire file back into records (values upcast to 64-bit)."""
    table = _read_table(path)
    return list(map(EmbeddingRecord, table.ids, table.langs, table.rows))


def write_components(path, basis: ComponentBasis, mode_hint: str | None = None) -> None:
    """Write a component basis to a .lirc file (32-bit, column-major)."""
    header: dict = {
        "dim": basis.dim,
        "lang": basis.lang,
        "rank": basis.rank,
        "sample_count": basis.sample_count,
        "source_fingerprint": basis.source_fingerprint,
    }
    if mode_hint is not None:
        header["mode_hint"] = str(mode_hint)
    _write_atomic(
        path, _header_bytes(COMPONENT_MAGIC, header), basis.basis.astype("<f4").tobytes(order="F")
    )


def _dependent_columns(prior: np.ndarray) -> NoReturn:
    raise CorruptBasis("basis columns are linearly dependent")


def read_components(path) -> ComponentBasis:
    """Read a .lirc file; validates near-orthonormality and repairs the
    32-bit rounding by re-orthonormalizing to 64-bit tolerance."""
    with open(path, "rb") as f:
        header = _read_header(f, COMPONENT_MAGIC)
        dim = _header_int(header, "dim", minimum=1)
        rank = _header_int(header, "rank")
        lang = _header_str(header, "lang")
        sample_count = _header_int(header, "sample_count")
        fingerprint = _header_str(header, "source_fingerprint")
        if rank > dim:
            raise FormatError(f"rank {rank} exceeds dimension {dim}")
        _check_remaining(f, 4 * dim * rank, "basis values")
        raw = _read_exact(f, 4 * dim * rank, "basis values")
        if f.read(1):
            raise FormatError("trailing data after the basis values")
    values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    basis = values.reshape((dim, rank), order="F")
    if rank:
        if not np.all(np.isfinite(basis)):
            raise CorruptBasis("stored basis has non-finite values")
        dev = float(np.max(np.abs(basis.T @ basis - np.eye(rank))))
        if dev > _CORRUPT_BASIS_TOL:
            raise CorruptBasis(
                f"stored basis deviates from orthonormal by {dev:.3g}"
            )
        basis = _gram_schmidt(basis, 0.5, _dependent_columns)
    return ComponentBasis(
        lang=lang,
        basis=basis,
        rank=rank,
        source_fingerprint=fingerprint,
        sample_count=sample_count,
    )


def read_components_dir(path) -> dict[str, ComponentBasis]:
    """Read every .lirc file in a directory, keyed by language."""
    root = Path(path)
    files = sorted(root.glob("*.lirc"))
    if not files:
        raise FormatError(f"no .lirc files found in {root}")
    bases: dict[str, ComponentBasis] = {}
    for file in files:
        basis = read_components(file)
        if basis.lang in bases:
            raise DuplicateKey(
                basis.lang, f"two component files for language {basis.lang!r}"
            )
        bases[basis.lang] = basis
    return bases


def _iter_jsonl(path):
    # surrogateescape keeps bad bytes in their line, for the encode check below.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped:
                raise ParseError(line_no, "blank line")
            try:
                stripped.encode("utf-8")
                obj = json.loads(stripped)
            except UnicodeEncodeError:
                raise ParseError(line_no, "invalid UTF-8") from None
            except (ValueError, RecursionError) as exc:
                raise ParseError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise ParseError(line_no, "expected a JSON object")
            yield line_no, obj


def _jsonl_str(obj: dict, key: str, line_no: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(line_no, f"field {key!r} must be a non-empty string")
    return value


def read_jsonl_embeddings(path) -> list[EmbeddingRecord]:
    """Read records from JSONL lines of the form {"id","lang","vec"}."""
    records: list[EmbeddingRecord] = []
    dim = 0
    for line_no, obj in _iter_jsonl(path):
        rec_id = _jsonl_str(obj, "id", line_no)
        lang = _jsonl_str(obj, "lang", line_no)
        vec = obj.get("vec")
        if not isinstance(vec, list) or not vec or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in vec
        ):
            raise ParseError(line_no, "field 'vec' must be a non-empty number list")
        try:
            rec = EmbeddingRecord(id=rec_id, lang=lang, vec=np.asarray(vec, dtype=np.float64))
        except (InvalidVector, OverflowError) as exc:
            raise ParseError(line_no, str(exc)) from exc
        if dim == 0:
            dim = rec.dim
        elif rec.dim != dim:
            raise DimensionError(
                f"line {line_no}: vector length {rec.dim} != {dim} seen earlier"
            )
        records.append(rec)
    check_collection(records)
    return records


def read_qrels(path) -> dict[str, frozenset[str]]:
    """Read relevance judgments from JSONL lines {"query_id","relevant":[...]}:
    one str per id, and one frozenset per distinct relevant list."""
    out: dict[str, frozenset[str]] = {}
    ids: dict[str, str] = {}
    sets: dict[tuple[str, ...], frozenset[str]] = {}
    for line_no, obj in _iter_jsonl(path):
        qid = _jsonl_str(obj, "query_id", line_no)
        relevant = obj.get("relevant")
        if type(relevant) is not list or not set(map(type, relevant)) <= {str} or "" in relevant:
            raise ParseError(line_no, "field 'relevant' must be a list of ids")
        if qid in out:
            raise DuplicateKey(qid, f"line {line_no}: duplicate query_id {qid!r}")
        key = tuple(relevant)
        if key not in sets:
            sets[key] = frozenset(map(ids.setdefault, relevant, relevant))
        out[qid] = sets[key]
    return out


def read_labels(path) -> dict[str, int]:
    """Read binary labels from JSONL lines {"id","label"} with label in {0,1}."""
    out: dict[str, int] = {}
    for line_no, obj in _iter_jsonl(path):
        rec_id = _jsonl_str(obj, "id", line_no)
        label = obj.get("label")
        if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
            raise ParseError(line_no, "field 'label' must be 0 or 1")
        if rec_id in out:
            raise DuplicateKey(rec_id, f"line {line_no}: duplicate id {rec_id!r}")
        out[rec_id] = label
    return out


# The string encoder of json.dumps: lines formatted with it have the bytes of
# json.dumps(obj, sort_keys=True, separators=(",", ":")).
_json_str = json.encoder.encode_basestring_ascii


def _write_jsonl(path, lines) -> None:
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_qrels(path, qrels: Mapping[str, frozenset[str]]) -> None:
    _write_jsonl(path, (
        f'{{"query_id":{_json_str(q)},"relevant":[{",".join(map(_json_str, sorted(qrels[q])))}]}}'
        for q in sorted(qrels)
    ))


def write_labels(path, labels: Mapping[str, int]) -> None:
    def line(rec_id):
        label = labels[rec_id]
        if type(label) is not int or label not in (0, 1):  # not bool, as read_labels
            raise FormatError(f"label of {rec_id!r} must be the integer 0 or 1, got {label!r}")
        return f'{{"id":{_json_str(rec_id)},"label":{label}}}'

    _write_jsonl(path, map(line, sorted(labels)))


def report_to_dict(report: EvalReport | TransferReport) -> dict:
    if isinstance(report, EvalReport):
        return {
            "config": dict(report.config),
            "overall_map": report.overall_map,
            "per_language_map": dict(report.per_language_map),
            "query_count": report.query_count,
        }
    if isinstance(report, TransferReport):
        return {
            "average": report.average,
            "config": dict(report.config),
            "per_language_accuracy": dict(report.per_language_accuracy),
            "train_language": report.train_language,
        }
    raise FormatError(f"cannot serialize object of type {type(report).__name__}")


def report_json(report: EvalReport | TransferReport) -> str:
    """Pretty-printed JSON with sorted keys and a trailing newline."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def write_report(path, report: EvalReport | TransferReport) -> None:
    _write_atomic(path, report_json(report).encode("utf-8"))


def write_projection_csv(path, rows: Sequence[tuple[str, str, tuple[float, ...]]]) -> None:
    """Write projection rows as CSV: header id,lang,score_1..score_k, UTF-8,
    LF line endings, full-precision (round-trip exact) decimal floats."""
    rows = list(rows)
    if not rows:
        raise FormatError("refusing to write an empty projection CSV")
    ids, langs, scores = zip(*rows)
    if len(set(map(len, scores))) > 1:
        raise DimensionError("projection rows have mixed score counts")
    _write_projection(path, ids, langs, [list(map(float, column)) for column in zip(*scores)])


def _write_projection(path, ids, langs, columns: Sequence[Sequence[float]]) -> None:
    """write_projection_csv of the rows' ids and languages and one list of
    Python floats per score, with no tuple per row held."""
    text = StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["id", "lang"] + [f"score_{i + 1}" for i in range(len(columns))])
    writer.writerows(zip(ids, langs, *(map(repr, column) for column in columns)))
    _write_atomic(path, text.getvalue().encode("utf-8"))
