"""Bit-exact serialization: binary embedding/component files, JSONL inputs,
report JSON, and the projection CSV.

Binary layouts (all integers little-endian):

  embeddings (.lire):
    magic b"LIRE" | version byte 1 | u32 header length | UTF-8 JSON header
    {"count","dim","dtype":"f32","lang"} | per record: u16 id length,
    id bytes (UTF-8), dim float32 values.

  components (.lirc):
    magic b"LIRC" | version byte 1 | u32 header length | UTF-8 JSON header
    {"dim","rank","lang","sample_count","source_fingerprint"} | dim*rank
    float32 values in column-major order. A reader ignores other header
    keys, such as the "mode_hint" that older writers could add.

One reader decodes one or many .lire files into a single EmbeddingTable and
one encoder writes a table; the record functions convert on the way. Files
store 32-bit floats; everything is upcast to 64-bit on read, and a stored
basis is re-orthonormalized after the 32-bit round trip. Writes are
byte-deterministic: the same in-memory value always produces the same file.
They are also atomic: a file appears whole under its name or not at all.
Every malformed input raises a structured error, never a crash. Each .lire
file is checked as it is decoded; files read together are then checked
against each other.

Besides the table, reads and writes hold blocks of bounded size: a .lire
file streams through one read buffer whose records are framed and whose
values are gathered into the table's matrix; .lire writes encode, and the
projection CSV formats, one block of rows at a time. No byte or error
depends on the block sizes.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from io import StringIO
from pathlib import Path
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from typing import BinaryIO, NoReturn

import numpy as np

from .core import (
    ComponentBasis,
    EmbeddingRecord,
    EmbeddingTable,
    EvalReport,
    TransferReport,
    _check_collection,
    _check_rows,
    _table_of,
)
from .errors import (
    CorruptBasis,
    DimensionError,
    DuplicateKey,
    FormatError,
    LanguageMismatch,
    LirError,
    ParseError,
    TruncatedFile,
    _check_type,
    _mapping,
    _real_array,
)
from .linalg import _gram_schmidt

EMBEDDING_MAGIC = b"LIRE"
COMPONENT_MAGIC = b"LIRC"
FORMAT_VERSION = 1

_CORRUPT_BASIS_TOL = 1e-2
_WRITE_BLOCK = 1 << 16  # float32 values per encoded .lire block (256 kB); bytes do not depend on it
_CSV_BLOCK = 1 << 12  # projection scores per encoded CSV block; bytes do not depend on it
_READ_BUFFER = 1 << 20  # bytes per .lire read (1 MB) or one longer record; rows do not depend on it


def _read_exact(f: BinaryIO, nbytes: int, what: str) -> bytes:
    data = f.read(nbytes)
    if len(data) != nbytes:
        raise TruncatedFile(f"file ends inside {what}")
    return data


def _check_remaining(f: BinaryIO, nbytes: int, what: str) -> None:
    # Checked before reading, so a corrupt declared size cannot exhaust memory.
    if nbytes > os.fstat(f.fileno()).st_size - f.tell():
        raise TruncatedFile(f"file is shorter than its declared {what}")


def _write_atomic(path, *chunks: bytes | Iterator[bytes]) -> None:
    """Write chunks to a temporary file beside path, then rename it onto path.

    Readers see the old file or the whole new one; on any failure the
    temporary file is removed. It is created like open(path, "wb") would
    create path (mode 0o666 less the umask). A chunk may also be an iterator
    of chunks, which is written one at a time as it yields them.
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
                for part in chunk if isinstance(chunk, Iterator) else (chunk,):
                    f.write(part)
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


def _f32_blocks(table: EmbeddingTable) -> Iterator[tuple[slice, np.ndarray]]:
    """The table's rows as stored in .lire, _WRITE_BLOCK values at a time,
    each with its slice of the table; a value beyond the float32 range
    (which would be stored as inf) raises, naming the first such record."""
    step = max(1, _WRITE_BLOCK // table.dim)
    for start in range(0, len(table), step):
        rows = slice(start, start + step)
        with np.errstate(over="ignore"):
            values = table.rows[rows].astype("<f4")
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            rec_id = table.ids[start + bad[0]]
            raise FormatError(f"record {rec_id!r} has values beyond the 32-bit float range")
        yield rows, values


def _check_f32(table: EmbeddingTable) -> None:
    """Raise what writing the table to .lire raises for a value beyond the
    float32 range, holding one block of 32-bit values at a time."""
    for _ in _f32_blocks(table):
        pass


def _encode_records(ids: Sequence[str], values: np.ndarray) -> np.ndarray:
    """The .lire payload bytes of records with these ids and float32 rows."""
    values = values.view(np.uint8)
    width = values.shape[1]
    encoded = list(map(str.encode, ids))
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
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
    return buf


def write_embeddings(path, records: Sequence[EmbeddingRecord] | EmbeddingTable) -> None:
    """Write one language's records, or table, to a .lire file (32-bit values).
    The payload is encoded and written one block of records at a time."""
    table = _table_of("records", records)
    if not len(table):
        raise FormatError("refusing to write an empty embedding file")
    langs = set(table.langs)
    if len(langs) > 1:
        raise LanguageMismatch(
            f"an embedding file holds a single language, got {sorted(langs)}"
        )
    header = {"count": len(table), "dim": table.dim, "dtype": "f32", "lang": table.langs[0]}
    # Only a non-ASCII or long id can fail to encode or to fit in 0xFFFF bytes.
    if not all(map(str.isascii, table.ids)) or max(map(len, table.ids)) > 0xFFFF:
        _check_f32(table)  # every row's values are checked before any id
        lengths = [len(_utf8_bytes(rid, f"record {rid!r}: id")) for rid in table.ids]
        too_long = [rid for rid, n in zip(table.ids, lengths) if n > 0xFFFF]
        if too_long:
            raise FormatError(f"record id too long to store: {too_long[0][:32]!r}...")
    # A value beyond the float32 range raises from its block, and the file is not written.
    payload = (_encode_records(table.ids[rows], values) for rows, values in _f32_blocks(table))
    _write_atomic(path, _header_bytes(EMBEDDING_MAGIC, header), payload)


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


def _lire_head(path) -> tuple[int, int, str] | None:
    """The record count, dimension and language of a .lire file's header, or
    None where it does not read (reading the file then raises its error)."""
    try:
        with open(path, "rb") as f:
            return _lire_header(f)
    except (LirError, OSError):
        return None


def _utf8_bytes(text: str, what: str) -> bytes:
    """text as UTF-8, else (a lone surrogate) FormatError "<what> is not valid UTF-8"."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise FormatError(f"{what} is not valid UTF-8") from None


def _utf8(raw: bytes | bytearray) -> str | None:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


def _cut_error(data: bytearray, pos: int, size: int, idx: int) -> LirError:
    """The error of record idx, which starts at data[pos] and is cut off at size."""
    start = pos + 2
    if start > size:
        return TruncatedFile(f"file ends inside record {idx} id length")
    at = start + (data[pos] | data[pos + 1] << 8)
    if at > size:
        return TruncatedFile(f"file ends inside record {idx} id")
    if _utf8(data[start:at]) is None:
        return FormatError(f"record {idx} id is not valid UTF-8")
    return TruncatedFile(f"file ends inside record {idx} values")


def _frame(
    buf: bytearray, size: int, first: int, count: int, width: int
) -> tuple[list[str], list[int], int, LirError | None]:
    """Frame the whole records in buf[:size], which starts with record first,
    up to record count: their ids and value offsets up to the first id that is
    not UTF-8, the end of the last record framed, and that id's error or None."""
    starts, offsets, pos = [], [], 0
    for _ in range(first, count):
        start = pos + 2
        if start > size:
            break
        at = start + (buf[pos] | buf[pos + 1] << 8)
        end = at + width
        if end > size:
            break
        starts.append(start)
        offsets.append(at)
        pos = end
    raw = list(map(buf.__getitem__, map(slice, starts, offsets)))
    try:
        return list(map(bytearray.decode, raw)), offsets, pos, None
    except UnicodeDecodeError:  # an earlier record's id, which fails first
        ids = list(map(_utf8, raw))
        del ids[ids.index(None) :], offsets[len(ids) :]
        return ids, offsets, pos, FormatError(f"record {first + len(ids)} id is not valid UTF-8")


def _gather(rows: np.ndarray, buf: bytearray, size: int, offsets: list[int]) -> None:
    """rows = the float32 values at each offset of buf[:size], one row each."""
    data = np.frombuffer(buf, np.uint8, size)
    windows = np.lib.stride_tricks.sliding_window_view(data, 4 * rows.shape[1])
    rows[...] = windows[np.array(offsets)].view("<f4")


def _decode(path, block: np.ndarray | None, seen: set[str]) -> tuple[list[str], str, np.ndarray]:
    """A .lire file's ids, trimmed language tag and rows, raising what reading
    the file alone as a table raises: its first bad record (a bad value, id or
    tag before a framing fault wins), else trailing data after the last
    record, else a repeated id. Its ids are added to seen, the ids of the
    files read before; a repeat of one of those is left to the caller.

    The file is read through one buffer of _READ_BUFFER bytes, grown only to
    hold a record longer than that. The records it holds are framed, and
    their values gathered into the head of block where it has the file's
    dimension and room for the file's records, else into a new array.
    """
    with open(path, "rb") as f:
        count, dim, lang = _lire_header(f)
        fits = block is not None and block.shape[1] == dim and len(block) >= count
        rows = block[:count] if fits else np.empty((count, dim))
        width = 4 * dim
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        buf = bytearray(max(2, min(_READ_BUFFER, remaining)))
        ids: list[str] = []
        size = pos = 0  # buf[pos:size] is read and not yet framed
        error = None
        while len(ids) < count:
            tail = size - pos
            need = 2 if tail < 2 else 2 + (buf[pos] | buf[pos + 1] << 8) + width
            if need > len(buf):  # the next record alone is longer than the buffer
                buf = buf[pos:size] + bytes(need - tail)
            else:
                buf[:tail] = buf[pos:size]
            size = tail + f.readinto(memoryview(buf)[tail:])  # full, unless the file ends
            new, offsets, pos, error = _frame(buf, size, len(ids), count, width)
            if offsets:
                _gather(rows[len(ids) : len(ids) + len(offsets)], buf, size, offsets)
            ids += new
            if error is not None or len(ids) == count:
                break
            if size < len(buf):  # the file ends inside the next record
                error = _cut_error(buf, pos, size, len(ids))
                break
        if error is None and (pos < size or f.read(1)):
            error = FormatError("trailing data after the declared record count")
    tag, rows = lang.strip(), rows[: len(ids)]
    _check_rows(ids, [tag] * len(ids), rows)
    if error is not None:
        raise error
    before = len(seen)
    seen.update(ids)
    if len(seen) - before < len(ids) and len(set(ids)) < len(ids):  # a repeat within the file
        _check_collection(ids, np.full(len(ids), dim))
    return ids, tag, rows


def _read_table(path, *paths) -> EmbeddingTable:
    """Decode .lire files into one table whose rows are one matrix, each file
    checked as it is decoded (as reading it alone as a table would), then all
    their rows as one collection: a repeated id or a dimension mismatch."""
    paths = (path, *paths)
    heads = list(filter(None, map(_lire_head, paths)))
    dims = {dim for _, dim, _ in heads}
    block = np.empty((sum(n for n, _, _ in heads), dims.pop())) if len(dims) == 1 else None
    parts, at, seen = [], 0, set()
    for path in paths:
        parts.append(_decode(path, None if block is None else block[at:], seen))
        at += len(parts[-1][0])
    ids = tuple(itertools.chain.from_iterable(file_ids for file_ids, _, _ in parts))
    langs = tuple(itertools.chain.from_iterable([tag] * len(file_ids) for file_ids, tag, _ in parts))
    matrices = [rows for _, _, rows in parts]
    widths = [m.shape[1] for m in matrices]
    if len(seen) < len(ids) or len(set(widths)) > 1:  # a repeat or a mismatch across files
        _check_collection(ids, np.repeat(widths, [len(m) for m in matrices]))
    if block is not None and at == len(block) and all(m.base is block for m in matrices):
        rows = block
    else:  # files of several dimensions (or changed since their headers were read)
        rows = np.concatenate([m for m in matrices if len(m)] or matrices[:1])
    rows.flags.writeable = False
    return EmbeddingTable._of_checked(ids, langs, rows)  # its rows were checked file by file


def read_embeddings(path) -> list[EmbeddingRecord]:
    """Read a .lire file back into records (values upcast to 64-bit)."""
    table = _read_table(path)
    return list(map(EmbeddingRecord, table.ids, table.langs, table.rows))


def write_components(path, basis: ComponentBasis) -> None:
    """Write a component basis to a .lirc file (32-bit, column-major)."""
    _check_type("basis", basis, ComponentBasis)
    header = {"dim": basis.dim, "lang": basis.lang, "rank": basis.rank,
              "sample_count": basis.sample_count, "source_fingerprint": basis.source_fingerprint}
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
        dev = float(np.max(np.abs(np.einsum("ij,ik->jk", basis, basis) - np.eye(rank))))
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


# json.loads's own decoder's scanner: one value from an index, no whitespace skipped.
_scan_once = json.decoder.JSONDecoder().scan_once


def _json_line(line: str):
    """json.loads of a line with no surrounding whitespace: the scanner's
    value where it spans the whole line, else json.loads's value or error."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def _iter_jsonl(path):
    # surrogateescape keeps bad bytes in their line, for the encode check below.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped:
                raise ParseError(line_no, "blank line")
            try:
                stripped.encode("utf-8")
                obj = _json_line(stripped)
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


def read_qrels(path, _strings: Iterable[str] = ()) -> dict[str, frozenset[str]]:
    """Read relevance judgments from JSONL lines {"query_id","relevant":[...]}:
    one str per id, and one frozenset per distinct relevant list.

    _strings is not for library callers: the CLI passes the candidate
    table's ids, so that a relevant id equal to one of them is that string.
    """
    out: dict[str, frozenset[str]] = {}
    ids: dict[str, str] = dict(zip(_strings, _strings))
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


def _write_jsonl(path, name, mapping, line, sets=False) -> None:
    """Write line(key) for each key of a non-empty mapping in sorted order, all formed
    before anything is written; an empty key raises FormatError, as the readers do. Where
    the lines fail to form (a TypeError), raise FormatError naming the first key that is
    not a str or, with sets, the first value that is not a hashable set of str."""
    if not _mapping(name, mapping, FormatError):
        raise FormatError(f"refusing to write an empty {name} file")
    if "" in mapping:
        raise FormatError(f"{name} key is empty")
    try:
        text = "\n".join(map(line, sorted(mapping))) + "\n"
    except TypeError:
        for key in mapping:
            _check_type(f"{name} key {key!r}", key, str, FormatError)
        for key, ids in mapping.items() if sets else ():
            _check_type(f"{name}[{key!r}]", ids, Hashable, FormatError)
            _check_type(f"{name}[{key!r}]", ids, str, FormatError, each=True)
        raise
    _write_atomic(path, text.encode("utf-8"))


def write_qrels(path, qrels: Mapping[str, frozenset[str]]) -> None:
    encoded: dict[frozenset[str], str] = {}  # each distinct relevant set is checked and encoded once

    def line(q: str) -> str:
        rel = qrels[q]
        if rel not in encoded:
            if isinstance(rel, str):  # a str sorts into one-letter ids
                raise FormatError(f"qrels[{q!r}] must be a set of ids, got str")
            if "" in rel:
                raise FormatError(f"qrels[{q!r}] id is empty")
            encoded[rel] = ",".join(map(_json_str, sorted(rel)))
        return f'{{"query_id":{_json_str(q)},"relevant":[{encoded[rel]}]}}'

    _write_jsonl(path, "qrels", qrels, line, sets=True)


def write_labels(path, labels: Mapping[str, int]) -> None:
    def line(rec_id):
        label = labels[rec_id]
        if type(label) is not int or label not in (0, 1):  # not bool, as read_labels
            raise FormatError(f"label of {rec_id!r} must be the integer 0 or 1, got {label!r}")
        return f'{{"id":{_json_str(rec_id)},"label":{label}}}'

    _write_jsonl(path, "labels", labels, line)


def report_to_dict(report: EvalReport | TransferReport) -> dict:
    if not isinstance(report, (EvalReport, TransferReport)):
        raise FormatError(f"cannot serialize object of type {type(report).__name__}")
    fields = vars(report).items()  # a mapping field as a dict
    return {name: dict(value) if isinstance(value, Mapping) else value for name, value in fields}


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
    _write_projection(path, ids, langs, _real_array("scores", scores, 2, DimensionError))


def _write_projection(path, ids, langs, scores: np.ndarray) -> None:
    """write_projection_csv of the rows' ids and languages and their n x K
    scores, converted to floats and encoded _CSV_BLOCK scores at a time."""
    import csv  # here, not at the top: only project writes CSV

    k = scores.shape[1]
    step = max(1, _CSV_BLOCK // max(1, k))

    def blocks():
        for start in range(0, len(ids), step):
            text = StringIO(newline="")
            writer = csv.writer(text, lineterminator="\n")
            if not start:
                writer.writerow(["id", "lang", *(f"score_{i + 1}" for i in range(k))])
            rows = slice(start, start + step)
            # csv writes a Python float as its repr: full precision, round-trip exact.
            writer.writerows(zip(ids[rows], langs[rows], *scores[rows].T.tolist()))
            try:
                yield text.getvalue().encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate: name its record, and write nothing
                for rid, lang in zip(ids[rows], langs[rows]):
                    _utf8_bytes(rid, f"record {rid!r}: id")
                    _utf8_bytes(lang, f"record {rid!r}: language tag")
                raise

    _write_atomic(path, blocks())
