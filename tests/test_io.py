import csv
import json
import re
import struct
import tracemalloc
from io import StringIO

import numpy as np
import pytest

import lir
from lir import (
    ComponentBasis,
    CorruptBasis,
    DimensionError,
    DuplicateKey,
    EmbeddingRecord,
    FormatError,
    InvalidVector,
    LanguageMismatch,
    ParseError,
    TruncatedFile,
)
from lir.io import (
    _read_table,
    read_components,
    read_components_dir,
    read_embeddings,
    read_labels,
    read_qrels,
    report_json,
    write_components,
    write_embeddings,
    write_labels,
    write_projection_csv,
    write_qrels,
    write_report,
)
from lir.cli import _read_collection
from oracles import (
    qrels_bytes_oracle,
    read_collection_oracle,
    read_embeddings_oracle,
    read_table_oracle,
)


def rec(rid, lang, vec):
    return EmbeddingRecord(id=rid, lang=lang, vec=np.asarray(vec, dtype=float))


def framed(magic, header, payload=b""):
    """A binary file: magic, version 1, u32 header length, header, payload."""
    raw = header if isinstance(header, bytes) else json.dumps(header).encode()
    return magic + bytes([1]) + struct.pack("<I", len(raw)) + raw + payload


# Nested deeper than the interpreter's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def lire_payload(ids, rows):
    """.lire records: u16 id length, UTF-8 id, float32 values."""
    out = b""
    for rid, row in zip(ids, rows):
        idb = rid.encode()
        out += struct.pack("<H", len(idb)) + idb + np.asarray(row, dtype="<f4").tobytes()
    return out


def lire_file(path, lang, ids, rows=None, dim=None, cut=None, tail=b""):
    """A .lire file of the given records, its payload cut at byte `cut` and
    followed by `tail`; dim defaults to the rows' width."""
    rows = np.zeros((len(ids), dim or 2)) if rows is None else np.asarray(rows, dtype=float)
    header = {"count": len(ids), "dim": dim or rows.shape[1], "dtype": "f32", "lang": lang}
    path.write_bytes(framed(b"LIRE", header, lire_payload(ids, rows)[:cut] + tail))


def outcome(reader, path):
    """(ids, langs, row bytes) of what reader returns, or (error class, message)."""
    try:
        out = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(out, lir.EmbeddingTable):
        out = out.ids, out.langs, out.rows
    elif not isinstance(out, tuple):  # records
        out = [r.id for r in out], [r.lang for r in out], np.array([r.vec for r in out])
    ids, langs, rows = out
    return list(ids), list(langs), rows.tobytes()


def sample_records():
    return [
        rec("a", "en", [1.0, 2.5, -3.0, 0.125]),
        rec("b", "en", [0.0, -1.0, 2.0, 4.5]),
        rec("c", "en", [9.0, 8.0, 7.0, 6.0]),
    ]


class TestEmbeddingFiles:
    def test_roundtrip_is_f32_exact(self, tmp_path):
        path = tmp_path / "en.lire"
        records = sample_records()
        write_embeddings(path, records)
        back = read_embeddings(path)
        assert [r.id for r in back] == ["a", "b", "c"]
        assert all(r.lang == "en" for r in back)
        for orig, loaded in zip(records, back):
            assert np.array_equal(loaded.vec, orig.vec.astype(np.float32).astype(np.float64))

    def test_write_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.lire", tmp_path / "b.lire"
        write_embeddings(p1, sample_records())
        write_embeddings(p2, sample_records())
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_rejects_values_beyond_float32(self, tmp_path):
        path = tmp_path / "big.lire"
        top = float(np.finfo(np.float32).max)
        write_embeddings(path, [rec("a", "en", [top, -top])])
        assert read_embeddings(path)[0].vec.tolist() == [top, -top]
        records = [rec("a", "en", [1.0, 2.0]), rec("b", "en", [1.0, -1e39]), rec("c", "en", [1e300, 0.0])]
        path.unlink()
        with pytest.raises(FormatError, match="'b'"):
            write_embeddings(path, records)
        assert not path.exists()

    def test_write_rejects_mixed_language_and_empty(self, tmp_path):
        with pytest.raises(LanguageMismatch):
            write_embeddings(tmp_path / "x.lire", [rec("a", "en", [1.0]), rec("b", "zh", [1.0])])
        with pytest.raises(FormatError):
            write_embeddings(tmp_path / "x.lire", [])

    def test_empty_file_bad_magic(self, tmp_path):
        path = tmp_path / "empty.lire"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="bad magic"):
            read_embeddings(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.lire"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError, match="bad magic"):
            read_embeddings(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v9.lire"
        write_embeddings(path, sample_records())
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_embeddings(path)

    def test_declared_count_exceeds_records(self, tmp_path):
        path = tmp_path / "short.lire"
        write_embeddings(path, sample_records())
        blob = path.read_bytes()
        # chop off the last record: 2-byte id length + 1-byte id + 4 floats
        path.write_bytes(blob[: len(blob) - (2 + 1 + 16)])
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_cut_names_the_record_and_part(self, tmp_path):
        # Long ids make the payload exceed the declared minimum count*(2+4*dim),
        # so cuts past that minimum reach the per-record checks.
        ids = ["a" * 40, "bé" * 20, "c" * 30]
        header = {"count": 3, "dim": 2, "dtype": "f32", "lang": "en"}
        parts, payload = [], b""
        for i, rid in enumerate(ids):
            idb = rid.encode()
            for part, chunk in (
                ("id length", struct.pack("<H", len(idb))),
                ("id", idb),
                ("values", np.array([i, -i], dtype="<f4").tobytes()),
            ):
                parts.extend([f"file ends inside record {i} {part}"] * len(chunk))
                payload += chunk
        path = tmp_path / "cut.lire"
        for cut in range(3 * (2 + 8), len(payload)):
            path.write_bytes(framed(b"LIRE", header, payload[:cut]))
            with pytest.raises(TruncatedFile) as exc_info:
                read_embeddings(path)
            assert str(exc_info.value) == parts[cut]
        path.write_bytes(framed(b"LIRE", header, payload))
        assert [r.id for r in read_embeddings(path)] == ids
        bad_id = payload.replace("bé".encode(), b"b\xff", 1)
        path.write_bytes(framed(b"LIRE", header, bad_id[: len(bad_id) - 4]))
        with pytest.raises(FormatError, match=r"^record 1 id is not valid UTF-8$"):
            read_embeddings(path)

    def test_first_bad_record_wins_over_later_framing(self, tmp_path):
        # Each case raises what building the records one by one raised first.
        header = {"count": 4, "dim": 2, "dtype": "f32", "lang": "en"}
        ids = [c * 30 for c in "abcd"]
        rows = [[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0], [5.0, np.inf]]
        payload = lire_payload(ids, rows)
        cut_in_record_3 = len(lire_payload(ids[:3], rows[:3])) + 10
        finite = lire_payload(ids, [[1.0, 2.0]] * 4)
        repeated = lire_payload(["a", "b", "a", "b"], rows[:1] * 4)
        non_finite_1 = f"record {ids[1]!r}: vector has non-finite coordinates"
        cases = [
            (header, payload[:cut_in_record_3], InvalidVector, non_finite_1),
            (header, payload + b"\x00", InvalidVector, non_finite_1),
            (header, finite[:cut_in_record_3], TruncatedFile, "file ends inside record 3 id"),
            (header, lire_payload(["a", "", "c", "a"], rows[:1] * 4), InvalidVector,
             "record id must be a non-empty string"),
            (header, repeated + b"\x00", FormatError, "trailing data after the declared record count"),
            (header, repeated, DuplicateKey, "duplicate record id 'a'"),
            (dict(header, lang=" "), finite, InvalidVector, f"record {ids[0]!r}: language tag is empty"),
        ]
        path = tmp_path / "order.lire"
        for head, data, error, message in cases:
            path.write_bytes(framed(b"LIRE", head, data))
            for reader in (read_embeddings_oracle, _read_table, read_embeddings):
                with pytest.raises(error) as exc_info:
                    reader(path)
                assert str(exc_info.value) == message

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "long.lire"
        write_embeddings(path, sample_records())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "hdr.lire"
        payload = b"{never json"
        path.write_bytes(b"LIRE" + bytes([1]) + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(FormatError, match="JSON"):
            read_embeddings(path)

    def test_bad_dtype(self, tmp_path):
        path = tmp_path / "dtype.lire"
        header = json.dumps({"count": 0, "dim": 2, "dtype": "f64", "lang": "en"}).encode()
        path.write_bytes(b"LIRE" + bytes([1]) + struct.pack("<I", len(header)) + header)
        with pytest.raises(FormatError, match="dtype"):
            read_embeddings(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.lire"
        path.write_bytes(b"LIRE" + bytes([1]) + struct.pack("<I", 400) + b"{}")
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_declared_values_beyond_file_size(self, tmp_path):
        # One record of dim 2**40 would be 4 TiB of values; the file is 84 bytes.
        path = tmp_path / "huge.lire"
        header = {"count": 1, "dim": 2**40, "dtype": "f32", "lang": "en"}
        path.write_bytes(framed(b"LIRE", header, struct.pack("<H", 1) + b"a" + bytes(8)))
        with pytest.raises(TruncatedFile):
            read_embeddings(path)

    def test_header_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.lire"
        path.write_bytes(framed(b"LIRE", DEEP_JSON))
        with pytest.raises(FormatError, match="JSON"):
            read_embeddings(path)


def fitted_basis(seed=0, d=6, r=3):
    rng = np.random.default_rng(seed)
    matrix = lir.EmbeddingTable([f"r{i}" for i in range(20)], ["en"] * 20, rng.standard_normal((20, d)))
    return lir.fit_decomposition(matrix, r)[0]


# Variable-length ids, one byte to 300, with two- and three-byte UTF-8 characters.
# The long one comes first: a cut before the declared minimum size of every
# record is caught by that check, not by the framing loop.
MIXED_IDS = ["x" * 300, "a", "bé", "日本語", "ü" * 40, "q"]


class TestColumnarCodec:
    """The one-pass encoder and the framing-loop decoder against record-at-a-time
    references: the same bytes, tables and errors."""

    def test_write_matches_record_encoding(self, tmp_path):
        rows = np.random.default_rng(21).standard_normal((len(MIXED_IDS), 5))
        rows = rows.astype(np.float32).astype(float)
        path = tmp_path / "en.lire"
        write_embeddings(path, [rec(i, "en", r) for i, r in zip(MIXED_IDS, rows)])
        header = {"count": len(MIXED_IDS), "dim": 5, "dtype": "f32", "lang": "en"}
        expected = lir.io._header_bytes(b"LIRE", header) + lire_payload(MIXED_IDS, rows)
        assert path.read_bytes() == expected
        assert outcome(_read_table, path) == (MIXED_IDS, ["en"] * 6, rows.tobytes())

    def test_write_checks_ids_and_values_before_writing(self, tmp_path):
        path = tmp_path / "long.lire"
        longest = "é" * (0xFFFF // 2) + "x"  # 0xFFFF bytes, the most a record stores
        write_embeddings(path, [rec("a", "en", [1.0]), rec(longest, "en", [2.0])])
        assert _read_table(path).ids == ("a", longest)
        path.unlink()
        too_long = [rec("a", "en", [1.0]), rec("é" * 0x8000, "en", [2.0])]
        with pytest.raises(FormatError, match=r"^record id too long to store: 'ééé"):
            write_embeddings(path, too_long)
        # Values are checked first, as the record loop did.
        with pytest.raises(FormatError, match="'b' has values beyond the 32-bit float range"):
            write_embeddings(path, [*too_long, rec("b", "en", [1e39])])
        assert not path.exists()

    @pytest.mark.parametrize("block", [1, 7, 12])
    def test_block_size_changes_no_byte_or_error(self, tmp_path, monkeypatch, block):
        # One record per block, several records with a short last block, and
        # the id-length error in an earlier block than the value error.
        monkeypatch.setattr(lir.io, "_WRITE_BLOCK", block)
        rows = np.random.default_rng(22).standard_normal((len(MIXED_IDS), 5))
        rows = rows.astype(np.float32).astype(float)
        path = tmp_path / "en.lire"
        write_embeddings(path, [rec(i, "en", r) for i, r in zip(MIXED_IDS, rows)])
        header = {"count": len(MIXED_IDS), "dim": 5, "dtype": "f32", "lang": "en"}
        assert path.read_bytes() == lir.io._header_bytes(b"LIRE", header) + lire_payload(MIXED_IDS, rows)
        path.unlink()
        records = [rec(f"r{i}", "en", [1.0] * 5) for i in range(8)]
        records[1] = rec("é" * 0x8000, "en", [1.0] * 5)
        with pytest.raises(FormatError, match=r"^record id too long to store: 'ééé"):
            write_embeddings(path, records)
        records[6] = rec("r6", "en", [1.0, 1.0, 1.0, 1.0, -1e39])
        with pytest.raises(FormatError, match="^record 'r6' has values beyond the 32-bit float range$"):
            write_embeddings(path, records)
        del records[1]
        with pytest.raises(FormatError, match="^record 'r6' has values beyond the 32-bit float range$"):
            write_embeddings(path, records)
        # An id UTF-8 cannot encode fails after every value, before any id length.
        records[0] = rec("r0\ud800", "en", [1.0] * 5)
        with pytest.raises(FormatError, match="^record 'r6' has values beyond the 32-bit float range$"):
            write_embeddings(path, records)
        records[5] = rec("r6", "en", [1.0] * 5)
        records.insert(0, rec("é" * 0x8000, "en", [1.0] * 5))
        with pytest.raises(FormatError, match=r"^record 'r0\\ud800': id is not valid UTF-8$"):
            write_embeddings(path, records)
        assert list(tmp_path.iterdir()) == []

    def test_write_holds_bounded_blocks(self, tmp_path):
        # 8,000 x 128: a 4 MB float32 payload, written without holding it.
        n, d = 8000, 128
        table = lir.EmbeddingTable(
            ids=[f"rec-{i:06d}" for i in range(n)], langs=["en"] * n,
            rows=np.random.default_rng(23).standard_normal((n, d)),
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_embeddings(tmp_path / "en.lire", table)
            beyond = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert _read_table(tmp_path / "en.lire").rows.tobytes() == table.rows.astype("<f4").astype(float).tobytes()
        # The block being written and the next: each its 32-bit values and its
        # encoded records, about 4 x 256 kB in all.
        assert beyond <= 5 * 4 * lir.io._WRITE_BLOCK < 4 * n * d

    @pytest.mark.parametrize("variant", ["valid", "invalid UTF-8", "trailing byte"])
    def test_decoder_matches_record_reader_at_every_cut(self, tmp_path, variant):
        rows = np.arange(2.0 * len(MIXED_IDS)).reshape(-1, 2)
        rows[4, 1] = np.nan  # record 4 fails as a record once the cut passes it
        payload = lire_payload(MIXED_IDS, rows)
        if variant == "invalid UTF-8":
            payload = payload.replace("日".encode(), b"\xff\xfe\xfd", 1)
        elif variant == "trailing byte":
            payload += b"\x00"
        header = {"count": len(MIXED_IDS), "dim": 2, "dtype": "f32", "lang": "en"}
        path = tmp_path / "cut.lire"
        messages = set()
        for cut in range(len(payload) + 1):
            path.write_bytes(framed(b"LIRE", header, payload[:cut]))
            expected = outcome(read_embeddings_oracle, path)
            assert outcome(_read_table, path) == expected, cut
            messages.add(expected[1])
        assert len(messages) >= 10, messages  # cuts in every part of several records


BASE = np.arange(30.0).reshape(10, 3) - 7.5


def collection_dir(root, **changes):
    """Four files in name order: a (3 records), b (empty), c (2), d (2), all
    of dimension 3; changes[name] = dict(ids=, rows=, dim=, cut=, tail=, raw=)."""
    files = {
        "a": dict(lang="en", ids=["x", "yé", "日本"], rows=BASE[0:3]),
        "b": dict(lang="de", ids=[], dim=3),
        "c": dict(lang="fr", ids=["long-" * 20, "z"], rows=BASE[3:5]),
        "d": dict(lang="zh", ids=["ü" * 5, "w"], rows=BASE[5:7]),
    }
    root.mkdir()
    for name, spec in files.items():
        spec = {**spec, **changes.get(name, {})}
        raw = spec.pop("raw", None)
        if raw is not None:
            (root / f"{name}.lire").write_bytes(raw)
        else:
            lire_file(root / f"{name}.lire", **spec)
    return root


def rows_with(rows, at, value):
    rows = np.array(rows)
    rows[at] = value
    return rows


COLLECTIONS = {
    "valid, an empty file in the middle": {},
    "an empty file of another dimension": dict(b=dict(dim=7)),
    "a duplicate id across files": dict(d=dict(ids=["ü" * 5, "x"])),
    "a dimension mismatch across files": dict(c=dict(rows=np.ones((2, 4)))),
    "a duplicate before a wider file": dict(c=dict(ids=["x", "z"]), d=dict(rows=np.ones((2, 4)))),
    "a duplicate after a wider file": dict(c=dict(rows=np.ones((2, 4))), d=dict(ids=["x", "w"])),
    "a non-finite value in the third file": dict(c=dict(rows=rows_with(BASE[3:5], (1, 2), np.nan))),
    "a duplicate in the first file, a non-finite value in the third": dict(
        a=dict(ids=["x", "yé", "x"]), c=dict(rows=rows_with(BASE[3:5], (0, 0), np.inf))),
    "a duplicate in the first file, the fourth cut short": dict(
        a=dict(ids=["x", "x", "日本"]), d=dict(cut=9)),
    "a non-finite value in the third file, the fourth cut short": dict(
        c=dict(rows=rows_with(BASE[3:5], (0, 1), -np.inf)), d=dict(cut=30)),
    "a non-finite value in the first file, a bad magic in the second": dict(
        a=dict(rows=rows_with(BASE[0:3], (2, 0), np.nan)), b=dict(raw=b"LIRX")),
    "a bad magic in the second file": dict(b=dict(raw=b"LIRX\x01")),
    "an invalid UTF-8 id in the fourth file, a duplicate in the third": dict(
        c=dict(ids=["z", "z"]), d=dict(raw=framed(b"LIRE", {"count": 1, "dim": 3, "dtype": "f32",
                                                           "lang": "zh"}, b"\x01\x00\xff" + bytes(12)))),
    "trailing data after the third file's records": dict(c=dict(tail=b"\x00")),
    "a repeat of the first file's id in the third, a non-finite value in the fourth": dict(
        c=dict(ids=["x", "z"]), d=dict(rows=rows_with(BASE[5:7], (0, 1), np.nan))),
    "a non-finite value before the fourth file's cut": dict(
        d=dict(rows=rows_with(BASE[5:7], (0, 2), np.nan), cut=30)),
    "only empty files": dict(a=dict(ids=[], dim=3), c=dict(ids=[], dim=5), d=dict(ids=[], dim=3)),
}


class TestCollectionRead:
    """A directory decodes into one matrix and is checked once, with the
    outcome of reading file by file: oracles.read_collection_oracle."""

    @pytest.mark.parametrize("case", sorted(COLLECTIONS))
    def test_matches_file_by_file_read(self, tmp_path, case):
        root = collection_dir(tmp_path / "dir", **COLLECTIONS[case])
        expected = outcome(read_collection_oracle, root)
        assert outcome(_read_collection, str(root)) == expected
        valid = case.startswith(("valid", "an empty", "only"))
        assert isinstance(expected[0], list) == valid

    def test_one_matrix_for_every_file(self, tmp_path):
        root = collection_dir(tmp_path / "dir")
        table = _read_collection(str(root))
        assert table.rows.base is None and not table.rows.flags.writeable
        assert table.rows.tobytes() == BASE[:7].tobytes()
        assert table.langs == ("en",) * 3 + ("fr",) * 2 + ("zh",) * 2

    def test_every_cut_of_the_middle_file(self, tmp_path):
        spec = dict(ids=["ü" * 3, "k"], rows=rows_with(BASE[3:5], (1, 0), np.nan))
        full = len(lire_payload(spec["ids"], spec["rows"]))
        for cut in range(full + 1):
            root = collection_dir(tmp_path / f"cut{cut}", c=dict(spec, cut=cut))
            expected = outcome(read_collection_oracle, root)
            assert outcome(_read_collection, str(root)) == expected, cut


# Read buffers of 2 bytes (one id length), shorter than most records, about
# one record, and several records.
BUFFERS = [2, 5, 23, 64, 150]
# Ids of 1 to 30 bytes with two- and three-byte UTF-8 characters, dimension 3.
STREAM_IDS = ["x" * 30, "a", "bé", "日本語", "ü" * 10, "q", "zz"]
# ASCII ids of one length, the shape of every synth id.
EVEN_IDS = [f"r{i:02d}" for i in range(7)]
STREAM_HEADER = {"count": len(STREAM_IDS), "dim": 3, "dtype": "f32", "lang": "en"}


def stream_payload(rows=None, ids=STREAM_IDS):
    rows = np.arange(1.0, 1.0 + 3 * len(ids)).reshape(-1, 3) if rows is None else rows
    return lire_payload(ids, rows)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
class TestStreamedDecode:
    """Each file streams through one read buffer of _READ_BUFFER bytes: at any
    size, and wherever a fault falls against the buffer's edges, the outcome is
    the whole-file reader's (oracles.read_table_oracle): the same ids and rows,
    or the same error class and text."""

    @staticmethod
    def same(path, *more):
        expected = outcome(lambda p: read_table_oracle(p, *more), path)
        assert outcome(lambda p: _read_table(p, *more), path) == expected
        return expected

    @pytest.mark.parametrize("ids", [STREAM_IDS, EVEN_IDS], ids=["mixed", "even"])
    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_every_cut_and_every_corrupt_byte(self, tmp_path, monkeypatch, buffer, ids):
        monkeypatch.setattr(lir.io, "_READ_BUFFER", buffer)
        payload = stream_payload(ids=ids)
        path = tmp_path / "s.lire"
        messages = set()
        variants = [payload[:cut] for cut in range(len(payload))]
        variants += [payload[:at] + bytes([byte]) + payload[at + 1 :]
                     for at in range(len(payload)) for byte in (0xFF, 0x7F)]
        variants += [payload, payload + b"\x00", payload + b"tail", payload.replace(b"r03", "é3".encode())]
        for data in variants:
            path.write_bytes(framed(b"LIRE", STREAM_HEADER, data))
            got = self.same(path)
            messages.add(got[1] if isinstance(got[0], type) else "rows")
        # Cuts in an id length, an id and values; invalid ids; non-finite values;
        # trailing data (also after a corrupt id length); valid files.
        wanted = [" id length", " id", " values", " id is not valid UTF-8",
                  "vector has non-finite coordinates", "after the declared record count", "rows"]
        assert all(any(m.endswith(w) for m in messages) for w in wanted), messages
        assert len(messages) >= 25

    def test_invalid_utf8_straddling_the_buffer_edge(self, tmp_path, monkeypatch):
        # Record 3's id is 日本語 with a bad continuation byte in 本; at every
        # buffer size from 2 to 40 bytes an edge falls somewhere else in it.
        payload = stream_payload().replace("本".encode(), b"\xe6\x41\xac", 1)
        path = tmp_path / "s.lire"
        path.write_bytes(framed(b"LIRE", STREAM_HEADER, payload))
        for buffer in range(2, 41):
            monkeypatch.setattr(lir.io, "_READ_BUFFER", buffer)
            assert self.same(path) == (FormatError, "record 3 id is not valid UTF-8"), buffer

    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_non_finite_value_before_a_later_cut(self, tmp_path, monkeypatch, buffer):
        monkeypatch.setattr(lir.io, "_READ_BUFFER", buffer)
        rows = np.arange(1.0, 22.0).reshape(-1, 3)
        rows[1, 2] = np.inf
        payload = stream_payload(rows)
        start = len(lire_payload(STREAM_IDS[:5], rows[:5]))
        path = tmp_path / "s.lire"
        for cut in range(start, len(payload)):  # every cut in records 5 and 6
            path.write_bytes(framed(b"LIRE", STREAM_HEADER, payload[:cut]))
            assert self.same(path) == (InvalidVector, "record 'a': vector has non-finite coordinates")
        path.write_bytes(framed(b"LIRE", STREAM_HEADER, payload + b"\x00"))
        assert self.same(path) == (InvalidVector, "record 'a': vector has non-finite coordinates")

    @pytest.mark.parametrize("ids", [STREAM_IDS, EVEN_IDS], ids=["mixed", "even"])
    @pytest.mark.parametrize("buffer", BUFFERS)
    def test_trailing_data(self, tmp_path, monkeypatch, buffer, ids):
        monkeypatch.setattr(lir.io, "_READ_BUFFER", buffer)
        path = tmp_path / "s.lire"
        extra = lire_payload(["r99"], [[1.0, 2.0, 3.0]])  # one more whole record
        for tail in (b"\x00", b"\x01\x00", bytes(buffer), bytes(buffer + 1), extra, extra * 3):
            path.write_bytes(framed(b"LIRE", STREAM_HEADER, stream_payload(ids=ids) + tail))
            assert self.same(path) == (FormatError, "trailing data after the declared record count")
        path.write_bytes(framed(b"LIRE", dict(STREAM_HEADER, count=0), b"\x00"))
        assert self.same(path) == (FormatError, "trailing data after the declared record count")

    @pytest.mark.parametrize("buffer", [2, 4096, 1 << 20])
    def test_record_longer_than_the_buffer(self, tmp_path, monkeypatch, buffer):
        # A 65,535-byte id at d = 768: a 68,609-byte record between two short ones.
        monkeypatch.setattr(lir.io, "_READ_BUFFER", buffer)
        longest = "é" * 32767 + "x"
        ids = ["a", longest, "b"]
        rows = np.random.default_rng(24).standard_normal((3, 768)).astype(np.float32).astype(float)
        header = {"count": 3, "dim": 768, "dtype": "f32", "lang": "en"}
        payload = lire_payload(ids, rows)
        path = tmp_path / "long.lire"
        path.write_bytes(framed(b"LIRE", header, payload))
        assert self.same(path) == (ids, ["en"] * 3, rows.tobytes())
        first = len(lire_payload(ids[:1], rows[:1]))
        # Cuts in the long record's id length, id, values, and in the next record.
        for cut in (first + 1, first + 2, first + 40000, first + 65537, first + 66000, len(payload) - 1):
            path.write_bytes(framed(b"LIRE", header, payload[:cut]))
            assert isinstance(self.same(path)[0], type), cut

    @pytest.mark.parametrize("buffer", BUFFERS)
    @pytest.mark.parametrize("case", sorted(COLLECTIONS))
    def test_directories(self, tmp_path, monkeypatch, buffer, case):
        monkeypatch.setattr(lir.io, "_READ_BUFFER", buffer)
        root = collection_dir(tmp_path / "dir", **COLLECTIONS[case])
        paths = sorted(root.glob("*.lire"))
        expected = outcome(lambda _: read_table_oracle(*paths), root)
        assert outcome(lambda _: _read_table(*paths), root) == expected
        assert outcome(_read_collection, str(root)) == outcome(read_collection_oracle, root)

    def test_earlier_repeated_id_wins_over_a_later_cut(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lir.io, "_READ_BUFFER", 5)
        root = collection_dir(tmp_path / "dir", a=dict(ids=["x", "yé", "x"]), d=dict(cut=20))
        with pytest.raises(DuplicateKey, match="^duplicate record id 'x'$"):
            _read_collection(str(root))
        with pytest.raises(TruncatedFile):
            _read_table(root / "d.lire")

    def test_read_holds_the_matrix_and_one_buffer(self, tmp_path):
        # 8,000 x 128: a 4.2 MB file, read without holding its bytes.
        n, d = 8000, 128
        table = lir.EmbeddingTable(
            ids=[f"rec-{i:06d}" for i in range(n)], langs=["en"] * n,
            rows=np.random.default_rng(25).standard_normal((n, d)),
        )
        path = tmp_path / "en.lire"
        write_embeddings(path, table)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            read = _read_table(path)
            beyond = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert read.rows.tobytes() == table.rows.astype("<f4").astype(float).tobytes()
        # The matrix, its one-byte-a-value finiteness check and 100 B an id;
        # the buffer and one buffer of gathered values. Reading the whole
        # file held its bytes and all its gathered values, 4 n d each.
        design = 9 * n * d + 100 * n + 2 * lir.io._READ_BUFFER
        assert beyond <= design < 8 * n * d + 2 * 4 * n * d


class TestComponentFiles:
    def test_roundtrip_identity_subset_exact(self, tmp_path):
        basis = ComponentBasis(
            lang="en", basis=np.eye(4)[:, :2], rank=2, source_fingerprint="fp", sample_count=9
        )
        path = tmp_path / "en.lirc"
        write_components(path, basis)
        back = read_components(path)
        assert np.array_equal(back.basis, basis.basis)
        assert back.lang == "en"
        assert back.rank == 2
        assert back.sample_count == 9
        assert back.source_fingerprint == "fp"

    def test_mode_hint_in_a_header_is_ignored(self, tmp_path):
        # Older writers could add "mode_hint"; no reader uses it.
        header = {"dim": 3, "lang": "en", "mode_hint": "orthogonal", "rank": 1, "sample_count": 4,
                  "source_fingerprint": "fp"}
        path = tmp_path / "en.lirc"
        path.write_bytes(framed(b"LIRC", header, np.array([0.0, 1.0, 0.0], "<f4").tobytes()))
        back = read_components(path)
        assert back.basis.tolist() == [[0.0], [1.0], [0.0]]
        assert (back.lang, back.rank, back.sample_count, back.source_fingerprint) == ("en", 1, 4, "fp")

    def test_f32_roundtrip_reorthonormalized(self, tmp_path):
        basis = fitted_basis()
        path = tmp_path / "en.lirc"
        write_components(path, basis)
        back = read_components(path)
        dev = np.max(np.abs(back.basis.T @ back.basis - np.eye(back.rank)))
        assert dev <= 1e-6
        # directions survive the 32-bit storage
        assert np.max(np.abs(back.basis - basis.basis)) <= 1e-4

    def test_rank_zero_roundtrip(self, tmp_path):
        basis = ComponentBasis(
            lang="en", basis=np.zeros((5, 0)), rank=0, source_fingerprint="fp", sample_count=0
        )
        path = tmp_path / "r0.lirc"
        write_components(path, basis)
        assert read_components(path).rank == 0

    def test_corrupted_column_detected(self, tmp_path):
        basis = fitted_basis()
        path = tmp_path / "en.lirc"
        write_components(path, basis)
        blob = bytearray(path.read_bytes())
        hlen = struct.unpack("<I", blob[5:9])[0]
        start = 9 + hlen
        col = np.frombuffer(bytes(blob[start : start + 4 * basis.dim]), dtype="<f4")
        blob[start : start + 4 * basis.dim] = (col * 2.0).astype("<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptBasis):
            read_components(path)

    def test_truncated_values(self, tmp_path):
        basis = fitted_basis()
        path = tmp_path / "en.lirc"
        write_components(path, basis)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(TruncatedFile):
            read_components(path)

    def test_declared_values_beyond_file_size(self, tmp_path):
        path = tmp_path / "huge.lirc"
        header = {
            "dim": 2**31,
            "lang": "en",
            "rank": 2**31,
            "sample_count": 1,
            "source_fingerprint": "fp",
        }
        path.write_bytes(framed(b"LIRC", header))
        with pytest.raises(TruncatedFile):
            read_components(path)

    def test_header_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.lirc"
        path.write_bytes(framed(b"LIRC", DEEP_JSON))
        with pytest.raises(FormatError, match="JSON"):
            read_components(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lirc"
        path.write_bytes(b"LIRX" + bytes(16))
        with pytest.raises(FormatError, match="bad magic"):
            read_components(path)

    def test_directory_reader(self, tmp_path):
        for lang, seed in (("en", 1), ("zh", 2)):
            basis = fitted_basis(seed=seed)
            basis = ComponentBasis(
                lang=lang,
                basis=basis.basis,
                rank=basis.rank,
                source_fingerprint=basis.source_fingerprint,
                sample_count=basis.sample_count,
            )
            write_components(tmp_path / f"{lang}.lirc", basis)
        bases = read_components_dir(tmp_path)
        assert set(bases) == {"en", "zh"}
        with pytest.raises(FormatError):
            read_components_dir(tmp_path / "nowhere")

    def test_directory_duplicate_language(self, tmp_path):
        basis = fitted_basis()
        write_components(tmp_path / "a.lirc", basis)
        write_components(tmp_path / "b.lirc", basis)
        with pytest.raises(DuplicateKey):
            read_components_dir(tmp_path)


class TestJsonlReaders:
    @pytest.mark.parametrize(
        "reader, first_line",
        [
            (read_qrels, b'{"query_id": "q", "relevant": ["a"]}'),
            (read_labels, b'{"id": "a", "label": 1}'),
        ],
        ids=["qrels", "labels"],
    )
    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"", "blank line"),
            (b" \t ", "blank line"),
            (b'{"id": "\xff\xfe"}', "invalid UTF-8"),
            (b"not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
            (b'["a"]', "expected a JSON object"),
            (b"7", "expected a JSON object"),
        ],
        ids=["empty", "whitespace", "invalid UTF-8", "invalid JSON", "list", "number"],
    )
    def test_malformed_line_cites_number(self, tmp_path, reader, first_line, line, reason):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(first_line + b"\n" + line + b"\n" + first_line + b"\n")
        with pytest.raises(ParseError, match=f"^line 2: {re.escape(reason)}$") as exc_info:
            reader(path)
        assert exc_info.value.line_no == 2

    def test_labels_duplicate_id_cites_line(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text('{"id": "a", "label": 1}\n{"id": "b", "label": 0}\n{"id": "a", "label": 0}\n')
        with pytest.raises(DuplicateKey, match=r"^line 3: duplicate id 'a'$"):
            read_labels(path)

    @pytest.mark.parametrize(
        "line",
        [
            b'{"id": "a", "label": 1}',
            b'{"id": "a", "label": 1} x',
            b'{"id": "a", "label": 1}{"id": "b", "label": 0}',
            b'{"id": "a", "label": 1,}',
            b'{"id": "a", "label": 1, "w": [NaN, Infinity, -Infinity]}',
            b'\xef\xbb\xbf{"id": "a", "label": 1}',
            b'{"id": "\\ud800", "label": 1}',
            b'{"id": "\xed\xa0\x80", "label": 1}',
            DEEP_JSON,
            b'[{"id": "a", "label": 1}]',
            b"1 2",
            b"nul",
        ],
        ids=["object", "extra data", "two objects", "trailing comma", "NaN and Infinity",
             "BOM", "escaped lone surrogate", "raw lone surrogate", "deep nesting", "list",
             "two numbers", "bad literal"],
    )
    @pytest.mark.parametrize("at", [1, 2])
    def test_lines_decode_as_json_loads(self, tmp_path, line, at):
        # The scanner shortcut yields json.loads's value, and json.loads's
        # error and message, on every line of a file.
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b'{"id": "z", "label": 0}\n' * (at - 1) + line + b"\n")

        def outcomes(parse):
            out = []
            with open(path, encoding="utf-8", errors="surrogateescape") as f:
                for line_no, text in enumerate(f, start=1):
                    try:
                        text.strip().encode("utf-8")
                        out.append((line_no, repr(parse(text.strip()))))
                    except (UnicodeEncodeError, ValueError, RecursionError) as exc:
                        return out + [(line_no, type(exc), str(exc))]
            return out

        expected = outcomes(json.loads)
        assert outcomes(lir.io._json_line) == expected
        got = []
        try:
            got.extend((n, repr(obj)) for n, obj in lir.io._iter_jsonl(path))
        except ParseError as exc:
            got.append((exc.line_no, str(exc)))
        if len(expected[-1]) == 3:  # an error: _iter_jsonl names the line and the message
            line_no, kind, message = expected.pop()
            reason = "invalid UTF-8" if kind is UnicodeEncodeError else f"invalid JSON: {message}"
            expected.append((line_no, f"line {line_no}: {reason}"))
        elif not expected[-1][1].startswith("{"):
            expected[-1] = (at, f"line {at}: expected a JSON object")
        assert got == expected

    def test_nested_too_deep_cites_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_bytes(b'{"query_id": "q", "relevant": ["a"]}\n' + DEEP_JSON + b"\n")
        with pytest.raises(ParseError) as exc_info:
            read_qrels(path)
        assert exc_info.value.line_no == 2

    def test_qrels_roundtrip_and_duplicates(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        write_qrels(path, {"q2": frozenset({"c2"}), "q1": frozenset({"c1", "c3"})})
        qrels = read_qrels(path)
        assert qrels == {"q1": frozenset({"c1", "c3"}), "q2": frozenset({"c2"})}
        path.write_text(
            '{"query_id": "q", "relevant": ["a"]}\n{"query_id": "q", "relevant": ["b"]}\n'
        )
        with pytest.raises(DuplicateKey):
            read_qrels(path)

    def test_qrels_hold_one_object_per_id(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text("".join(
            f'{{"query_id": "q{q}", "relevant": ["c1", "c{q}", "c9"]}}\n' for q in range(2, 7)
        ))
        qrels = read_qrels(path)
        ids = [cid for rel in qrels.values() for cid in rel]
        assert len(ids) == 15
        assert len({id(cid) for cid in ids}) == len(set(ids)) == 7
        # A dataset keeps such frozensets as they are; other inputs are converted.
        records = [lir.EmbeddingRecord(id=f"c{i}", lang="en", vec=np.ones(2)) for i in range(10)]
        queries = [lir.EmbeddingRecord(id=f"q{q}", lang="en", vec=np.ones(2)) for q in range(2, 7)]
        ds = lir.RetrievalDataset(queries=queries, candidates=records, qrels=qrels)
        assert all(ds.qrels[q] is qrels[q] for q in qrels)
        converted = {**qrels, "q2": ["c1", "c2"], "q3": {"c3"}}
        ds = lir.RetrievalDataset(queries=queries, candidates=records, qrels=converted)
        assert ds.qrels["q2"] == frozenset({"c1", "c2"}) and type(ds.qrels["q3"]) is frozenset

    def test_qrels_ids_can_be_given_strings(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text('{"query_id": "q1", "relevant": ["c1", "c2"]}\n'
                        '{"query_id": "q2", "relevant": ["c2", "ghost"]}\n')
        strings = ["".join(["c", str(i)]) for i in range(4)]  # built here, not interned
        qrels = read_qrels(path, _strings=strings)
        assert qrels == read_qrels(path)
        held = {id(s) for s in strings}
        assert {cid for rel in qrels.values() for cid in rel if id(cid) in held} == {"c1", "c2"}

    def test_qrels_bad_relevant(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        path.write_text('{"query_id": "q", "relevant": "c1"}\n')
        with pytest.raises(ParseError):
            read_qrels(path)

    @pytest.mark.parametrize("relevant", ['[""]', '["c1", 1]', '["c1", null]', '{"c1": 1}'])
    def test_qrels_relevant_must_be_non_empty_strings(self, tmp_path, relevant):
        path = tmp_path / "qrels.jsonl"
        path.write_text(f'{{"query_id": "q", "relevant": ["c0"]}}\n{{"query_id": "r", "relevant": {relevant}}}\n')
        with pytest.raises(ParseError, match=r"^line 2: field 'relevant' must be a list of ids$"):
            read_qrels(path)

    def test_qrels_share_one_set_per_relevant_list(self, tmp_path):
        path = tmp_path / "qrels.jsonl"
        lists = [["c1", "c2"], ["c3"], ["c1", "c2"], ["c2", "c1"]]
        path.write_text("".join(
            f'{{"query_id": "q{i}", "relevant": {json.dumps(rel)}}}\n' for i, rel in enumerate(lists)
        ))
        qrels = read_qrels(path)
        assert qrels["q0"] is qrels["q2"] and qrels["q3"] == qrels["q0"]
        assert qrels == {f"q{i}": frozenset(rel) for i, rel in enumerate(lists)}

    def test_writers_keep_json_dumps_bytes(self, tmp_path):
        # Ids that need escaping, including one that would break a split of
        # one large dumps call, non-ASCII text and a lone surrogate.
        ids = ['a", ', "b\\c", "tab\there", "\x00nul", "é", "日本", "\U0001f600", "\udcff", "z"]
        qrels = {ids[i]: frozenset(ids[i:]) for i in range(len(ids))}
        labels = {rid: i % 2 for i, rid in enumerate(ids)}

        def dumps_lines(objects):
            lines = [json.dumps(o, sort_keys=True, separators=(",", ":")) for o in objects]
            return ("\n".join(lines) + "\n").encode("utf-8")

        write_qrels(tmp_path / "q.jsonl", qrels)
        assert (tmp_path / "q.jsonl").read_bytes() == dumps_lines(
            {"query_id": q, "relevant": sorted(qrels[q])} for q in sorted(qrels)
        )
        write_labels(tmp_path / "l.jsonl", labels)
        assert (tmp_path / "l.jsonl").read_bytes() == dumps_lines(
            {"id": rid, "label": labels[rid]} for rid in sorted(labels)
        )

    def test_write_qrels_shared_sets_keep_per_query_bytes(self, tmp_path):
        # One set object shared by several queries, an equal but distinct set,
        # singletons and non-ASCII ids: each line as if sorted on its own.
        shared = frozenset({"c2", "c1", "é-3", "日本-1"})
        qrels = {
            "q3": shared, "q1": shared, "q4": shared,
            "q2": frozenset(["c1", "c2", "é-3", "日本-1"]),
            "日本-0": frozenset({"z"}), "q0": frozenset({"c1"}),
            "\U0001f600": frozenset({"\udcff", "a"}), "é-0": frozenset({"c1"}),
        }
        write_qrels(tmp_path / "q.jsonl", qrels)
        assert (tmp_path / "q.jsonl").read_bytes() == qrels_bytes_oracle(qrels)
        assert read_qrels(tmp_path / "q.jsonl") == qrels

    @pytest.mark.parametrize("label", [True, False, 2, -1, 1.0, np.int64(1), "1", None])
    def test_write_labels_rejects_non_binary_ints(self, tmp_path, label):
        path = tmp_path / "labels.jsonl"
        with pytest.raises(FormatError, match="'b'"):
            write_labels(path, {"a": 0, "b": label, "c": 1})
        assert not path.exists()

    def test_labels_roundtrip_and_validation(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_labels(path, {"b": 1, "a": 0})
        assert read_labels(path) == {"a": 0, "b": 1}
        path.write_text('{"id": "a", "label": 2}\n')
        with pytest.raises(ParseError):
            read_labels(path)
        path.write_text('{"id": "a", "label": true}\n')
        with pytest.raises(ParseError):
            read_labels(path)


class TestReportsAndCsv:
    def test_report_json_stable(self, tmp_path):
        report = lir.EvalReport(
            overall_map=0.5,
            per_language_map={"zh": 0.25, "en": 0.75},
            query_count=4,
            config={"rank": 1, "mode": "orthogonal"},
        )
        text = report_json(report)
        assert text == report_json(report)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["overall_map"] == 0.5
        assert list(parsed["per_language_map"]) == ["en", "zh"]
        path = tmp_path / "report.json"
        write_report(path, report)
        assert path.read_text() == text

    def test_transfer_report_json(self):
        report = lir.TransferReport(
            per_language_accuracy={"en": 1.0},
            average=1.0,
            train_language="en",
            config={"placement": "both"},
        )
        parsed = json.loads(report_json(report))
        assert parsed["train_language"] == "en"

    def test_projection_csv_format(self, tmp_path):
        rows = [("a", "en", (0.1, -2.0)), ("b", "zh", (1.0 / 3.0, 5.0))]
        path = tmp_path / "proj.csv"
        write_projection_csv(path, rows)
        raw = path.read_bytes().decode("utf-8")
        lines = raw.split("\n")
        assert lines[0] == "id,lang,score_1,score_2"
        assert "\r" not in raw
        # full-precision floats round-trip exactly
        value = float(lines[2].split(",")[2])
        assert value == 1.0 / 3.0

    def test_projection_csv_matches_row_by_row_writer(self, tmp_path):
        # Ids that need quoting, numpy scalars, subnormals and -0.0: the bytes of
        # one csv.writer row per record with repr(float(score)) cells.
        rows = [
            ("a,b", "en", (0.1, np.float64(-2.0))),
            ('q"uote', "zh", (1.0 / 3.0, 5e-324)),
            ("日本\nx", "de", (np.float32(1.5), -0.0)),
        ]
        text = StringIO(newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["id", "lang", "score_1", "score_2"])
        for rec_id, lang, scores in rows:
            writer.writerow([rec_id, lang] + [repr(float(s)) for s in scores])
        path = tmp_path / "proj.csv"
        write_projection_csv(path, iter(rows))
        assert path.read_bytes() == text.getvalue().encode("utf-8")

    @pytest.mark.parametrize("block", [1, 3, 4, 1 << 12])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_projection_csv_blocks_change_no_byte(self, tmp_path, monkeypatch, block, k):
        # _CSV_BLOCK scores at a time: one row per block, a short last block,
        # and every row in one block; also rows without scores.
        rng = np.random.default_rng(26)
        rows = [(f"r,{i}", "en", tuple(rng.standard_normal(k))) for i in range(7)]
        text = StringIO(newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["id", "lang"] + [f"score_{i + 1}" for i in range(k)])
        for rec_id, lang, scores in rows:
            writer.writerow([rec_id, lang] + [repr(float(s)) for s in scores])
        monkeypatch.setattr(lir.io, "_CSV_BLOCK", block)
        path = tmp_path / "proj.csv"
        write_projection_csv(path, rows)
        assert path.read_bytes() == text.getvalue().encode("utf-8")
        ids, langs, scores = zip(*rows)
        lir.io._write_projection(path, ids, langs, np.array(scores).reshape(7, k))
        assert path.read_bytes() == text.getvalue().encode("utf-8")

    def test_projection_csv_rejects_empty_and_ragged(self, tmp_path):
        with pytest.raises(FormatError):
            write_projection_csv(tmp_path / "x.csv", [])
        with pytest.raises(DimensionError):
            write_projection_csv(
                tmp_path / "x.csv", [("a", "en", (1.0,)), ("b", "en", (1.0, 2.0))]
            )

    @pytest.mark.parametrize("score", [1 + 2j, "1.5", float("nan")])
    def test_projection_csv_rejects_scores_that_are_not_finite_reals(self, tmp_path, score):
        # Before, a complex score raised a bare TypeError, "1.5" was written as 1.5 and NaN as nan.
        path = tmp_path / "x.csv"
        with pytest.raises(DimensionError, match="^scores "):
            write_projection_csv(path, [("a", "en", (1.0, 2.0)), ("b", "en", (3.0, score))])
        assert not path.exists()
        with pytest.raises(DimensionError, match="^projection rows have mixed score counts$"):
            write_projection_csv(path, [("a", "en", (1.0,)), ("b", "en", (3.0, score))])


class TestLoneSurrogates:
    """UTF-8 cannot encode a lone surrogate: a writer raises FormatError
    naming the record, and writes nothing."""

    def test_embeddings_id(self, tmp_path):
        table = lir.EmbeddingTable(ids=["a", "b\ud800"], langs=["en", "en"], rows=np.ones((2, 2)))
        with pytest.raises(FormatError, match=re.escape("record 'b\\ud800': id is not valid UTF-8")):
            write_embeddings(tmp_path / "en.lire", table)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("row, message", [
        (("b\ud800", "en", (2.0,)), "record 'b\\ud800': id is not valid UTF-8"),
        (("b", "e\udfffn", (2.0,)), "record 'b': language tag is not valid UTF-8"),
    ])
    def test_projection_csv(self, tmp_path, monkeypatch, row, message):
        monkeypatch.setattr(lir.io, "_CSV_BLOCK", 1)  # the bad record is in the second block
        path = tmp_path / "proj.csv"
        path.write_bytes(b"old")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            write_projection_csv(path, [("a", "en", (1.0,)), row])
        assert [p.name for p in tmp_path.iterdir()] == ["proj.csv"] and path.read_bytes() == b"old"


class TestAtomicWrites:
    def test_writers_leave_only_their_file_with_open_mode(self, tmp_path):
        reference = tmp_path / "reference"
        reference.write_bytes(b"")
        basis = ComponentBasis(
            lang="en", basis=np.eye(4)[:, :1], rank=1, source_fingerprint="f", sample_count=3
        )
        report = lir.EvalReport(overall_map=0.5, per_language_map={"en": 0.5}, query_count=1, config={})
        writes = {
            "en.lire": lambda p: write_embeddings(p, sample_records()),
            "en.lirc": lambda p: write_components(p, basis),
            "qrels.jsonl": lambda p: write_qrels(p, {"q": frozenset({"a"})}),
            "labels.jsonl": lambda p: write_labels(p, {"a": 1}),
            "report.json": lambda p: write_report(p, report),
            "proj.csv": lambda p: write_projection_csv(p, [("a", "en", (1.0,))]),
        }
        for name, write in writes.items():
            write(tmp_path / name)
            write(tmp_path / name)  # replacing an existing file
            assert (tmp_path / name).stat().st_mode == reference.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*writes, "reference"])

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "proj.csv"
        write_projection_csv(path, [("a", "en", (1.0,))])
        before = path.read_bytes()
        with pytest.raises(DimensionError):
            write_projection_csv(path, [("b", "en", (2.0,)), ("c", "en", (1.0, 2.0))])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["proj.csv"]

    def test_failed_rename_removes_the_temporary_file(self, tmp_path):
        target = tmp_path / "report.json"
        target.mkdir()
        report = lir.EvalReport(overall_map=0.5, per_language_map={"en": 0.5}, query_count=1, config={})
        with pytest.raises(OSError):
            write_report(target, report)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_empty_file_name_is_an_os_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = lir.EvalReport(overall_map=0.5, per_language_map={"en": 0.5}, query_count=1, config={})
        for target in ("", tmp_path / "", tmp_path / "."):
            with pytest.raises(OSError):
                write_report(target, report)
        assert list(tmp_path.iterdir()) == []
