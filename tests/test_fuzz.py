"""Seeded byte-mutation fuzzing of every file reader.

Each valid file is mutated a few hundred times (bytes overwritten, inserted,
deleted, numbers lengthened, or the file cut short). Every mutant must read back or raise a
LirError, never another exception, and a rejected mutant must make the CLI
exit with code 2.
"""

import struct

import numpy as np
import pytest

import lir
from lir.cli import main
from lir.io import (
    _read_table,
    read_components,
    read_embeddings,
    read_jsonl_embeddings,
    read_labels,
    read_qrels,
    write_components,
    write_embeddings,
    write_labels,
    write_qrels,
)
from oracles import read_embeddings_oracle

SEED = 2109
MUTATIONS = 300


def mutate(blob: bytes, rng: np.random.Generator) -> bytes:
    data = bytearray(blob)
    pos = int(rng.integers(len(data) + 1))
    kind = int(rng.integers(5))
    if kind == 0 and data:
        for _ in range(int(rng.integers(1, 5))):
            data[int(rng.integers(len(data)))] = int(rng.integers(256))
    elif kind == 1:
        data[pos:pos] = rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    elif kind == 4:
        # Lengthen a number. Inside a binary header the length prefix grows
        # with it, so the header still parses and can declare a huge size.
        digits = [i + 1 for i, b in enumerate(data) if 48 <= b <= 57] or [pos]
        at = digits[int(rng.integers(len(digits)))]
        run = rng.integers(48, 58, size=int(rng.integers(1, 21)), dtype=np.uint8).tobytes()
        data[at:at] = run
        if data[:3] == b"LIR" and len(blob) >= 9:
            (hlen,) = struct.unpack_from("<I", blob, 5)
            if 9 <= at <= 9 + hlen:
                struct.pack_into("<I", data, 5, hlen + len(run))
    elif kind == 2:
        del data[pos : pos + int(rng.integers(1, 9))]
    else:
        del data[pos:]
    return bytes(data)


def records(lang="en", n=3, dim=4):
    rng = np.random.default_rng(1)
    return [
        lir.EmbeddingRecord(id=f"{lang}-{i}", lang=lang, vec=rng.standard_normal(dim))
        for i in range(n)
    ]


@pytest.fixture
def valid(tmp_path):
    """A directory with one valid file of every format."""
    root = tmp_path / "valid"
    root.mkdir()
    write_embeddings(root / "en.lire", records())
    ortho, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((4, 2)))
    write_components(
        root / "en.lirc",
        lir.ComponentBasis(
            lang="en", basis=ortho, rank=2, source_fingerprint="fp", sample_count=3
        ),
    )
    write_qrels(root / "qrels.jsonl", {"en-0": frozenset({"en-1", "en-2"})})
    write_labels(root / "labels.jsonl", {"en-0": 0, "en-1": 1, "en-2": 0})
    (root / "vecs.jsonl").write_text(
        "".join(
            f'{{"id": "{r.id}", "lang": "en", "vec": {r.vec.tolist()}}}\n' for r in records()
        )
    )
    return root


def cli_argv(fmt, path, valid, out):
    lire = str(valid / "en.lire")
    if fmt == "lire":
        return ["fit", "--input", str(path), "--rank", "1", "--output", str(out / "comp")]
    if fmt == "lirc":
        comp = out / "comp"
        comp.mkdir()
        (comp / "en.lirc").write_bytes(path.read_bytes())
        return ["apply", "--components", str(comp), "--input", lire,
                "--output", str(out / "o.lire")]
    if fmt == "qrels":
        return ["eval-retrieval", "--queries", lire, "--candidates", lire,
                "--qrels", str(path), "--report", str(out / "r.json")]
    return ["eval-transfer", "--train", lire, "--tests", str(valid),
            "--labels", str(path), "--report", str(out / "r.json")]


FORMATS = [
    ("lire", "en.lire", read_embeddings),
    ("lirc", "en.lirc", read_components),
    ("qrels", "qrels.jsonl", read_qrels),
    ("labels", "labels.jsonl", read_labels),
    ("vecs", "vecs.jsonl", read_jsonl_embeddings),
]


@pytest.mark.parametrize("fmt, name, reader", FORMATS, ids=[f[0] for f in FORMATS])
def test_mutants_read_or_raise_lir_error(tmp_path, valid, capsys, fmt, name, reader):
    rng = np.random.default_rng([SEED, FORMATS.index((fmt, name, reader))])
    blob = (valid / name).read_bytes()
    path = tmp_path / name
    rejected = None
    for i in range(MUTATIONS):
        mutant = mutate(blob, rng)
        path.write_bytes(mutant)
        try:
            reader(path)
        except lir.LirError:
            if rejected is None:
                rejected = mutant
        except Exception as exc:
            pytest.fail(f"mutant {i} of {name} raised {type(exc).__name__}: {exc}")
    assert rejected is not None, f"no mutant of {name} was rejected"

    if fmt == "vecs":
        return  # JSONL embeddings have no CLI reader
    out = tmp_path / "cli"
    out.mkdir()
    path.write_bytes(rejected)
    assert main(cli_argv(fmt, path, valid, out)) == 2
    assert "error:" in capsys.readouterr().err


def read_outcome(reader, path):
    """(ids, langs, row bytes) of what reader returns, or (error class, message)."""
    try:
        out = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    table = lir.EmbeddingTable.from_records(out)
    return table.ids, table.langs, table.rows.tobytes()


def test_table_reader_matches_record_reader(tmp_path, valid):
    # The 300 .lire mutants above (same seed), then the valid file cut at every byte.
    blob = (valid / "en.lire").read_bytes()
    rng = np.random.default_rng([SEED, 0])
    inputs = [mutate(blob, rng) for _ in range(MUTATIONS)] + [blob[:cut] for cut in range(len(blob))]
    path = tmp_path / "en.lire"
    outcomes = set()
    for i, data in enumerate(inputs):
        path.write_bytes(data)
        expected = read_outcome(read_embeddings_oracle, path)
        assert read_outcome(_read_table, path) == expected, f"input {i}"
        assert read_outcome(read_embeddings, path) == expected, f"input {i}"
        outcomes.add(expected[0] if isinstance(expected[0], type) else "read")
    assert {"read", lir.TruncatedFile, lir.FormatError} <= outcomes
