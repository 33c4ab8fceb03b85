"""Golden digests of the whole CLI chain at seed 7.

The chain runs in process through lir.cli.main: synth; fit at rank 1 and
rank 4; apply on every corpus file at both ranks in both removal modes;
eval-retrieval without and with components; eval-transfer with both
placements; project --dims 2. Every file it writes, but the projection CSV,
must have the sha256 listed in tests/golden/seed7.sha256. The CSV's bytes
may depend on the BLAS kernel, so it is only checked to be the same in two
runs.

A change that alters bytes on purpose regenerates the list with
`PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_list()"`,
which prints the files whose digests changed, and says why they changed.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import lir
from lir.cli import main
from lir.io import read_components

GOLDEN = Path(__file__).parent / "golden" / "seed7.sha256"
SYNTH = ["--languages", "3", "--topics", "6", "--per", "5", "--dim", "16", "--bias", "5.0",
         "--labels", "--seed", "7"]
MODES = ("orthogonal", "paper-eq1")


def run_chain(root: Path) -> None:
    """Every command of the chain, writing under root; each must exit 0."""
    data = root / "data"
    corpus = data / "corpus"
    retrieval = ["eval-retrieval", "--queries", str(data / "queries"),
                 "--candidates", str(data / "candidates"), "--qrels", str(data / "qrels.jsonl")]
    transfer = ["eval-transfer", "--train", str(corpus / "l00.lire"), "--tests", str(corpus),
                "--labels", str(data / "labels.jsonl")]
    commands = [["synth", *SYNTH, "--out", str(data)]]
    for rank in (1, 4):
        comp = str(root / f"comp{rank}")
        commands.append(["fit", "--input", str(corpus), "--rank", str(rank), "--output", comp])
        for mode in MODES:
            clean = root / f"clean{rank}-{mode}"
            clean.mkdir(parents=True)  # lir apply makes no directory
            for name in ("l00.lire", "l01.lire", "l02.lire"):
                commands.append(["apply", "--components", comp, "--input", str(corpus / name),
                                 "--mode", mode, "--output", str(clean / name)])
    commands += [
        [*retrieval, "--report", str(root / "baseline.json")],
        [*retrieval, "--components", str(root / "comp1"), "--report", str(root / "treated1.json")],
        [*retrieval, "--components", str(root / "comp4"), "--mode", "paper-eq1",
         "--report", str(root / "treated4-eq1.json")],
        [*transfer, "--components", str(root / "comp4"), "--placement", "both",
         "--report", str(root / "transfer-both.json")],
        [*transfer, "--components", str(root / "comp1"), "--placement", "eval",
         "--report", str(root / "transfer-eval.json")],
        ["project", "--input", str(corpus), "--dims", "2", "--output", str(root / "scores.csv")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root but the projection CSV, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "scores.csv"
    }


def read_list() -> dict[str, str]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def write_list() -> None:
    """Run the chain in a temporary directory, write its digests as the list,
    and print the name of every file whose digest is not the old list's."""
    import tempfile

    old = read_list() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        run_chain(Path(tmp))
        new = digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(f"{digest}  {name}\n" for name, digest in new.items()), encoding="utf-8")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(name)


def test_chain_matches_the_golden_digests(tmp_path):
    run_chain(tmp_path)
    expected, got = read_list(), digests(tmp_path)
    differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
    assert not differ, f"files whose bytes differ from {GOLDEN.name}: {differ}"
    again = tmp_path / "again" / "scores.csv"
    again.parent.mkdir()
    assert main(["project", "--input", str(tmp_path / "data" / "corpus"), "--dims", "2",
                 "--output", str(again)]) == 0
    assert again.read_bytes() == (tmp_path / "scores.csv").read_bytes()


def test_chain_does_not_depend_on_the_hash_seed(tmp_path):
    # Each run in its own interpreter, with its own string hashing: the listed
    # bytes and one projection CSV.
    package_root = str(Path(lir.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (package_root, str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH"))))
    script = "import pathlib, sys, test_golden; test_golden.run_chain(pathlib.Path(sys.argv[1]))"
    roots = [tmp_path / seed for seed in ("0", "1")]
    for root in roots:
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": root.name}
        proc = subprocess.run([sys.executable, "-c", script, str(root)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert digests(root) == read_list(), f"PYTHONHASHSEED={root.name}"
    assert (roots[0] / "scores.csv").read_bytes() == (roots[1] / "scores.csv").read_bytes()


def test_every_artifact_names_a_corpus_by_one_fingerprint(tmp_path):
    # The manifest, both .lirc sets and both transfer reports fingerprint each
    # language's corpus file alike; the training corpus is l00's.
    run_chain(tmp_path)
    manifest = json.loads((tmp_path / "data" / "manifest.json").read_text(encoding="utf-8"))
    reports = [json.loads((tmp_path / f"transfer-{placement}.json").read_text(encoding="utf-8"))["config"]
               for placement in ("both", "eval")]
    assert sorted(manifest["fingerprints"]) == ["l00", "l01", "l02"]
    for lang, fingerprint in manifest["fingerprints"].items():
        for rank in (1, 4):
            assert read_components(tmp_path / f"comp{rank}" / f"{lang}.lirc").source_fingerprint == fingerprint
        for report in reports:
            assert report["test_fingerprints"][lang] == fingerprint
    for report in reports:
        assert report["train_fingerprint"] == manifest["fingerprints"]["l00"]
