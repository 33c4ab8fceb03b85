"""Golden digests of the whole CLI chain at seed 7.

The chain runs in process through lir.cli.main: synth; fit at rank 1 and
rank 4; apply on every corpus file at both ranks in both removal modes;
eval-retrieval without and with components; eval-transfer with both
placements; project --dims 2. Every file it writes, but the projection CSV,
must have the sha256 listed in tests/golden/seed7.sha256. The CSV's bytes
may depend on the BLAS kernel, so it is only checked to be the same in two
runs.

A change that alters bytes on purpose regenerates the list with
`PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_list()"`
and says which files changed and why.
"""

import hashlib
from pathlib import Path

from lir.cli import main

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
    """Run the chain in a temporary directory and write its digests as the list."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        run_chain(Path(tmp))
        lines = [f"{digest}  {name}\n" for name, digest in digests(Path(tmp)).items()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(lines), encoding="utf-8")


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
