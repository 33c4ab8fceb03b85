"""The traced benchmark wraps lir functions by name: every name must resolve,
and every chain command must run under the launcher with its count hooks."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lir.cli import main

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = ROOT / "perfbench" / "launcher.py"
SRC = ROOT / "src"


def test_launcher_names_resolve_in_lir():
    spec = importlib.util.spec_from_file_location("perfbench_launcher", LAUNCHER)
    launcher = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launcher)
    missing = [
        f"{module}.{name}"
        for table in (launcher.SPANNED, launcher.COUNTED)
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"lir.{module}"), name, None))
    ]
    assert not missing, f"perfbench/launcher.py wraps names lir no longer has: {missing}"
    assert set(launcher.SPANNED) | set(launcher.COUNTED) <= set(launcher.MODULES)


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("chain")
    data, comp = root / "data", root / "comp"
    assert main(["synth", "--languages", "2", "--topics", "4", "--per", "3", "--dim", "8",
                 "--bias", "5.0", "--labels", "--seed", "3", "--out", str(data)]) == 0
    assert main(["fit", "--input", str(data / "corpus"), "--rank", "1", "--output", str(comp)]) == 0
    return root, data, comp


CHAIN = {
    "fit": lambda d, c, o: ["fit", "--input", f"{d}/corpus", "--rank", "1", "--output", f"{o}/comp"],
    "apply": lambda d, c, o: ["apply", "--components", c, "--input", f"{d}/corpus/l00.lire",
                              "--output", f"{o}/l00.lire"],
    "eval-retrieval": lambda d, c, o: ["eval-retrieval", "--queries", f"{d}/queries", "--candidates",
                                       f"{d}/candidates", "--qrels", f"{d}/qrels.jsonl",
                                       "--report", f"{o}/r.json"],
    "eval-retrieval-treated": lambda d, c, o: [*CHAIN["eval-retrieval"](d, c, o), "--components", c],
    "eval-transfer": lambda d, c, o: ["eval-transfer", "--train", f"{d}/corpus/l00.lire", "--tests",
                                      f"{d}/corpus", "--labels", f"{d}/labels.jsonl", "--components",
                                      c, "--placement", "both", "--report", f"{o}/t.json"],
    "project": lambda d, c, o: ["project", "--input", f"{d}/corpus", "--dims", "2",
                                "--output", f"{o}/p.csv"],
    "synth": lambda d, c, o: ["synth", "--languages", "2", "--topics", "4", "--per", "3", "--dim",
                              "8", "--bias", "5.0", "--labels", "--seed", "3", "--out", f"{o}/data"],
}


@pytest.mark.parametrize("command", sorted(CHAIN))
def test_traced_launcher_runs_each_chain_command(chain_inputs, tmp_path, command):
    _, data, comp = chain_inputs
    spans = tmp_path / "spans.json"
    argv = CHAIN[command](data, str(comp), tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(LAUNCHER), str(spans), "--", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert not any(trace["errors"].values())
    assert trace["counters"].get("core.records", 0) == 0
    if command.startswith("eval-retrieval"):
        counts = json.loads((data / "manifest.json").read_text())["counts"]
        assert trace["counters"]["evaluation.scores"] == counts["queries"] * counts["candidates"]
