"""Start-up: each CLI command loads only the modules it runs, and the package's
public surface resolves its names on first use to the objects its modules
define."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lir
from lir.cli import main

PACKAGE_ROOT = str(Path(lir.__file__).resolve().parent.parent)
SUBMODULES = sorted(
    p.stem for p in Path(lir.__file__).parent.glob("*.py") if not p.stem.startswith("__")
)

# Runs `python -m lir ARGV` as the interpreter's -m does, then prints the
# exit code and every module the process loaded as its last stdout line.
RUN_COMMAND = """
import json, runpy, sys
code = None
try:
    runpy.run_module("lir", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

# What each command must not load: the other commands' modules, OpenSSL's
# hashing where no fingerprint is taken, and csv everywhere but project.
NEVER_LOADED = {
    "fit": {"lir.evaluation", "lir.synth", "csv", "_csv"},
    "apply": {"lir.evaluation", "lir.synth", "hashlib", "_hashlib", "csv", "_csv"},
    "eval-retrieval": {"lir.synth", "csv", "_csv"},
    "eval-transfer": {"lir.synth", "csv", "_csv"},
    "project": {"lir.evaluation", "lir.synth", "hashlib", "_hashlib"},
    "synth": {"lir.evaluation", "csv", "_csv"},
}


def run_python(*args):
    """Run a fresh interpreter on the package this test imported; return its
    last stdout line, decoded from JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    data, comp = root / "data", root / "comp"
    assert main(["synth", "--languages", "2", "--topics", "3", "--per", "2", "--dim", "8",
                 "--bias", "5.0", "--labels", "--seed", "3", "--out", str(data)]) == 0
    assert main(["fit", "--input", str(data / "corpus"), "--rank", "1",
                 "--output", str(comp)]) == 0
    return root, data, comp


def command_argv(command, root, data, comp):
    out = root / command
    return {
        "fit": ["--input", str(data / "corpus"), "--rank", "1", "--output", str(out)],
        "apply": ["--components", str(comp), "--input", str(data / "corpus" / "l00.lire"),
                  "--output", str(out / "l00.lire")],
        "eval-retrieval": ["--queries", str(data / "queries"), "--candidates",
                           str(data / "candidates"), "--qrels", str(data / "qrels.jsonl"),
                           "--components", str(comp), "--report", str(out / "r.json")],
        "eval-transfer": ["--train", str(data / "corpus" / "l00.lire"), "--tests",
                          str(data / "corpus"), "--labels", str(data / "labels.jsonl"),
                          "--components", str(comp), "--epochs", "5",
                          "--report", str(out / "t.json")],
        "project": ["--input", str(data / "corpus"), "--dims", "2", "--output", str(out / "s.csv")],
        "synth": ["--languages", "2", "--topics", "3", "--per", "2", "--dim", "8",
                  "--bias", "5.0", "--labels", "--seed", "3", "--out", str(out)],
    }[command]


class TestImportBudget:
    @pytest.mark.parametrize("command", sorted(NEVER_LOADED))
    def test_command_loads_only_what_it_runs(self, corpus, command):
        root, data, comp = corpus
        (root / command).mkdir(exist_ok=True)
        argv = [command, *command_argv(command, root, data, comp)]
        result = run_python("-c", RUN_COMMAND, *argv)
        assert result["code"] == 0
        loaded = set(result["modules"])
        assert "lir.cli" in loaded
        assert loaded & NEVER_LOADED[command] == set()
        # csv is loaded by the one command that writes it, so the test sees it load.
        assert ("csv" in loaded) == (command == "project")

    def test_bare_import_loads_no_submodule(self):
        loaded = run_python("-c", "import json, sys, lir; print(json.dumps(sorted(sys.modules)))")
        assert [m for m in loaded if m.startswith("lir.")] == []

    def test_submodule_use_loads_it_and_what_it_imports(self):
        # conftest.py reaches linalg through a bare `import lir`.
        loaded = run_python(
            "-c",
            "import json, sys, lir; lir.linalg._openblas_threads; "
            "print(json.dumps(sorted(sys.modules)))",
        )
        assert [m for m in loaded if m.startswith("lir.")] == ["lir.core", "lir.errors", "lir.linalg"]


@pytest.fixture
def fresh_lir(monkeypatch):
    """A newly executed lir package, none of whose names is resolved yet,
    standing in for lir in sys.modules for the test."""
    spec = importlib.util.find_spec("lir")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setitem(sys.modules, "lir", module)
    return module


class TestPublicSurface:
    def test_names_resolve_to_the_defining_modules_objects(self, fresh_lir):
        assert len(fresh_lir.__all__) == len(set(fresh_lir.__all__)) == 47
        for name in fresh_lir.__all__:
            assert name not in vars(fresh_lir)
            value = getattr(fresh_lir, name)
            assert value.__module__ in {f"lir.{sub}" for sub in SUBMODULES}
            assert getattr(importlib.import_module(value.__module__), name) is value
            assert vars(fresh_lir)[name] is value  # kept: the next lookup is a plain global

    def test_star_import_binds_every_public_name(self, fresh_lir):
        namespace = {}
        exec("from lir import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(fresh_lir.__all__)
        for name, value in namespace.items():
            assert getattr(importlib.import_module(value.__module__), name) is value

    def test_dir_lists_public_names_and_submodules(self, fresh_lir):
        listed = set(dir(fresh_lir))
        assert set(fresh_lir.__all__) <= listed
        assert set(SUBMODULES) <= listed
        assert "__version__" in listed

    @pytest.mark.parametrize("sub", SUBMODULES)
    def test_submodule_is_an_attribute(self, fresh_lir, sub):
        assert getattr(fresh_lir, sub) is importlib.import_module(f"lir.{sub}")

    def test_readme_lists_every_public_name(self):
        # Every backquoted name on the bullets of the README's "Public API"
        # section, each once: a new public name must be documented there.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
        listed, in_bullet = [], False
        for line in section.splitlines():
            in_bullet = line.startswith("- ") or (in_bullet and line.startswith("  "))
            listed += re.findall(r"`(\w+)`", line) if in_bullet else []
        assert sorted(listed) == sorted(lir.__all__)

    def test_readme_library_quick_start_runs(self):
        # The python block of the README's "Quick start (library)" section, as
        # written: removal must raise the overall MAP it reports.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["after"] > namespace["before"]
        assert set(namespace["bases"]) == {"en", "de", "zh"}
        assert namespace["scores"].shape == (len(namespace["table"]), 2)

    def test_unknown_attribute_raises_naming_it(self, fresh_lir):
        with pytest.raises(AttributeError, match="module 'lir' has no attribute 'no_such_name'"):
            fresh_lir.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            exec("from lir import no_such_name", {})
