"""The traced benchmark wraps lir functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent.parent / "perfbench" / "launcher.py"


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
