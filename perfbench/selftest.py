"""Self-test of the benchmark at a tiny scale (a few seconds).

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Checks that
  * both modes print exactly the metric names and units BENCHMARK.json lists,
    and a tiny healthy run passes every output check;
  * the same seed gives the same corpus fingerprints (synth manifest.json)
    and another seed gives different ones;
  * a missing qrels file is counted as a failed attempt, not a crash.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

TINY = run.Workload(languages=4, topics=6, per=4, dim=16, rank=1, thread_check=True)


def fingerprints(runner: run.Runner, seed: int, name: str) -> dict:
    out = runner.work / name
    runner.lir(TINY.synth_args(seed, out))
    return run.read_json(out / "manifest.json")["fingerprints"]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    try:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = run.run(TINY, seed=3, seconds=0.0, trace=bool(trace),
                                     work=base / f"trace{trace}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            listed = {m["name"]: m["unit"] for m in spec[group]}
            expect(printed == listed, f"--trace {trace} prints the {group} names and units")
            expect(result["correct"] and result["failed"] == 0,
                   f"--trace {trace} tiny run passes its checks {detail['failures']}")
        expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
               "BENCHMARK.json lists run.py's workloads")

        work = base / "synth"
        (work / "spans").mkdir(parents=True)
        runner = run.Runner(work)
        first, again = fingerprints(runner, 5, "a"), fingerprints(runner, 5, "b")
        other = fingerprints(runner, 6, "c")
        expect(first == again, "same seed gives the same corpus fingerprints")
        expect(first != other, "another seed gives other corpus fingerprints")

        work = base / "bad-input"
        (work / "spans").mkdir(parents=True)
        runner = run.Runner(work)
        data, _ = run.setup(runner, TINY, seed=3)
        (data / "qrels.jsonl").unlink()
        before = runner.failed
        run.repeat(runner, TINY, data, 0, None)
        expect(runner.failed > before, "a missing qrels file counts as a failed attempt")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
