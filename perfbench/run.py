"""lir benchmark runner.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run builds a seeded synthetic corpus with ``lir synth`` (the set-up,
repeated and timed), then repeats the user-facing CLI chain until S seconds
have been measured, and at least twice: ``fit``, ``apply`` on every corpus
file, ``eval-retrieval`` without and with components, ``eval-transfer
--placement both`` and ``project --dims 2``. Stages shorter than a second
are then re-run alone until they have five samples. Every command is its own
child process and they run one at a time, so the run never uses more BLAS
threads than the machine has cores. Outputs are checked after every
repetition; each command and each check counts as one attempt.

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` the run alternates plain and traced repetitions (traced ones go
through ``perfbench/launcher.py``) and the last line carries the per-layer
metrics. The line before it is a JSON record with the environment, every
stage sample and the failed checks. ``perfbench/README.md`` explains the
workloads and which layer metric moves which end-to-end metric.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from launcher import MODULES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SYNTH_REPEATS = 5
MIN_REPEATS = 2
# A stage whose median sample is shorter than SHORT_STAGE_S is re-run on
# repetition 0's components until it has STAGE_SAMPLES samples: start-up
# noise dominates a short command, and one more sample of it is cheap.
SHORT_STAGE_S = 1.0
STAGE_SAMPLES = 5
# A child still running this long after the run started is killed (and
# counted as failed), so one run always ends within 180 s.
RUN_DEADLINE_S = 165.0
# The README promises that rank-1 removal roughly triples MAP on these corpora.
MAP_GAIN_FLOOR = 2.0


@dataclass(frozen=True)
class Workload:
    languages: int
    topics: int
    per: int
    dim: int
    rank: int
    # Re-run fit (first language) and project under OPENBLAS_NUM_THREADS=1
    # and require the default run's bytes.
    thread_check: bool = False

    def synth_args(self, seed: int, out: Path) -> list[str]:
        return [
            "synth", "--languages", str(self.languages), "--topics", str(self.topics),
            "--per", str(self.per), "--dim", str(self.dim), "--bias", "5.0",
            "--labels", "--seed", str(seed), "--out", str(out),
        ]


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "fit-wide": Workload(languages=3, topics=20, per=50, dim=256, rank=1, thread_check=True),
    "retrieval-many": Workload(languages=8, topics=56, per=40, dim=64, rank=1),
    "bulk-rows": Workload(languages=4, topics=20, per=500, dim=128, rank=4),
}

STAGES = ("fit_s", "apply_s", "eval_retrieval_s", "eval_transfer_s", "project_s")

END_TO_END = (
    ("pipeline_s", "s"),
    *((stage, "s") for stage in STAGES),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "fraction"),
    ("treated_map", "MAP"),
    ("transfer_accuracy", "fraction"),
)

# Per-layer metrics: `<module>.<function>.s` is inclusive time, `.self_s`
# excludes child spans, `.calls` counts calls; the rest are computed counts.
PER_LAYER = (
    ("linalg.svd.s", "s"),
    ("linalg.svd.calls", "count"),
    ("linalg.jacobi_eigh.s", "s"),
    ("linalg.pca_project.s", "s"),
    ("linalg.gram_flops", "flop"),
    ("linalg.eig_dim", "count"),
    ("linalg.project_out.calls", "count"),
    ("removal.fit_decomposition.s", "s"),
    ("removal.remove_batch.s", "s"),
    ("removal.remove_batch.rows", "rows"),
    ("evaluation.evaluate_retrieval.s", "s"),
    ("evaluation.evaluate_retrieval.self_s", "s"),
    ("evaluation.average_precision.s", "s"),
    ("evaluation.average_precision.calls", "count"),
    ("evaluation.scores", "count"),
    ("evaluation.train_logistic.s", "s"),
    ("evaluation.predict_logistic.s", "s"),
    ("io.read_embeddings.s", "s"),
    ("io.read_embeddings.calls", "count"),
    ("io.rows_read", "rows"),
    ("io.bytes_read", "B"),
    ("io.write_embeddings.s", "s"),
    ("io.rows_written", "rows"),
    ("io.bytes_written", "B"),
    ("io.write_projection_csv.s", "s"),
    ("core.corpus_fingerprint.s", "s"),
    ("core.check_collection.s", "s"),
    ("core.records", "count"),
    ("synth.generate.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.invocations", "count"),
    *((f"{module}.errors", "count") for module in MODULES),
    ("trace.pipeline_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
)


class Runner:
    """Runs lir commands one at a time and tallies attempts and failures."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.invocations = 0
        self.traces: list[tuple[float, Path]] = []
        self.peak_rss_kb = 0
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        self.env = env

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def lir(self, args: list[str], *, traced: bool = False, env: dict | None = None) -> float:
        """Run one lir command to completion; return its wall time in seconds."""
        self.invocations += 1
        if traced:
            spans = self.work / "spans" / f"{self.invocations:05d}.json"
            cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans), "--", *args]
        else:
            cmd = [sys.executable, "-m", "lir", *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                env=env or self.env, cwd=self.work)
        timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
        timer.start()
        try:
            with proc.stderr:
                stderr = proc.stderr.read()
            # wait4, unlike Popen.wait, also returns the child's peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.check(
            proc.returncode == 0 and b"Traceback" not in stderr,
            f"lir {args[0]} exited {proc.returncode}: {stderr.decode(errors='replace')[-300:]}",
        )
        if traced:
            self.traces.append((wall, spans))
        return wall


def digest_tree(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def setup(runner: Runner, wl: Workload, seed: int) -> tuple[Path, list[float]]:
    """Generate the corpus SYNTH_REPEATS times into work/data; all copies must match."""
    data = runner.work / "data"
    times = [runner.lir(wl.synth_args(seed, data))]
    reference = digest_tree(data)
    for i in range(1, SYNTH_REPEATS):
        copy = runner.work / f"synth{i}"
        times.append(runner.lir(wl.synth_args(seed, copy)))
        runner.check(digest_tree(copy) == reference, f"synth repeat {i} differs from repeat 0")
        shutil.rmtree(copy)
    return data, times


def stage_commands(wl: Workload, data: Path, comp: Path, out: Path) -> dict[str, list[list[str]]]:
    """The chain's commands by stage. `fit` writes out/comp; the rest read `comp`."""
    corpus = data / "corpus"
    retrieval = ["eval-retrieval", "--queries", str(data / "queries"), "--candidates",
                 str(data / "candidates"), "--qrels", str(data / "qrels.jsonl")]
    return {
        "fit_s": [["fit", "--input", str(corpus), "--rank", str(wl.rank),
                   "--output", str(out / "comp")]],
        "apply_s": [["apply", "--components", str(comp), "--input", str(f),
                     "--output", str(out / "clean" / f.name)]
                    for f in sorted(corpus.glob("*.lire"))],
        "eval_retrieval_s": [[*retrieval, "--report", str(out / "baseline.json")],
                             [*retrieval, "--components", str(comp),
                              "--report", str(out / "treated.json")]],
        "eval_transfer_s": [["eval-transfer", "--train", str(corpus / "l00.lire"),
                             "--tests", str(corpus), "--labels", str(data / "labels.jsonl"),
                             "--components", str(comp), "--placement", "both",
                             "--report", str(out / "transfer.json")]],
        "project_s": [["project", "--input", str(corpus), "--dims", "2",
                       "--output", str(out / "scores.csv")]],
    }


def pipeline(runner: Runner, wl: Workload, data: Path, out: Path, traced: bool) -> dict:
    """One pass of the CLI chain; returns per-stage wall times and peak RSS."""
    (out / "clean").mkdir(parents=True)
    runner.peak_rss_kb = 0
    start = time.perf_counter()
    times = {stage: sum(runner.lir(cmd, traced=traced) for cmd in cmds)
             for stage, cmds in stage_commands(wl, data, out / "comp", out).items()}
    times["pipeline_s"] = time.perf_counter() - start
    times["peak_rss_kb"] = runner.peak_rss_kb
    return times


def check_outputs(runner: Runner, data: Path, out: Path) -> dict:
    """Output checks of one repetition; returns its quality figures."""
    baseline = read_json(out / "baseline.json") or {}
    treated = read_json(out / "treated.json") or {}
    transfer = read_json(out / "transfer.json") or {}
    base_map, treated_map = baseline.get("overall_map"), treated.get("overall_map")
    runner.check(
        isinstance(base_map, float) and isinstance(treated_map, float)
        and treated_map >= MAP_GAIN_FLOOR * base_map,
        f"treated MAP {treated_map} is not {MAP_GAIN_FLOOR}x baseline {base_map}",
    )
    expected = ((read_json(data / "manifest.json") or {}).get("counts") or {}).get("records")
    try:
        with open(out / "scores.csv", "rb") as f:
            rows = sum(1 for _ in f) - 1
    except OSError:
        rows = None
    runner.check(rows == expected, f"projection CSV has {rows} rows, corpus has {expected}")
    return {"baseline_map": base_map, "treated_map": treated_map,
            "transfer_accuracy": transfer.get("average")}


def thread_check(runner: Runner, wl: Workload, data: Path, reference: dict) -> None:
    """fit and project under one BLAS thread must reproduce the default bytes."""
    out = runner.work / "threads1"
    env = dict(runner.env, OPENBLAS_NUM_THREADS="1")
    runner.lir(["fit", "--input", str(data / "corpus" / "l00.lire"), "--rank", str(wl.rank),
                "--output", str(out / "comp")], env=env)
    runner.lir(["project", "--input", str(data / "corpus"), "--dims", "2",
                "--output", str(out / "scores.csv")], env=env)
    want = {k: reference.get(k) for k in ("comp/l00.lirc", "scores.csv")}
    runner.check(digest_tree(out) == want,
                 "fit/project bytes differ between OPENBLAS_NUM_THREADS=1 and the default")
    shutil.rmtree(out)


def repeat(runner: Runner, wl: Workload, data: Path, index: int, reference: dict | None,
           traced: bool = False) -> tuple[dict, dict, dict]:
    """One checked pipeline repetition; later ones must match repetition 0,
    whose outputs stay for the short-stage re-runs."""
    out = runner.work / f"rep{index}"
    times = pipeline(runner, wl, data, out, traced)
    quality = check_outputs(runner, data, out)
    tree = digest_tree(out)
    if reference is not None:
        runner.check(tree == reference, f"repetition {index} outputs differ from repetition 0")
        shutil.rmtree(out)
    return times, quality, tree


def stage_samples(runner: Runner, wl: Workload, data: Path, samples: list[dict],
                  reference: dict) -> dict[str, list[float]]:
    """Per-stage samples of the repetitions, topped up for short stages."""
    per_stage = {stage: [s[stage] for s in samples] for stage in STAGES}
    comp = runner.work / "rep0" / "comp"
    for stage, values in per_stage.items():
        if statistics.median(values) >= SHORT_STAGE_S:
            continue
        for index in range(len(values), STAGE_SAMPLES):
            out = runner.work / f"{stage}{index}"
            (out / "clean").mkdir(parents=True)
            values.append(sum(runner.lir(cmd) for cmd in stage_commands(wl, data, comp, out)[stage]))
            runner.check(digest_tree(out).items() <= reference.items(),
                         f"{stage} re-run {index} outputs differ from repetition 0")
            shutil.rmtree(out)
    return per_stage


def summarize_traces(traces: list[tuple[float, Path]]) -> dict[str, float]:
    """Sum the launcher span files of one traced repetition by name."""
    inclusive, own, calls, counters, errors = Counter(), Counter(), Counter(), Counter(), Counter()
    startup = 0.0
    eig_dim = 0
    for wall, path in traces:
        payload = read_json(path)
        if payload is None:
            continue
        spans = payload["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, parent), child in zip(spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
            if parent < 0:
                startup += wall - (end - start)
        counts = dict(payload["counters"])
        eig_dim = max(eig_dim, counts.pop("linalg.eig_dim", 0))
        counters.update(counts)
        errors.update(payload["errors"])
    out: dict[str, float] = {"linalg.eig_dim": eig_dim, "cli.startup_s": startup,
                             "cli.invocations": len(traces)}
    for name in inclusive:
        out[f"{name}.s"] = inclusive[name]
        out[f"{name}.self_s"] = own[name]
        out[f"{name}.calls"] = calls[name]
    out.update(counters)
    out.update((f"{module}.errors", count) for module, count in errors.items())
    return out


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s.get(key, 0) for s in samples)


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, when it exposes one."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return getter()
    return None


def environment() -> dict:
    """Versions and hardware; /proc and /sys are only read."""
    import numpy as np

    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "lir").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "l3_cache": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            match = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.MULTILINE)
        env["cpu_model"] = match.group(1).strip() if match else None
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as f:
            env["l3_cache"] = f.read().strip()
    except OSError:
        pass
    return env


def end_to_end_metrics(samples: list[dict], per_stage: dict[str, list[float]],
                       setup_times: list[float], quality: dict, runner: Runner) -> dict:
    values = {stage: statistics.median(per_stage[stage]) for stage in STAGES}
    values["pipeline_s"] = median_of(samples, "pipeline_s")
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = max(s["peak_rss_kb"] for s in samples) / 1024.0
    # error_rate is 0 on a healthy run, so it is reported as 1 - error_rate.
    values["pass_rate"] = 1.0 - runner.failed / runner.attempted
    values["treated_map"] = quality["treated_map"] or 0.0
    values["transfer_accuracy"] = quality["transfer_accuracy"] or 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(samples: list[dict], traced: list[dict], synth: dict) -> dict:
    """Medians over traced repetitions; tracing overhead against plain ones."""
    traced_pipeline = median_of(traced, "pipeline_s")
    values = {
        "trace.pipeline_s": traced_pipeline,
        "trace.overhead_s": traced_pipeline - median_of(samples, "pipeline_s"),
        "trace.coverage": statistics.median(
            (t.get("cli.main.s", 0.0) + t["cli.startup_s"]) / t["pipeline_s"] for t in traced),
        "synth.generate.s": synth.get("synth.generate.s", 0.0),
    }
    for name, _ in PER_LAYER:
        if name not in values:
            values[name] = median_of(traced, name)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, detail)."""
    (work / "spans").mkdir(parents=True)
    runner = Runner(work)
    data, setup_times = setup(runner, wl, seed)
    samples, traced, qualities = [], [], []
    reference = None
    start = time.perf_counter()
    while len(samples) + len(traced) < MIN_REPEATS or time.perf_counter() - start < seconds:
        times, quality, tree = repeat(runner, wl, data, len(samples) + len(traced), reference)
        reference = reference or tree
        samples.append(times)
        qualities.append(quality)
        if trace:
            runner.traces.clear()
            times, quality, _ = repeat(runner, wl, data, len(samples) + len(traced), reference,
                                       traced=True)
            traced.append(dict(summarize_traces(runner.traces), **times))
            qualities.append(quality)
    for key in ("treated_map", "transfer_accuracy"):
        runner.check(len({q[key] for q in qualities}) == 1, f"{key} differs across repetitions")
    if trace:
        # One more, traced, copy of the corpus gives synth.generate.s; it must match too.
        runner.traces.clear()
        copy = work / "synth_traced"
        runner.lir(wl.synth_args(seed, copy), traced=True)
        runner.check(digest_tree(copy) == digest_tree(data), "traced synth output differs")
        metrics = per_layer_metrics(samples, traced, summarize_traces(runner.traces))
        extra = {"traced_samples": traced}
    else:
        per_stage = stage_samples(runner, wl, data, samples, reference)
        if wl.thread_check:
            thread_check(runner, wl, data, reference)
        metrics = end_to_end_metrics(samples, per_stage, setup_times, qualities[0], runner)
        extra = {"stage_samples_s": per_stage}
    # Each timing metric is the median of its samples; with this few, no
    # percentile above the median has ten samples beyond it.
    detail = {"environment": environment(), "setup_samples_s": setup_times,
              "chain_samples": samples, "quality": qualities[0], **extra,
              "failures": runner.failures, "error_rate": runner.failed / runner.attempted}
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the lir CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lir" / "cli.py").is_file():
        print(f"error: no lir sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
