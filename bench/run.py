"""Benchmark runner for the kerndebias CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It generates the workload's
inputs from the seed, runs each stage as ``python -m kerndebias.cli`` in
its own child process (wall time, and peak RSS and CPU time read with
``os.wait4``), checks every output against properties of the planted
bias, and prints one JSON object as the last line of standard output.

--trace 0 runs the whole stage sequence again and again while the next
pass still ends within S seconds (at least three passes).  Between
stages it times a fixed pure-Python loop, the speed probe, and scales
each stage's wall time by the probe time around it to the reference
speed; each end-to-end timing is a sum over stages of the median of
those scaled times over the passes.  --trace 1 runs each stage untraced
and then under bench/tracing.py, and reports the per-layer metrics.  See
bench/README.md.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {"OPENBLAS_NUM_THREADS": str(NPROC), "OMP_NUM_THREADS": str(NPROC)}
os.environ.update(THREAD_ENV)  # before numpy loads BLAS, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from gen import generate  # noqa: E402
from workloads import EVAL_KINDS, WORKLOADS, Stage  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # the whole run, child processes included
MIN_REPEATS = 3
MAX_REPEATS = 30
PROBE_LOOPS = 300_000
# The probe's median time on the reference host (2 vCPUs of an Intel Xeon
# under KVM, Python 3.11).  Scaled timings are seconds at that speed.
PROBE_REF_S = 0.025

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

STAGE_KINDS = ("fit", "apply", "sim", "weat", "professions", "simlex", "classify", "toy")

PER_LAYER = {
    "embeddings.parse.s": "s",
    "embeddings.parse.rows": "count",
    "embeddings.parse.mb": "MB",
    "embeddings.unit_normalize.s": "s",
    "embeddings.write.s": "s",
    "embeddings.write.mb": "MB",
    "numerics.symmetric_eig.s": "s",
    "numerics.symmetric_eig.calls": "count",
    "numerics.symmetric_eig.n_max": "count",
    "linear.fit_linear_subspace.s": "s",
    "linear.neutralize_matrix.s": "s",
    "linear.equalize_set.s": "s",
    "linear.equalize_set.calls": "count",
    "kernels.gram_matrix.s": "s",
    "kernels.gram_matrix.calls": "count",
    "kernels.gram_matrix.entries": "count",
    "kernels.gram_matrix.diff_mb": "MB",
    "kernels.kernel_diag.s": "s",
    "rkhs.fit_kernel_model.s": "s",
    "rkhs.beta_matrix.s": "s",
    "rkhs.beta_matrix.calls": "count",
    "rkhs.beta_matrix.rows": "count",
    "rkhs.beta_matrix.rows_per_word": "ratio",
    "rkhs.corrected.s": "s",
    "rkhs.corrected.calls": "count",
    "preimage.fit_preimage_map.s": "s",
    "preimage.preimage_neutralize_matrix.s": "s",
    "evaluation.backend_init.s": "s",
    "evaluation.similarity.s": "s",
    "evaluation.similarity.calls": "count",
    "evaluation.similarity_row.s": "s",
    "evaluation.similarity_row.calls": "count",
    "evaluation.similarity_row.candidates": "count",
    "evaluation.professions_correlation.s": "s",
    "evaluation.weat_test.s": "s",
    "evaluation.svm_train.s": "s",
    "evaluation.svm_accuracy.s": "s",
    "evaluation.svm_kernel.calls": "count",
    "evaluation.svm_kernel.entries": "count",
    "toydemo.run_toy_demo.s": "s",
    "cli.main.s": "s",
    "process.cpu_s": "s",
    **{f"rss.{kind}_mb": "MB" for kind in STAGE_KINDS},
    "trace.overhead_s": "s",
}


@dataclass
class StageRun:
    stage: Stage
    wall_s: float = 0.0
    scaled_s: float = 0.0  # wall_s at the reference host speed
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None
    spans: Path | None = None


def log_path(stage: Stage, suffix: str) -> Path:
    """Where a stage's stdout, stderr or spans go: beside its outputs."""
    return stage.output.parent / f"{stage.label}.{suffix}"


class Runner:
    """Runs stages one at a time in child processes, within one deadline."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, stage: Stage, traced: bool) -> StageRun:
        result = StageRun(stage)
        if traced:
            result.spans = log_path(stage, "spans.json")
            command = [sys.executable, str(BENCH_DIR / "tracing.py"), str(result.spans), "--"]
        else:
            command = [sys.executable, "-m", "kerndebias.cli"]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            result.error = "not started: run time limit reached"
            return result
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(log_path(stage, "stdout")), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(log_path(stage, "stderr")), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, command + list(stage.argv), self.env,
                             file_actions=actions)
        timer = threading.Timer(remaining, _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            _kill(pid)
            os.wait4(pid, 0)
            raise
        finally:
            timer.cancel()
        result.wall_s = time.perf_counter() - start
        result.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
        result.cpu_s = usage.ru_utime + usage.ru_stime
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            result.error = f"exit code {code}"
        return result


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Runner.run, which stops the child


def check_runs(runs: list[StageRun], inputs) -> None:
    """Set run.error for each stage whose output fails its property check."""
    payloads = {}
    for run in runs:
        if run.error is None:
            try:
                payloads[run.stage.label] = checks.load_output(
                    run.stage, log_path(run.stage, "stderr"))
            except (OSError, ValueError, KeyError) as exc:
                run.error = f"unreadable output: {exc}"
    raw = {run.stage.kind: payloads.get(run.stage.label)
           for run in runs if run.stage.backend == "raw"}
    for run in runs:
        if run.error is None:
            try:
                run.error = checks.check(run.stage, inputs, payloads[run.stage.label],
                                         raw.get(run.stage.kind))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                run.error = f"malformed output: {exc!r}"


def probe() -> float:
    """Time a fixed pure-Python loop: how fast the host runs code right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def _sum(runs: list[StageRun], kinds) -> float:
    return sum(r.wall_s for r in runs if r.stage.kind in kinds)


def end_to_end(repeats: list[list[StageRun]]) -> tuple[dict, dict]:
    """The gated metrics, and the per-stage-kind table kept in the report.

    Each stage's time is the median over the passes of its scaled time,
    and each timing sums those medians over the stages it covers; setup_s
    is the one-pair sim's.  The CPU speed this benchmark gets on a shared
    host drifts by up to 60% over seconds to minutes, for the program and
    the probe alike, so scaling by the probe keeps the drift out of the
    metrics while every change in the program's own work stays in.
    """
    scaled: dict[str, list[float]] = {}
    kind_of: dict[str, str] = {}
    for runs in repeats:
        for run in runs:
            scaled.setdefault(run.stage.label, []).append(run.scaled_s)
            kind_of[run.stage.label] = run.stage.kind

    def median(kinds) -> float:
        return sum(statistics.median(values) for label, values in scaled.items()
                   if kind_of[label] in kinds)

    every = [r for runs in repeats for r in runs]
    metrics = {
        "wall_s": median(STAGE_KINDS),
        "setup_s": median({"sim"}),
        "eval_s": median(EVAL_KINDS),
        "peak_rss_mb": max(r.rss_mb for r in every),
    }
    kinds = set(kind_of.values())
    table = {f"{kind}_s": median({kind}) for kind in STAGE_KINDS if kind in kinds}
    table["passes"] = len(repeats)
    table["unscaled_wall_s"] = statistics.median(_sum(runs, STAGE_KINDS) for runs in repeats)
    return metrics, table


def per_layer(plain: list[StageRun], traced: list[StageRun]) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and each module's share of self time."""
    documents = []
    for run in traced:
        if run.spans is not None and run.spans.exists():
            documents.append(json.loads(run.spans.read_text(encoding="utf-8")))
    summary = tracing.summarize(documents)
    metrics = {name: float(summary.get(name, 0.0)) for name in PER_LAYER}
    metrics["process.cpu_s"] = sum(r.cpu_s for r in traced)
    for kind in STAGE_KINDS:
        metrics[f"rss.{kind}_mb"] = max((r.rss_mb for r in traced if r.stage.kind == kind),
                                        default=0.0)
    metrics["trace.overhead_s"] = _sum(traced, STAGE_KINDS) - _sum(plain, STAGE_KINDS)
    self_time: dict[str, float] = {}
    for name, value in summary.items():
        if name.endswith(".s"):
            module = name.split(".", 1)[0]
            self_time[module] = self_time.get(module, 0.0) + value
    total = sum(self_time.values()) or 1.0
    shares = {m: round(v / total, 4) for m, v in sorted(self_time.items(), key=lambda kv: -kv[1])}
    missing = sorted({m for doc in documents for m in doc.get("missing", [])})
    return metrics, {"self_time_share": shares, "untraced_targets": missing}


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "git_commit": _git_commit(root),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    signal.signal(signal.SIGTERM, _terminate)

    root = Path.cwd()
    if not (root / "src" / "kerndebias" / "cli.py").is_file():
        print(f"error: no kerndebias source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    sizes = workload.sizes[args.size]
    bench_work = root / ".bench_work"
    work = bench_work / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        inputs = generate(work / "inputs", args.seed, sizes.n_words, sizes.dim,
                          sizes.n_professions, sizes.n_simlex)
        runner = Runner(root, deadline)

        def stages(out: Path) -> list[Stage]:
            out.mkdir()
            return workload.stages(inputs, out, args.seed, sizes)

        def run_sequence(out: Path) -> list[StageRun]:
            runs, probes = [], [probe()]
            for stage in stages(out):
                runs.append(runner.run(stage, traced=False))
                probes.append(probe())
            for run, before, after in zip(runs, probes, probes[1:]):
                run.scaled_s = run.wall_s * PROBE_REF_S / ((before + after) / 2.0)
            check_runs(runs, inputs)
            return runs

        report: dict = {}
        if args.trace:
            # Each stage runs untraced and then traced, back to back, so
            # the overhead compares the two under the same machine load.
            plain, traced = [], []
            for stage, twin in zip(stages(work / "plain"), stages(work / "traced")):
                plain.append(runner.run(stage, traced=False))
                traced.append(runner.run(twin, traced=True))
            check_runs(plain, inputs)
            check_runs(traced, inputs)
            runs = plain + traced
            metrics, report["layers"] = per_layer(plain, traced)
            units = PER_LAYER
        else:
            repeats: list[list[StageRun]] = []
            measured = time.perf_counter()
            while len(repeats) < MAX_REPEATS:
                elapsed = time.perf_counter() - measured
                if len(repeats) >= MIN_REPEATS and (
                    elapsed * (len(repeats) + 1) / len(repeats) > args.seconds
                ):
                    break
                repeats.append(run_sequence(work / f"repeat-{len(repeats)}"))
            runs = [r for rep in repeats for r in rep]
            metrics, report["stage_kinds"] = end_to_end(repeats)
            units = END_TO_END
        failed = sum(1 for r in runs if r.error is not None)
        report.update(
            workload=workload.name,
            seed=args.seed,
            trace=args.trace,
            size=args.size,
            sizes=sizes.__dict__,
            environment=environment(root),
            error_rate=failed / len(runs),
            stages=[
                {"label": r.stage.label, "kind": r.stage.kind, "backend": r.stage.backend,
                 "traced": r.spans is not None, "wall_s": r.wall_s, "scaled_s": r.scaled_s,
                 "rss_mb": r.rss_mb, "cpu_s": r.cpu_s, "error": r.error}
                for r in runs
            ],
        )
        results = bench_work / "results"
        results.mkdir(parents=True, exist_ok=True)
        report_text = json.dumps(report)
        (results / f"{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
            report_text + "\n", encoding="utf-8")
        for run in runs:
            if run.error:
                print(f"stage {run.stage.label} failed: {run.error}", file=sys.stderr)
        print(report_text)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
