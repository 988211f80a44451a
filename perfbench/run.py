"""Run one coringlab benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coring-build --seed 1 --seconds 25 --trace 0

The workload's commands run in this process through
``coringlab.cli.main``, one after another (a closed loop with one
client), in passes over the command list until ``--seconds`` is used up;
every report is checked against the expected answers in workloads.py.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
loop untraced and then traced, prints the per-layer metrics, and writes
the spans of the set-up and of the first traced pass, with the per-layer
summary, to ``perfbench/_out/trace-<workload>.json``.

The first line of output records the run environment; the last line is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# One BLAS thread, fixed so runs compare: on a 2-core machine a second
# thread bought about 10% on coring-build (see README.md).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60


def pin_environment() -> None:
    """Fix the BLAS thread count and put the checkout's source first.

    Must run before numpy is imported.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_present() -> bool:
    return (SRC / "coringlab" / "cli.py").is_file()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
    }


@dataclass
class Outcome:
    id: str
    seconds: float
    code: int | None
    stdout: str
    error: str = ""


def run_command(cli, cid: str, argv) -> Outcome:
    """One CLI call in process, with its stdout captured and timed."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raised command is a failed command; keep going
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(cid, seconds, code, out.getvalue(), error or err.getvalue().strip())


def check(cmd: workloads.Command, outcome: Outcome) -> list[str]:
    payload = None
    if outcome.stdout:
        try:
            payload = json.loads(outcome.stdout)
        except ValueError:
            pass
    problems = workloads.mismatches(cmd, outcome.code, payload)
    if problems and outcome.error:
        problems.append(outcome.error)
    return problems


def setup(name: str, seed: int, workdir: Path):
    """Import, generate the seeded inputs, load and validate them."""
    import numpy  # noqa: F401  (its import is part of set-up)
    from coringlab import cli
    from coringlab.simplicial import parse_complex

    wl = workloads.build(name, seed, ROOT, workdir)
    if wl.json_inputs:
        outcome = run_command(cli, "setup", ["validate", *wl.json_inputs])
        if outcome.code != 0:
            raise RuntimeError(f"input validation failed: {outcome.error or outcome.stdout}")
    for path in wl.facet_inputs:
        parse_complex(path.read_text(encoding="utf-8"))
    return cli, wl


def measure_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds from SETUP_REPEATS fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), "--workload", name,
                 "--seed", str(seed), "--workdir", tmp],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class Pass:
    wall: float
    outcomes: list
    problems: list = field(default_factory=list)
    trials: int = 0
    spans: list = field(default_factory=list)


def one_pass(cli, wl: workloads.Workload, recorder=None) -> Pass:
    outcomes = []
    start = time.perf_counter()
    for cmd in wl.commands:
        if recorder is not None:
            recorder.command = cmd.id
        outcomes.append(run_command(cli, cmd.id, cmd.argv))
    p = Pass(time.perf_counter() - start, outcomes)
    if recorder is not None:
        p.spans = recorder.take()
    for cmd, outcome in zip(wl.commands, outcomes):
        problems = check(cmd, outcome)
        if problems:
            p.problems.append((cmd.id, problems))
        elif outcome.stdout:
            p.trials += sum(c["detail"].get("trials", 0)
                            for c in json.loads(outcome.stdout)["checks"])
    return p


def run_passes(cli, wl, seconds: float, recorder=None) -> list[Pass]:
    """Closed loop: whole passes back to back until ``seconds`` have passed."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(cli, wl, recorder))
    return passes


def tally(passes: list[Pass]) -> tuple[int, int]:
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    return attempted, failed


def report_problems(passes: list[Pass]) -> None:
    for p in passes:
        for cid, problems in p.problems:
            print(f"FAILED {cid}: {'; '.join(problems)}", file=sys.stderr)


def end_to_end(cli, wl, seconds: float, setup_times: list[float]) -> tuple[dict, list]:
    passes = run_passes(cli, wl, seconds)
    verdicts = [o.seconds for p in passes for o in p.outcomes]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "verdict_s.max": (statistics.median(max(o.seconds for o in p.outcomes)
                                            for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    by_command: dict[str, list] = {}
    for p in passes:
        for o in p.outcomes:
            by_command.setdefault(o.id, []).append(o.seconds)
    print(json.dumps({"perfbench": "samples", "passes": len(passes),
                      "pass_wall_s": [p.wall for p in passes],
                      "verdicts": len(verdicts), "verdict_s_p50": statistics.median(verdicts),
                      "setup_runs": len(setup_times), "setup_s": setup_times,
                      "verdict_s_by_command": {k: statistics.median(v)
                                               for k, v in sorted(by_command.items())}}))
    return metrics, passes


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "workload", "command", "counters")


def span_rows(spans, offset: int, t0: float, workload: str) -> list[list]:
    """Spans as rows of SPAN_FIELDS; times in seconds from the run's start."""
    return [[offset + i, s.name, round(s.start - t0, 7), round(s.end - t0, 7),
             s.parent + offset if s.parent >= 0 else None, workload, s.command, s.counters]
            for i, s in enumerate(spans)]


def per_layer(name: str, seed: int, seconds: float, workdir: Path, env: dict) -> tuple[dict, list]:
    import spans as tracing

    t0 = time.perf_counter()
    recorder = tracing.Recorder()
    recorder.command = "setup"
    with tracing.install(recorder):
        cli, wl = setup(name, seed, workdir)
    setup_spans = recorder.take()
    untraced = run_passes(cli, wl, seconds)
    with tracing.install(recorder):
        traced = run_passes(cli, wl, seconds, recorder)

    summary = tracing.median_metrics([tracing.layer_metrics(p.spans) for p in traced])
    summary["laws.trials"] = statistics.median(p.trials for p in traced)
    setup_self = tracing.self_times(setup_spans)
    for layer in ("schemas.load", "algebras.validate"):
        summary[f"{layer}.self_s"] = sum(t for s, t in zip(setup_spans, setup_self)
                                         if s.name == layer)
    summary["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                      / statistics.median(p.wall for p in untraced) - 1)

    rows = span_rows(setup_spans, 0, t0, name)
    rows += span_rows(traced[0].spans, len(rows), t0, name)
    path = OUT / f"trace-{name}.json"
    path.write_text(json.dumps({"env": env, "workload": name, "seed": seed,
                                "traced_passes": len(traced),
                                "untraced_passes": len(untraced),
                                "summary": summary, "span_fields": SPAN_FIELDS,
                                "spans": rows}), encoding="utf-8")
    print(json.dumps({"perfbench": "trace", "file": str(path.relative_to(ROOT)),
                      "spans": len(rows), "traced_passes": len(traced)}))
    metrics = {k: (v, unit_of(k)) for k, v in summary.items()}
    return metrics, untraced + traced


def unit_of(metric: str) -> str:
    if metric.endswith(("self_s", "total_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if "share." in metric or metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="coringlab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not source_present():
        print(f"perfbench: no coringlab source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_environment()
    OUT.mkdir(exist_ok=True)
    env = run_environment(args.seed)
    print(json.dumps({"perfbench": "env", "workload": args.workload, **env}), flush=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            metrics, passes = per_layer(args.workload, args.seed, args.seconds, Path(tmp), env)
        else:
            setup_times = measure_setup(args.workload, args.seed)
            cli, wl = setup(args.workload, args.seed, Path(tmp))
            metrics, passes = end_to_end(cli, wl, args.seconds, setup_times)
    report_problems(passes)
    attempted, failed = tally(passes)
    print(json.dumps({"perfbench": "failures", "failed_frac": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
