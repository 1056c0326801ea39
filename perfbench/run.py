"""Benchmark of the sparse-curves command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from any directory of a checkout; the package is taken from the
checkout's `src/`, and inputs and outputs go to `.perfbench-work/`.

One run sets the workload up several times (inputs, references, one small
warm-up invocation) and then runs passes over the workload's operations, one
child process at a time, while the next pass is expected to end within
--seconds (at least one pass).  Each operation is checked against its
reference after the pass, outside the timing.

--trace 0 times `python -m sparsecurves.cli` children and reports the
end-to-end metrics.  --trace 1 runs the same operations through tracer.py,
which wraps each layer's public functions in-process, and reports per-layer
metrics from the spans.  --all runs every workload both ways and prints every
metric together with the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  An operation fails when its exit code is not 0, its stderr holds a
traceback, or its output check does not hold; `correct` is false only when an
operation that completed gave a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACER = Path(__file__).resolve().with_name("tracer.py")
SPAWNER = Path(__file__).resolve().with_name("spawner.py")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "doc_bytes": "bytes"}
FIELD_UNITS = {
    "self_s": "s",
    "calls": "count",
    "pairs": "count",
    "word_sets": "count",
    "curves": "count",
    "bytes": "bytes",
    "rss_rise_mb": "MB",
    "settled_digits": "digits",
}


class BenchError(Exception):
    pass


@dataclass
class OpRun:
    command: str
    label: str  # the CLI arguments, for failure reports
    wall_s: float
    peak_rss_mb: float
    doc_bytes: int
    problems: list[str]  # why the op failed; empty when it did not
    wrong: bool  # the op completed but its output check did not hold


@dataclass
class Pass:
    wall_s: float
    ops: list[OpRun]
    spans: list[list[dict]] = field(default_factory=list)  # one span list per op

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the program's own int-to-str limit is part of what is measured
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


class Spawner:
    """Runs children one at a time through spawner.py.

    A child's ru_maxrss counts the high-water RSS of the process it was
    spawned from, so children are started from that small process rather than
    from this one; the rusage os.wait4 returns there is each child's own.
    (RUSAGE_CHILDREN would give the largest peak of every child reaped so far.)
    """

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, str(SPAWNER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
            start_new_session=True,  # its own process group, so an abort can end the child too
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the whole group has ended already
                pass
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait()

    def run(self, argv: list[str], work: Path) -> tuple[int, float, float, str, str]:
        """Run one child to completion: exit code, wall s, peak RSS MB, stdout, stderr."""
        out_path, err_path = work / ".stdout", work / ".stderr"
        request = {"argv": argv, "cwd": str(work), "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"spawner.py ended with exit code {self.proc.wait()}")
        reply = json.loads(line)
        return (
            reply["exit"],
            reply["wall_s"],
            reply["maxrss_kb"] / 1024,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )


def setup(workload, work: Path, seed: int, spawner: Spawner) -> list:
    """Fresh work directory, inputs and references, then one warm-up invocation."""
    from workloads import WARMUP_ARGS

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workload.prepare(work, seed)
    code, _, _, _, err = spawner.run([sys.executable, "-m", "sparsecurves.cli", *WARMUP_ARGS], work)
    if code != 0:
        raise BenchError(f"warm-up invocation exited {code}: {err.strip()[-500:]}")
    return ops


def run_pass(ops: list, work: Path, trace: bool, spawner: Spawner) -> Pass:
    for op in ops:
        for name in op.writes:
            (work / name).unlink(missing_ok=True)
    spans_files = [work / f"spans-{i}.json" for i in range(len(ops))]
    for path in spans_files:
        path.unlink(missing_ok=True)

    children = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if trace:
            argv = [sys.executable, str(TRACER), spans_files[i].name, str(i), "--", *op.args]
        else:
            argv = [sys.executable, "-m", "sparsecurves.cli", *op.args]
        children.append(spawner.run(argv, work))
    wall = time.perf_counter() - start

    runs = []
    for op, (code, op_wall, rss, out, err) in zip(ops, children):
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if "Traceback (most recent call last)" in err:
            problems.append("traceback: " + err.strip().splitlines()[-1][:200])
        wrong = False
        if not problems:
            check_problems = op.check(out, work)
            wrong = bool(check_problems)
            problems.extend(check_problems)
        doc_bytes = sum((work / n).stat().st_size for n in op.writes if (work / n).exists())
        label = " ".join(op.args)
        runs.append(OpRun(op.command, label, op_wall, rss, doc_bytes, problems, wrong))

    spans = []
    if trace:
        for path in spans_files:
            spans.append(json.loads(path.read_text(encoding="utf-8")) if path.exists() else [])
    return Pass(wall, runs, spans)


def layer_metrics(spans_per_op: list[list[dict]]) -> dict[str, float]:
    """Per-layer figures of one pass: self time, calls and counters by span name."""
    from tracer import EXACTINT_FUNCTIONS, LAYER_FIELDS

    agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for spans in spans_per_op:
        child_ns = [0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        for span, children in zip(spans, child_ns):
            fields = agg[span["name"]]
            fields["self_s"] += (span["end_ns"] - span["start_ns"] - children) / 1e9
            fields["calls"] += 1
            for key in ("pairs", "word_sets", "curves", "bytes"):
                fields[key] += span.get(key, 0)
            for key in ("rss_rise_mb", "settled_digits"):
                fields[key] = max(fields[key], span.get(key, 0))

    metrics = {}
    for name, wanted in LAYER_FIELDS.items():
        for key in wanted:
            value = agg[name][key] if name in agg else 0
            metrics[f"{name}.{key}"] = value if key in ("self_s", "rss_rise_mb") else int(value)
    metrics["exactint.self_s"] = sum(agg[n]["self_s"] for n in EXACTINT_FUNCTIONS if n in agg)
    return metrics


def layer_units() -> dict[str, str]:
    from tracer import LAYER_FIELDS

    units = {f"{name}.{key}": FIELD_UNITS[key] for name, keys in LAYER_FIELDS.items() for key in keys}
    units["exactint.self_s"] = "s"
    units["trace.pass_s"] = "s"
    return units


@dataclass
class RunResult:
    workload: object  # workloads.Workload
    seed: int
    trace: bool
    passes: list[Pass]
    setup_s: list[float]

    @property
    def attempted(self) -> int:
        return sum(len(p.ops) for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    @property
    def correct(self) -> bool:
        return not any(op.wrong for p in self.passes for op in p.ops)

    def metrics(self) -> dict[str, float]:
        """The metrics of this run: end-to-end untraced, per-layer traced; medians over passes."""
        if self.trace:
            per_pass = [layer_metrics(p.spans) for p in self.passes]
            values = {k: _median(m[k] for m in per_pass) for k in per_pass[0]}
            values["trace.pass_s"] = statistics.median(p.wall_s for p in self.passes)
            return values
        return {
            "pass_s": statistics.median(p.wall_s for p in self.passes),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(max(op.peak_rss_mb for op in p.ops) for p in self.passes),
            "doc_bytes": statistics.median_low(sum(op.doc_bytes for op in p.ops) for p in self.passes),
        }

    def command_seconds(self) -> dict[str, float]:
        """Median per pass of the wall time spent in each CLI command."""
        commands = sorted({op.command for p in self.passes for op in p.ops})
        return {
            f"{c}_s": statistics.median(sum(op.wall_s for op in p.ops if op.command == c) for p in self.passes)
            for c in commands
        }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> RunResult:
    work = WORK / workload.name
    setup_s = []
    passes: list[Pass] = []
    with Spawner() as spawner:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = setup(workload, work, seed, spawner)
            setup_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, work, trace, spawner))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
                break
    return RunResult(workload, seed, trace, passes, setup_s)


def describe(result: RunResult) -> list[str]:
    """Human-readable lines: every metric by name with its unit, and the failures."""
    workload = result.workload
    mode = "traced" if result.trace else "untraced"
    seed = f", seed {result.seed}" if workload.uses_seed else ""
    lines = [
        f"# {workload.name} ({mode}{seed}): {workload.size}",
        f"# {len(result.passes)} pass(es), {result.attempted} ops attempted",
    ]
    units = layer_units() if result.trace else END_TO_END_UNITS
    for name, value in result.metrics().items():
        lines.append(f"{name} = {_fmt(value)} {units[name]}")
    if not result.trace:
        for name, value in result.command_seconds().items():
            lines.append(f"{name} = {_fmt(value)} s")
    lines.append(
        f"fail_frac = {result.failed}/{result.attempted} ops "
        f"= {result.failed / result.attempted:.4g}"
    )
    seen = set()
    for p in result.passes:
        for op in p.ops:
            if op.problems and op.label not in seen:
                seen.add(op.label)
                lines.append(f"failed `{op.label}`: {'; '.join(op.problems)}")
    return lines


def _median(values):
    """Median; of whole numbers, the lower middle value, so counts stay whole."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def result_json(result: RunResult) -> str:
    units = layer_units() if result.trace else END_TO_END_UNITS
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics().items()},
        }
    )


def run_all(seed: int, seconds: float) -> None:
    import mpmath
    from workloads import WORKLOADS

    print(f"# machine: nproc={os.cpu_count()} python={sys.version.split()[0]} mpmath={mpmath.__version__}")
    rows = []
    for name, workload in WORKLOADS.items():
        plain = run_workload(workload, seed, seconds, trace=False)
        traced = run_workload(workload, seed, seconds, trace=True)
        for line in describe(plain) + describe(traced):
            print(line)
        overhead = traced.metrics()["trace.pass_s"] - plain.metrics()["pass_s"]
        print(f"trace_overhead_s = {overhead:.6g} s (traced pass_s - untraced pass_s)")
        rows.append((name, plain, overhead))
    print("# summary (medians over passes)")
    header = ["workload", *END_TO_END_UNITS, "construct_s", "verify_s", "bounds_s", "fail_frac", "trace_overhead_s"]
    print(" | ".join(header))
    for name, plain, overhead in rows:
        m, c = plain.metrics(), plain.command_seconds()
        cells = [name, *(f"{m[k]:.4g} {u}" for k, u in END_TO_END_UNITS.items())]
        cells += [f"{c[k]:.4g} s" if k in c else "-" for k in ("construct_s", "verify_s", "bounds_s")]
        cells += [f"{plain.failed}/{plain.attempted}", f"{overhead:+.4g} s"]
        print(" | ".join(cells))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    # end through SystemExit, so that the spawner and its child are stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "sparsecurves" / "cli.py").is_file():
        print(f"error: no sparsecurves package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)  # references are compared in full
    from workloads import WORKLOADS

    try:
        if args.all:
            run_all(args.seed, args.seconds)
            return 0
        if args.workload not in WORKLOADS:
            print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in describe(result):
        print(line)
    print(result_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
