#!/usr/bin/env python3
"""conic-lab benchmark.

    python3 perfbench/run.py --workload scan|smallest|verify|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a conic-lab checkout; the program is imported from its
``src/``. Load model: a closed loop with one caller. The workload's jobs run
back to back in this one interpreter, each driven in process through
``conic_lab.cli.run(argv)``; passes over the job list repeat for
``--seconds`` seconds. Outputs are checked after the timed passes (see
checks.py); fail_frac, failed over attempted invocations, is printed with
the metrics and carried by the ``failed`` and ``attempted`` keys.

Times are best-of-repeats: a job's time is the fastest of its repeats in the
run. On a shared 2-vCPU Xeon host, speed drifts by tens of percent over
seconds (a fixed 200k-iteration Python loop timed for 60 s read 14-54 ms,
with 5-second medians from 16 to 23 ms), so a job's fastest repeat is much
steadier than its mean or median.

``--trace 0`` prints the end-to-end metrics: wall_s and cpu_s, the job
list's time as the sum of its jobs' best wall and CPU times; query_p50_s
and query_p80_s, quantiles of the jobs' best latencies; setup_s, the best
of one fresh-interpreter start-up per pass; and peak_rss_mb of this
process. ``--trace 1`` alternates traced and untraced passes and prints the
per-layer metrics (see tracing.py) and the tracing overhead, traced minus
untraced wall time. ``--workload all`` runs the three workloads one after
another, each in a fresh interpreter.

Each run writes a record (environment, samples, metrics) and, when traced,
its spans to perfbench/results/. The last line of stdout is a JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("scan", "smallest", "verify")
MIN_ROUNDS = 2
# One fresh interpreter that imports conic_lab and builds the CLI parser.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import conic_lab.cli as cli; "
    "sys.exit(cli.run(['predict', '--p', '7', '--n', '1', '--coeffs', '1,1,1', '--N', '1', '--dry-run']))"
)


def invoke(cli, argv):
    """One in-process conic-lab call: (wall_s, cpu_s, (exit code, stdout, stderr))."""
    out, err = io.StringIO(), io.StringIO()
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except Exception as exc:  # a traceback is a failed operation, not a benchmark crash
        code = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return wall, cpu, (code, out.getvalue(), err.getvalue())


class Passes:
    """Outputs and per-job (wall_s, cpu_s) repeats of the passes over one job list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.outputs = [[] for _ in jobs]
        self.times = [[] for _ in jobs]
        self.walls = []

    def run(self, cli, tracer=None):
        """Run the job list once."""
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if tracer:
                tracer.job = i
            wall, cpu, result = invoke(cli, job.argv)
            self.outputs[i].append(result)
            self.times[i].append((wall, cpu))
        self.walls.append(time.perf_counter() - start)

    def best(self, which=0):
        """Each job's fastest repeat: index 0 for wall time, 1 for CPU time."""
        return [min(t[which] for t in times) for times in self.times]

    def check(self):
        """Check each job's first output against its oracle; repeats must match it byte for byte."""
        failures = []
        for job, results in zip(self.jobs, self.outputs):
            first = checks.check(job, results[0])
            for k, result in enumerate(results):
                why = first if k == 0 or first else (None if result == results[0] else "differs from pass 1")
                if why:
                    failures.append(f"{' '.join(job.argv)} [pass {k + 1}]: {why}")
        return failures


def spawn_setup():
    """Wall time of one fresh interpreter paying conic-lab's start-up, or a failure string.

    Bytecode is cached under RESULTS whatever PYTHONDONTWRITEBYTECODE says,
    as an installed copy has it, so set-up time does not depend on that setting.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(RESULTS / "pycache")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.startswith("dry-run:"):
        return f"set-up spawn: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return seconds


def quantile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(conic_lab, jobs, seconds):
    """Rounds of one set-up spawn and one pass, for --seconds; times are per-job bests."""
    RESULTS.mkdir(exist_ok=True)
    passes = Passes(jobs)
    spawns = [spawn_setup()]  # fills the bytecode and file caches, as an installed copy has them
    start = time.perf_counter()
    while len(spawns) <= MIN_ROUNDS or time.perf_counter() - start < seconds:
        spawns.append(spawn_setup())
        passes.run(conic_lab.cli)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [s for s in spawns if isinstance(s, str)] + passes.check()
    setup = [s for s in spawns[1:] if not isinstance(s, str)]
    best = passes.best()
    metrics = {
        "wall_s": (sum(best), "s"),
        "cpu_s": (sum(passes.best(1)), "s"),
        "query_p50_s": (quantile(best, 50), "s"),
        "query_p80_s": (quantile(best, 80), "s"),
        "setup_s": (min(setup, default=0.0), "s"),  # 0 only when every spawn failed
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"passes": len(passes.walls), "queries": len(best), "setup_spawns": len(setup)}
    raw = {"pass_wall_s": passes.walls, "job_times_s": passes.times, "setup_s": setup}
    return metrics, samples, raw, failures, len(spawns) + len(jobs) * len(passes.walls), []


def run_traced(conic_lab, jobs, seconds):
    """Alternating traced and untraced passes, for --seconds; per-layer metrics and overhead."""
    tracer = tracing.Tracer()
    traced, untraced = Passes(jobs), Passes(jobs)
    snapshots = []
    start = time.perf_counter()
    while (len(untraced.walls) < MIN_ROUNDS or len(traced.walls) < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        if len(traced.walls) > len(untraced.walls):
            untraced.run(conic_lab.cli)
            continue
        tracer.reset()
        tracer.pass_no = len(traced.walls)
        tracer.install(conic_lab)
        try:
            traced.run(conic_lab.cli, tracer)
        finally:
            tracer.uninstall()
        snapshots.append(tracer.snapshot())
    failures = traced.check() + untraced.check()
    failures += [f"{' '.join(job.argv)}: traced output differs from untraced"
                 for job, a, b in zip(jobs, traced.outputs, untraced.outputs) if a[0] != b[0]]
    per_pass = [tracing.layer_metrics(stats, ctr, wall)
                for (stats, ctr), wall in zip(snapshots, traced.walls)]
    counts = [({q: s[0] for q, s in stats.items()}, ctr) for stats, ctr in snapshots]
    if any(c != counts[0] for c in counts[1:]):
        failures.append("call counts or counters differ between traced passes of the same jobs")
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = sum(traced.best()) - sum(untraced.best())
    metrics = {name: (value, tracing.UNITS[name.split(".", 1)[1]]) for name, value in metrics.items()}
    samples = {"traced_passes": len(traced.walls), "untraced_passes": len(untraced.walls),
               "spans": len(tracer.spans)}
    raw = {"traced_wall_s": traced.walls, "untraced_wall_s": untraced.walls,
           "function_totals": snapshots[0][0], "counters": snapshots[0][1]}
    attempted = len(jobs) * (len(traced.walls) + len(untraced.walls))
    return metrics, samples, raw, failures, attempted, tracer.spans


def environment():
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "commit": git_commit(),
        "source_sha256": hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted((SRC / "conic_lab").glob("*.py")))
        ).hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
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
    return "unknown"


def run_workload(args):
    import conic_lab.cli  # resolved from SRC, which main() checked

    jobs = workloads.jobs_for(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, samples, raw, failures, attempted, spans = runner(conic_lab, jobs, args.seconds)
    failed = min(len(failures), attempted)
    samples["jobs_per_pass"] = len(jobs)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **environment(), "samples": samples,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": failures, "jobs": [" ".join(job.argv) for job in jobs], "raw": raw,
    }
    if spans:
        record["moves"] = tracing.MOVES
        spans_path = RESULTS / f"SPANS_{stem}.jsonl"
        with open(spans_path, "w") as fh:
            for sid, parent, pass_no, job, name, start, end in spans:
                fh.write(json.dumps(dict(id=sid, parent=parent, traced_pass=pass_no, job=job,
                                         name=name, start=start, end=end)) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (RESULTS / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for why in failures:
        print("FAIL", why)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8} {name:28} {value:>16.6g} {unit}")
    print(f"{args.workload:8} {'fail_frac':28} {failed / attempted:>16.6g} 1  ({failed}/{attempted})")
    print(f"{args.workload:8} samples {json.dumps(samples)}")
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in a fresh interpreter; one combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "conic_lab" / "cli.py").is_file():
        sys.exit(f"error: no conic_lab sources under {SRC}; run from a conic-lab checkout")
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
