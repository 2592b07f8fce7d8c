"""Measurement loop, metrics and report for one workload run.

Imported by ``run.py`` once it has put this checkout's ``src`` on the path.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads

#: What every CLI call pays before doing work.
IMPORT_STATEMENT = "import qvss, qvss.cli"
#: Fresh interpreters timed per run for setup_s (median reported).
SETUP_SAMPLES = 5
#: Medians of the two reference tasks, in seconds, on a 2-vCPU Intel Xeon
#: VM at 2.1 GHz.  See ``loop_slowdown`` and ``startup_slowdown``.
REFERENCE_S = {"loop": 0.05, "startup": 0.16}
_LOOP_ARRAY = np.linspace(0.0, 1.0, 500_000)
#: ``-X importtime`` runs per traced run (median reported).
IMPORTTIME_SAMPLES = 3
#: Slack for float sums in the layer attribution check.
ATTRIBUTION_TOLERANCE_S = 1e-6

#: Units of the report's rows; BENCHMARK.json gives those of the JSON line.
REPORT_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_wall_s": "s",
    "host_slowdown": "ratio",
    "share_s": "s",
    "recover_s": "s",
    "audit_s": "s",
    "compare_s": "s",
    "pbm_read_s": "s",
    "pbm_write_s": "s",
    "peak_rss_mb": "MiB",
    "share_bytes_per_px": "B/px",
    "session_bytes_per_px": "B/px",
    "bytes_written_per_px": "B/px",
    "fail_ratio": "failed/attempted",
}


def _child(args, env, **kwargs):
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=workloads.CHILD_TIMEOUT_S,
        **kwargs,
    )


# The host's speed swings by up to 1.6x within tens of seconds.  So each
# untraced operation is preceded by a reference task of the same kind that
# runs no qvss code, and its time is divided by how many times slower than
# REFERENCE_S that task ran.  The swing cancels; a change in qvss shows in full.


def loop_slowdown() -> float:
    """Slowdown of a fixed mix of interpreter and numpy work, for in-process passes."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    for _ in range(10):
        np.cumsum(_LOOP_ARRAY * 1.0001)
    return (time.perf_counter() - start) / REFERENCE_S["loop"]


def startup_slowdown(env) -> float:
    """Slowdown of a fresh interpreter importing numpy, for start-up and CLI calls."""
    start = time.perf_counter()
    _child(["-c", "import numpy"], env)
    return (time.perf_counter() - start) / REFERENCE_S["startup"]


def reference(workload, env):
    """The reference task for `workload`'s operations, as a callable."""
    if workload.reference == "startup":
        return lambda: startup_slowdown(env)
    return loop_slowdown


def time_setup(env) -> float:
    """One fresh interpreter's import time, at reference speed."""
    factor = startup_slowdown(env)
    start = time.perf_counter()
    _child(["-c", IMPORT_STATEMENT], env)
    return (time.perf_counter() - start) / factor


def slowdown(p) -> float:
    """How many times slower than the reference host this untraced pass ran."""
    return statistics.fmean(p.slowdowns)


def import_times(env) -> dict:
    """Cumulative import times of numpy, scipy.stats and qvss, from -X importtime."""
    stderr = _child(["-X", "importtime", "-c", IMPORT_STATEMENT], env).stderr
    cumulative = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
    return {
        "cli.import.numpy_s": cumulative["numpy"],
        "cli.import.scipy_stats_s": cumulative["scipy.stats"],
        "cli.import.qvss_s": cumulative["qvss"] + cumulative["qvss.cli"],
    }


def run_passes(workload, inputs, seconds, trace, env):
    """Closed loop: repeat the pass while another is expected to end within `seconds`.

    Traced runs alternate untraced and traced passes, both in-process, and
    run at least one of each.  Untraced runs run the workload's reference
    task before each operation, outside the pass's wall time.  Returns
    (traced, Pass, wall seconds, span summary or None) per pass.
    """
    untraced_reference = None if trace else reference(workload, env)
    tracer = tracing.Tracer()
    records = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        p = workloads.Pass(reference=untraced_reference)
        with tracer if traced else contextlib.nullcontext():
            begin = time.perf_counter()
            with contextlib.suppress(workloads.PassAborted):
                workload.run_pass(p, inputs, in_process=trace)
            wall = time.perf_counter() - begin - p.reference_s
        summary = None
        if traced:
            spans, counts = tracer.take()
            self_s, calls, remainder = tracing.summarize(spans, wall)
            p.check(
                abs(sum(self_s.values()) + remainder - wall) <= ATTRIBUTION_TOLERANCE_S,
                "layer self times plus the remainder sum to the pass wall time",
            )
            summary = (self_s, calls, counts, remainder)
        records.append((traced, p, wall, summary))
        typical = statistics.median(wall for _, _, wall, _ in records)
        if time.perf_counter() - start + typical > seconds and (not trace or len(records) >= 2):
            return records


def end_to_end(workload, records, setup_samples):
    passes = [p for _, p, _, _ in records]
    host_slowdown = statistics.median(map(slowdown, passes))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(wall / slowdown(p) for _, p, wall, _ in records),
    }
    for metric in sorted({m for p in passes for m in p.times}):
        metrics[metric] = statistics.median(
            p.times[metric] / slowdown(p) for p in passes if metric in p.times
        )
    notes = {m: f"median of {len(passes)} passes, at reference speed" for m in metrics}
    notes["setup_s"] = f"median of {len(setup_samples)} fresh interpreters, at reference speed"
    metrics["pass_wall_s"] = statistics.median(wall for _, _, wall, _ in records)
    notes["pass_wall_s"] = f"median of {len(passes)} passes, unscaled"
    metrics["host_slowdown"] = host_slowdown
    notes["host_slowdown"] = f"{workload.reference} reference task, median of passes"
    sizes = next((p.sizes for p in reversed(passes) if p.sizes), {})
    metrics.update(sizes)
    notes.update(dict.fromkeys(sizes, "exact, per pass"))
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    notes["peak_rss_mb"] = "peak of the child processes" if workload.in_children else "process peak"
    return metrics, notes


def per_layer(records, imports):
    untraced = [wall for traced, _, wall, _ in records if not traced]
    traced = [(p, wall, summary) for is_traced, p, wall, summary in records if is_traced]
    names = [tracing.span_name(m, f) for m, fs in tracing.TRACED.items() for f in fs]

    def counts_of(summary):
        _, calls, counts, _ = summary
        exact = {f"{name}.calls": calls.get(name, 0) for name in names}
        exact.update({name: counts.get(name, 0) for name in tracing.COUNT_NAMES})
        return exact

    first = counts_of(traced[0][2])
    for p, _, summary in traced:
        p.check(counts_of(summary) == first, "calls and byte counts repeat in every traced pass")
    metrics = dict(first)
    registers = metrics["protocol.session.registers"]
    metrics["protocol.session.distinct_ratio"] = (
        metrics["protocol.session.distinct_registers"] / registers if registers else 0.0
    )
    for name in names:
        metrics[f"{name}.self_s"] = statistics.median(s[0].get(name, 0.0) for _, _, s in traced)
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}.share"] = statistics.median(
            sum(v for k, v in s[0].items() if k.startswith(layer + ".")) / wall
            for _, wall, s in traced
        )
    metrics["layer.bench.share"] = statistics.median(s[3] / wall for _, wall, s in traced)
    traced_wall = statistics.median(wall for _, wall, _ in traced)
    untraced_wall = statistics.median(untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    for key in imports[0]:
        metrics[key] = statistics.median(sample[key] for sample in imports)
    notes = {m: f"median of {len(traced)} traced passes" for m in metrics}
    notes.update({m: "exact count per pass" for m in first})
    notes.update({m: f"median of {len(imports)} -X importtime runs" for m in imports[0]})
    notes["trace.overhead_s"] = f"{len(traced)} traced vs {len(untraced)} untraced passes"
    notes["trace.overhead_ratio"] = notes["trace.overhead_s"]
    return metrics, notes


def report(args, workload, records, metrics, notes, spec_metrics):
    passes = [p for _, p, _, _ in records]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload} (seed {args.seed}): {workload.describe(args.tiny)}")
    print(
        f"closed loop, one client, no extra threads: {len(records)} passes"
        + (", alternating untraced and traced" if args.trace else "")
    )
    print(f"{'metric':<48}{'value':>16}  {'unit':<18}note")
    if args.trace:
        rows = [(m, spec_metrics[m]["unit"]) for m in sorted(spec_metrics)]
    else:
        rows = list(REPORT_UNITS.items())
    for metric, unit in rows:
        if metric == "fail_ratio":
            value, note = f"{failed}/{attempted}", f"{failed / attempted:.4f}"
        elif metric in metrics:
            value, note = f"{metrics[metric]:.6g}", notes.get(metric, "")
        else:
            value, note = "n/a", "not part of this workload"
        print(f"{metric:<48}{value:>16}  {unit:<18}{note}")
    checks = sum(p.checks for p in passes)
    print(f"output checks: {checks} run, {sum(p.checks_failed for p in passes)} failed")
    for error in [e for p in passes for e in p.errors][:10]:
        print(f"  {error}")
    return attempted, failed


def run(args, spec_metrics, workdir) -> dict:
    """Run one workload as `args` ask; print the report and return the result."""
    workload = workloads.WORKLOADS[args.workload]
    env = workloads.child_env()
    inputs = workload.prepare(args.seed, args.tiny, workdir)
    if args.trace:
        imports = [import_times(env) for _ in range(1 if args.tiny else IMPORTTIME_SAMPLES)]
        records = run_passes(workload, inputs, args.seconds, trace=True, env=env)
        metrics, notes = per_layer(records, imports)
    else:
        setup = [time_setup(env) for _ in range(1 if args.tiny else SETUP_SAMPLES)]
        records = run_passes(workload, inputs, args.seconds, trace=False, env=env)
        metrics, notes = end_to_end(workload, records, setup)
    attempted, failed = report(args, workload, records, metrics, notes, spec_metrics)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": m["unit"]} for name, m in spec_metrics.items()
        },
    }
