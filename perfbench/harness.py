"""One workload run: set-ups, the pinned-seed quality operation, then timed
operations for a fixed time, alternating untraced and traced blocks when
tracing."""

import os
import resource
import shutil
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def tail(latencies_ms):
    """(percentile, value in ms) for the highest of p99.9, p99, p90 with at
    least ten samples beyond it, or None when there are too few samples."""
    for pct in (99.9, 99.0, 90.0):
        if latencies_ms.size * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(latencies_ms, pct))
    return None


def as_ms(latencies_ns):
    return np.frombuffer(latencies_ns, dtype=np.int64) / 1e6


def gated_ms(block_ms, percentile):
    """The gated latency: the workload's declared percentile of its block
    medians (see ``latency_percentile`` on each workload). A block is
    ``median_block`` consecutive operations: one for train-desk and
    evaluate-cli, one pass over every input class (50 calls) for
    edit-single, so each block median is a typical call.

    The shared 2-core box this was tuned on runs 35 to 60% slower for
    stretches of under a second to over half a minute while other tenants
    load the host (thread CPU time slows with wall time, steal time stays 0,
    idle gaps between operations do not help). Blocks much shorter than
    those stretches (edit-single's, about 3 ms) see uncontended windows in
    most runs, so the fastest of their medians follows the code;
    operations of a second or more (train-desk, evaluate-cli) rarely run
    uncontended, so their median is the steadier figure."""
    return float(np.percentile(block_ms, percentile))


def run_workload(name, seed, seconds, trace, scale_name="desk", out_dir=OUT_DIR):
    """Run one workload in this process and return its result dict; the
    benchmark runs the desk scale, its tests the tiny one."""
    scale = workloads.SCALES[scale_name]
    work_dir = out_dir / f"work-{name}-{os.getpid()}"
    wl = workloads.make(name, scale, seed, work_dir)
    tracer = tracing.Tracer() if trace else None
    try:
        setup_s = []
        for i in range(wl.setup_repeats):
            if tracer:
                tracer.op = -1 - i
                tracer.install()
            t0 = perf_counter()
            state = wl.setup()
            setup_s.append(perf_counter() - t0)
            if tracer:
                tracer.uninstall()

        try:
            quality_ok, quality = wl.quality(state)
            failures = [] if quality_ok else ["pinned-seed quality operation failed"]
        except Exception as exc:  # counted as a failed operation, not fatal
            quality, failures = {}, [f"pinned-seed quality operation: {exc!r}"]
        quality = {key: quality.get(key) for key in workloads.QUALITY_KEYS}
        attempted = 1
        plain, traced, traced_ops = array("q"), array("q"), []
        plain_blocks, traced_blocks = array("d"), array("d")
        first, block = 0, 0
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            tracing_now = tracer is not None and block % 2 == 1
            if tracing_now:
                tracer.install()
            results = wl.run_block(state, first,
                                   tracer.set_op if tracing_now else _no_mark)
            if tracing_now:
                tracer.uninstall()
                traced_ops.extend(range(first, first + len(results)))
            ns = [ns for ns, _ in results]
            (traced if tracing_now else plain).extend(ns)
            (traced_blocks if tracing_now else plain_blocks).extend(
                float(np.median(ns[j:j + wl.median_block])) / 1e6
                for j in range(0, len(ns), wl.median_block))
            failures += wl.check(state, [out for _, out in results])
            attempted += len(results)
            first += len(results)
            block += 1
    finally:
        if tracer and tracer.installed:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    plain_ms = as_ms(plain)
    gated = gated_ms(plain_blocks, wl.latency_percentile)
    p50_ms = float(np.median(plain_ms))
    stats = {
        "samples": plain_ms.size,
        "gated_percentile": wl.latency_percentile,
        "blocks": len(plain_blocks),
        "block_ops": plain_ms.size // max(len(plain_blocks), 1),
        "floor_ms": {f"p{p:g}": float(np.percentile(plain_ms, p)) for p in (0.1, 1)},
        "op_latency_ms_p50": p50_ms,
        "tail": tail(plain_ms),
        "rows_per_s_at_p50": wl.rows_per_op() / (p50_ms / 1e3),
        "setup_s_each": setup_s,
        "failures": failures[:5],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    np.save(out_dir / f"latency-ms-{name}-seed{seed}-trace{trace}.npy", plain_ms)
    if trace:
        cols = tracer.spans()
        tracer.write(out_dir / f"trace-{name}-seed{seed}.npz")
        agg = tracing.aggregate(cols)
        metrics = tracing.layer_metrics(agg, wl.setup_repeats, len(traced_ops))
        metrics["trace.overhead_ratio"] = (
            gated_ms(traced_blocks, wl.latency_percentile) / gated)
        expected = wl.expected_spans()
        span_problems = (
            tracing.check_span_counts(cols, expected["op"], traced_ops)
            + tracing.check_span_counts(cols, expected["op_at_least"], traced_ops,
                                        at_least=True)
            + tracing.check_span_counts(cols, expected["setup"],
                                        range(-wl.setup_repeats, 0)))
        stats["traced_samples"] = len(traced)
        stats["span_check"] = span_problems[:5] or "ok"
    else:
        metrics = dict(quality, setup_s=float(np.median(setup_s)),
                       op_latency_ms=gated,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        span_problems = []
    failed = len(failures)
    return {
        "workload": name,
        "correct": failed == 0 and not span_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "stats": stats,
    }


def _no_mark(i):
    pass
