"""latentaxes benchmark: three closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run sets up its workload several times (the median is
``setup_s``), runs one untimed operation pinned to the acceptance suite's
seeds (its quality figures repeat exactly on every run), then runs timed
operations whose inputs derive from ``--seed`` for ``--seconds`` seconds,
checking every output.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the ``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1``, operations
alternate between untraced and traced, the metrics are the ``per_layer``
ones, and spans are written to ``.perfbench/``. Earlier lines print every
metric with its unit and direction, the latency tail, the sample count and
the environment. The exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1  # on a 2-core box, 2 threads measured no faster on a desk train step
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed, version) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "latentaxes": version,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def format_result(result, spec_metrics) -> dict:
    """The last stdout line: exactly the spec's metrics, with units."""
    values = result["metrics"]
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"workload produced no value for {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }


def report_lines(result, spec_metrics):
    arrow = {"lower": "lower is better", "higher": "higher is better"}
    yield (f"workload {result['workload']}: {result['attempted']} attempted, "
           f"{result['failed']} failed, error_rate "
           f"{result['failed'] / result['attempted']:.4g} (failed/attempted)")
    for m in spec_metrics:
        value = result["metrics"][m["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        yield f"  {m['name']:<44} {shown:>14} {m['unit']:<10} {arrow.get(m.get('better'), '')}"
    stats = result["stats"]
    tail_text = ("too few samples for a tail percentile" if stats["tail"] is None
                 else f"p{stats['tail'][0]:g} {stats['tail'][1]:.6g} ms")
    floors = ", ".join(f"{k} {v:.6g} ms" for k, v in stats["floor_ms"].items())
    yield (f"  latency over {stats['samples']} untraced ops (op_latency_ms is "
           f"p{stats['gated_percentile']:g} of {stats['blocks']} block medians, "
           f"{stats['block_ops']} ops a block): {floors}, p50 "
           f"{stats['op_latency_ms_p50']:.6g} ms, {tail_text}; "
           f"{stats['rows_per_s_at_p50']:.6g} rows/s at p50")
    for failure in stats["failures"]:
        yield f"  failure: {failure}"
    if "span_check" in stats:
        yield f"  span-count self-check: {stats['span_check']}"


def run_all(args, names):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"workload {name} exited with {proc.returncode} and no result",
                  file=sys.stderr)
            return 1
        combined["correct"] &= last["correct"] and proc.returncode == 0
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "latentaxes" / "__init__.py").is_file():
        print(f"no latentaxes sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import latentaxes
    from harness import OUT_DIR, run_workload

    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    env = environment(args.seed, latentaxes.__version__)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, environment=env), indent=2))
    for line in report_lines(result, spec_metrics):
        print(line)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(format_result(result, spec_metrics)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
