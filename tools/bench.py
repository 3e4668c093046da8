"""Run the benchmark in this checkout, or in turn with a second one, and
write every run's end-to-end metrics to ``BENCH_<label>.json`` at the root
of each checkout.

    python3 tools/bench.py --label main --pairs 10 --first-seed 1
    python3 tools/bench.py --label main --against ../parent --pairs 10 \\
        --first-seed 1

Run i (pair i, with ``--against``) runs

    python3 perfbench/run.py --workload all --seed <first-seed + i> \\
        --seconds <run_seconds> --trace 0

in the root of its checkout, so each side runs its own source and its own
benchmark, for the ``run_seconds`` of this checkout's ``BENCHMARK.json``.
With ``--against`` both sides of a pair take the same seed, and the side
that runs first alternates, this checkout first in pair 0. The second
checkout's file is named by the first seven characters of the
``git_commit`` its runs report, so it must be a git checkout. Where the
two checkouts' paths differ in length, a warning naming both lengths goes
to stderr before the first run.

A BENCH file holds the seeds, the run length, the order of the sides, the
``environment`` line of the side's first run, the OpenBLAS core numpy's
bundled library picked (null where the library has no such symbol), each
run's operation counts, and for each workload and end-to-end metric every
run's value, in seed order, with their median and quartiles (the inclusive
method of ``statistics.quantiles``, which is numpy's default percentile).
The files are rewritten after every pair, so an interrupted session keeps
the pairs it finished.

The closing summary prints each workload's metrics: each side's median and
quartiles and, with ``--against``, for each end-to-end metric of
``BENCHMARK.json``, how many pairs this checkout won by its ``better`` (a
tie counts for neither side), the gap between the two medians (positive
where this checkout is better) and the second side's quartile distance.
"""

import argparse
import ctypes
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--workload", "all", "--trace", "0"]


def openblas_core():
    """The core OpenBLAS chose on this machine, read from numpy's bundled
    library, or None where it exports no ``scipy_openblas_get_corename64_``."""
    from numpy._core import _multiarray_umath  # linked against the library

    try:
        get = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()


def run_once(checkout: Path, seed: int, seconds: float):
    """One ``run.py --workload all`` in checkout: its combined result (the
    last stdout line) and its first ``environment`` line."""
    cmd = [sys.executable, *RUN, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        env = next(json.loads(line.removeprefix("environment "))
                   for line in lines if line.startswith("environment "))
    except (IndexError, ValueError, StopIteration):
        sys.exit(f"{checkout}: run.py at seed {seed} exited with "
                 f"{proc.returncode} and no result")
    return result, env


def summary(values):
    """Median and quartiles of the values that are not None."""
    vals = [v for v in values if v is not None]
    if len(vals) < 2:
        mid = vals[0] if vals else None
        return {"median": mid, "q1": mid, "q3": mid}
    q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def pair_verdict(mine, theirs, better):
    """For one metric of two sides' records: the pairs mine won by
    ``better`` ("lower" or "higher"; ties and missing values count for
    neither side), the pairs with both values, the median gap (theirs
    minus mine where lower is better, so positive favours mine) and the
    quartile distance of theirs."""
    def gain(a, b):  # of a over b
        return b - a if better == "lower" else a - b

    pairs = [(a, b) for a, b in zip(mine["values"], theirs["values"])
             if a is not None and b is not None]
    won = sum(gain(a, b) > 0 for a, b in pairs)
    if mine["median"] is None or theirs["median"] is None:
        return won, len(pairs), None, None
    return (won, len(pairs), gain(mine["median"], theirs["median"]),
            theirs["q3"] - theirs["q1"])


def bench_record(label, against, seconds, core, side):
    """The BENCH file of one side, from the runs it has finished."""
    metrics = {}
    for run in side["results"]:
        for key, entry in run["metrics"].items():
            workload, name = key.split(".", 1)
            slot = metrics.setdefault(workload, {}).setdefault(
                name, {"unit": entry["unit"], "values": []})
            slot["values"].append(entry["value"])
    for workload in metrics.values():
        for slot in workload.values():
            slot.update(summary(slot["values"]))
    return {
        "label": label,
        "against": against,
        "command": " ".join(["python3", *RUN, "--seed", "<seed>", "--seconds",
                             str(seconds)]),
        "seconds": seconds,
        "seeds": side["seeds"],
        "ran_first": side["first"],
        "environment": side["environment"],
        "openblas_core": core,
        "runs": [{"seed": seed, "correct": run["correct"],
                  "attempted": run["attempted"], "failed": run["failed"]}
                 for seed, run in zip(side["seeds"], side["results"])],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--against", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label must be a word of letters, digits, '.', '_' "
                     "and '-'")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    for checkout in checkouts:
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")
    lengths = [len(str(checkout)) for checkout in checkouts]
    if len(set(lengths)) > 1:
        print(f"warning: the checkouts' paths are {lengths[0]} and {lengths[1]} "
              "characters long; train-desk's timing has been seen to follow "
              "the path's length, so compare from paths of equal length",
              file=sys.stderr, flush=True)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {metric["name"]: metric["better"]
              for metric in benchmark["end_to_end"]}
    core = openblas_core()
    labels = [args.label]  # the second side's joins after its first run
    sides = [{"seeds": [], "first": [], "results": [], "environment": None}
             for _ in checkouts]
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = list(range(len(checkouts)))
        if i % 2:
            order.reverse()
        for position, s in enumerate(order):
            result, env = run_once(checkouts[s], seed, seconds)
            side = sides[s]
            side["seeds"].append(seed)
            side["first"].append(position == 0)
            side["results"].append(result)
            side["environment"] = side["environment"] or env
            if len(labels) == s:  # this side's first run names it
                if not env["git_commit"]:
                    sys.exit(f"{checkouts[s]} is not a git checkout")
                labels.append(env["git_commit"][:7])
            print(f"pair {i} seed {seed} {labels[s]}: " + ", ".join(
                f"{key} {entry['value']}" for key, entry
                in result["metrics"].items() if key.endswith("op_latency_ms")),
                flush=True)
        against = labels[::-1] if args.against else [None]
        records = [bench_record(*names, seconds, core, side)
                   for *names, side in zip(labels, against, sides)]
        for checkout, label, record in zip(checkouts, labels, records):
            (checkout / f"BENCH_{label}.json").write_text(
                json.dumps(record, indent=2) + "\n")
    for workload, names in records[0]["metrics"].items():
        for name in names:
            line = f"{workload}.{name}: " + "; ".join(
                "{} median {median} [{q1}, {q3}]".format(label, **{
                    key: fmt(value)
                    for key, value in record["metrics"][workload][name].items()
                    if key in ("median", "q1", "q3")})
                for label, record in zip(labels, records))
            if args.against and name in better:
                won, n, gap, spread = pair_verdict(
                    *(record["metrics"][workload][name] for record in records),
                    better[name])
                line += (f"; {labels[0]} won {won} of {n} pairs, median gap "
                         f"{fmt(gap)} in its favour, {labels[1]}'s quartile "
                         f"distance {fmt(spread)}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
