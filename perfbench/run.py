"""Benchmark runner for zerolen: run a workload, check its results, print its metrics.

    python3 perfbench/run.py --workload soundness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each repetition of a workload is one fresh, single-threaded Python process
(perfbench/rep.py) importing zerolen from the checkout's ``src``, so no module
cache carries over from one repetition to the next.  Repetitions run one
after another, never two at once, and a new one starts only while it is
expected to end within ``--seconds``.  With ``--trace 0`` at least three
plain (untraced) repetitions run; with ``--trace 1`` at least one plain, one
traced and one memory repetition (see tracer.py).  Reported values are
medians over the repetitions.  Set-up time also takes samples from processes
that only import zerolen, and is reported as the fastest sample: contention
on a shared host only ever adds to it.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics and
``trace_overhead_frac``, the traced repetitions' extra wall time over the
plain ones.  ``--workload all`` runs every workload in
turn, prints one table per workload, and ends with one JSON object keyed by
workload.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, declared_metrics  # noqa: E402

WORKLOADS = ("soundness", "invariants", "witness", "numerical")
# durations other than set-up are gated in units of the repetition's mean
# speed-probe time (tracer.SpeedProbe); the table also prints them in seconds
END_TO_END = declared_metrics("end_to_end")
SETUP_PROBES = 3  # import-only processes before each repetition
MIN_PLAIN = 3
DEADLINE_S = 165  # a run must end within 180 s


class RepError(RuntimeError):
    pass


def spawn(argv: list[str], timeout: float, stamp: bool = False) -> tuple[float, str]:
    """Run a fresh interpreter to completion; return when it was spawned and its last line.

    With ``stamp`` the spawn time is passed on as ``--spawned-at``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    if stamp:
        argv = [*argv, "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"{argv[0]} did not finish within {exc.timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, proc.stdout.strip().splitlines()[-1]


def setup_probe(timeout: float) -> float:
    spawned, line = spawn(["-c", "import time, zerolen; print(time.monotonic())"], timeout)
    return float(line) - spawned


def repetition(workload: str, seed: int, mode: str, index: int, timeout: float) -> dict:
    argv = [str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if mode == "traced":
        OUT.mkdir(exist_ok=True)
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{seed}-rep{index}.json")]
    _spawned, line = spawn(argv, timeout, stamp=True)
    return json.loads(line)


def median(values):
    return None if not values or None in values else statistics.median(values)


def nearest_rank(values, q):
    """The q-quantile by nearest rank: with 728 samples and q = 0.98, 14 lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions of one workload for ``seconds`` and summarise them."""
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    budget = min(seconds, DEADLINE_S)
    setup: list[float] = []
    reps: dict[str, list[dict]] = {"plain": [], "traced": [], "memory": []}
    longest: dict[str, float] = {}  # the longest set-up probes and repetition of each mode
    # a traced run takes its peaks from one memory repetition, its busy times
    # and counts from the traced ones, and its overhead against the plain ones
    first = ("plain", "traced", "memory") if trace else ("plain",) * MIN_PLAIN
    cycle = ("plain", "traced") if trace else ("plain",)
    for i in itertools.count():
        if i < len(first):
            mode = first[i]
        else:
            mode = cycle[(i - len(first)) % len(cycle)]
            if time.monotonic() - start + longest[mode] > budget:
                break
        began = time.monotonic()
        setup += [setup_probe(left()) for _ in range(SETUP_PROBES)]
        reps[mode].append(repetition(workload, seed, mode, i, left()))
        longest[mode] = max(longest.get(mode, 0.0), time.monotonic() - began)
    # the time left, too short for another repetition, takes more set-up samples
    while time.monotonic() - start + 2 * max(setup) < budget:
        setup.append(setup_probe(left()))

    plain, traced = reps["plain"], reps["traced"]
    everything = plain + traced + reps["memory"]
    setup += [r["setup_s"] for r in everything]
    result = {
        "correct": all(r["incorrect"] == 0 for r in everything),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "failures": sorted({f for r in everything for f in r["failures"]}),
        "repetitions": {mode: len(done) for mode, done in reps.items() if done},
    }
    query_n = len(plain[0]["query_ms"])
    if not trace:
        for r in plain:
            for unit in ("ms", "norm"):
                r[f"query_p50_{unit}"] = statistics.median(r[f"query_{unit}"])
                r[f"query_p98_{unit}"] = nearest_rank(r[f"query_{unit}"], 0.98)
        values = {
            "setup_s": min(setup),
            "wall_norm": median([r["wall_s"] / r["probe_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "query_p50_norm": median([r["query_p50_norm"] for r in plain]),
            "query_p98_norm": median([r["query_p98_norm"] for r in plain]),
        }
        result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        result["extra"] = {
            "wall_s": (median([r["wall_s"] for r in plain]), "s"),
            "query_p50_ms": (median([r["query_p50_ms"] for r in plain]), "ms"),
            "query_p98_ms": (median([r["query_p98_ms"] for r in plain]), "ms"),
            "probe_us": (median([r["probe_s"] * 1e6 for r in plain]), "us"),
            "failed_frac": (result["failed"] / result["attempted"], "ratio"),
            "query_n": (query_n, "count"),
        }
        return result
    layers = {
        name: median([r["layers"][name] for r in reps["memory" if name.endswith(".peak_mb") else "traced"]])
        for name, _ in PER_LAYER
        if name not in ("query_n", "trace_overhead_frac")
    }
    plain_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    layers["query_n"] = query_n
    layers["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    result["metrics"] = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['repetitions']}")
    for name, m in result["metrics"].items():
        value = "unavailable" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value:>14s} {m['unit']}")
    for name, (value, unit) in result.get("extra", {}).items():
        print(f"  {name:42s} {value:>14.6g} {unit}")
    print(f"  {'attempted / failed':42s} {result['attempted']:>7d} / {result['failed']}"
          f"  correct={result['correct']}")
    for failure in result["failures"]:
        print(f"  failed op: {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "zerolen" / "__init__.py").is_file():
        print(f"no zerolen sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, results[name])
    except RepError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    def line(r):
        return {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}

    if args.workload == "all":
        print(json.dumps({name: line(r) for name, r in results.items()}))
    else:
        print(json.dumps(line(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
