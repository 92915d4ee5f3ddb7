"""One repetition of one workload in a fresh process; prints one JSON record.

run.py starts this script with PYTHONPATH set to the checkout's ``src`` and
passes the monotonic time at which it spawned the process, so ``setup_s`` runs
from interpreter start until ``import zerolen`` completes.  Prepared inputs
and expected values are built before the clock for ``wall_s`` starts.
"""

import time

import zerolen

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import MODES, SpeedProbe, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, default="plain")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", default="", help="file to write the spans to")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(zerolen.__file__).resolve().parents:
        print(f"zerolen was imported from {zerolen.__file__}, not from {src}", file=sys.stderr)
        return 2

    try:
        from zerolen.budget import global_nodes
    except ImportError:
        global_nodes = None

    run = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer(args.mode, global_nodes, workloads.KNOWN_DEFECTS)
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        run(tracer)
        wall = time.perf_counter() - t0

    record = {
        "setup_s": READY - args.spawned_at,
        "wall_s": wall,
        "probe_s": speed.mean_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_ms": [(end - start) * 1e3 for start, end in tracer.queries],
        "query_norm": [(end - start) / speed.around(start, end) for start, end in tracer.queries],
        "attempted": tracer.attempted,
        "failed": tracer.failed,
        "incorrect": tracer.incorrect,
        "failures": tracer.failures,
    }
    if tracer.traced:
        record["layers"] = tracer.layer_metrics()
    if args.spans:
        tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
