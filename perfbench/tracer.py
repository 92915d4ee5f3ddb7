"""Op accounting, spans and counters recorded around the benchmark's calls into zerolen.

Every call into a layer goes through ``Tracer.call``, which in ``plain``
mode (tracing off) adds nothing but the call itself; per-query latencies come
from ``Tracer.query`` blocks in every mode.  In ``traced`` mode each call also records a span (name,
start, end, parent span, op id) and the deltas of the program's node
counters.  ``memory`` mode records the same spans and, for the layers in
PEAK_LAYERS, runs tracemalloc for the length of the call to take the peak
memory it allocates.  tracemalloc slows allocation-heavy code about tenfold,
so busy times come from ``traced`` repetitions and peaks from ``memory`` ones.
Spans stay in memory and are written once, when the workload process ends.

The counters are read through public names only (``zerolen.budget.global_nodes``
and ``LengthEngine.nodes``); when a later version of the program drops one,
the metrics built on it read ``None`` ("unavailable") instead of failing.
"""

from __future__ import annotations

import bisect
import json
import statistics
import threading
import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

MB = 1 << 20

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(kind: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of each ``end_to_end`` or ``per_layer`` metric of BENCHMARK.json, in order."""
    with open(BENCHMARK) as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)[kind])


PER_LAYER = declared_metrics("per_layer")

# layers whose calls run under tracemalloc in memory mode
PEAK_LAYERS = ("system.bounded_system", "system.delta_star", "lengths.length_set")

# results the workloads tally with Tracer.count, reported as they stand
TALLIES = (
    "atoms.atoms_total",
    "system.distinct_sets",
    "system.rho_k.witness_route",
    "numerical.verify_elasticity_gap.checked",
    "numerical.y_L_bound.combos",
)


MODES = ("plain", "traced", "memory")


def _probe_loop() -> None:
    d = {}
    for i in range(400):
        d[i * 7919 % 1009] = i


class SpeedProbe:
    """Samples, from a background thread, how fast this machine runs Python now.

    Every ``period`` seconds the thread times one fixed loop of about 0.1 ms
    (about 1% of the time).  On a shared host the core's speed changes by up
    to 1.8x within seconds; dividing a duration by the mean probe time around
    the same interval cancels most of that, so the normalized metrics are
    durations counted in probe times.
    """

    def __init__(self, period: float = 0.01):
        self.period = period
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            t0 = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - t0)
            self.starts.append(t0)
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean_s(self) -> float:
        return statistics.fmean(self.samples)

    def around(self, start: float, end: float, margin: float = 0.05) -> float:
        """Mean probe time of the samples taken within ``margin`` s of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - margin)
        hi = bisect.bisect_right(self.starts, end + margin)
        return statistics.fmean(self.samples[lo:hi]) if hi > lo else self.mean_s()


class Tracer:
    """Counts ops and times queries; when traced also keeps spans and counter deltas."""

    def __init__(self, mode: str, global_nodes: Optional[Callable[[], int]],
                 known_defects: frozenset = frozenset()):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.traced = mode != "plain"
        self.memory = mode == "memory"
        self.global_nodes = global_nodes
        self.known_defects = known_defects
        self.queries: list[tuple[float, float]] = []  # (start, end) per query
        self.tallies: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures: list[str] = []
        self._op: Optional[tuple[int, str]] = None  # (span id, op id) in progress

    # -- ops -----------------------------------------------------------

    def op(self, op_id: str, fn: Callable[[], object], check: Callable[[object], bool]):
        """Run one op and check its result; return the result, or None if it failed.

        An op fails when it raises (any exception, ResourceLimitError and
        RecursionError included) or when ``check`` rejects its result.  A
        failed op also marks the run as incorrect, unless it is one of
        ``known_defects`` and it raised.
        """
        self.attempted += 1
        span_id = len(self.spans)
        start = time.perf_counter()
        if self.traced:
            self.spans.append({"id": span_id, "name": "op", "op": op_id, "parent": None})
        self._op = (span_id, op_id)
        try:
            result = fn()
        except Exception as exc:  # the run must go on and count the failure
            self.failed += 1
            if op_id not in self.known_defects:
                self.incorrect += 1
            self._note(op_id, "".join(traceback.format_exception_only(exc)).strip())
            return None
        finally:
            self._op = None
            if self.traced:
                self.spans[span_id].update(start=start, end=time.perf_counter())
        try:
            ok = bool(check(result))
        except Exception as exc:  # a malformed result is a wrong one
            ok = False
            self._note(op_id, f"check raised {exc!r}")
        if not ok:
            self.failed += 1
            self.incorrect += 1
            self._note(op_id, f"unexpected result {result!r}"[:300])
            return None
        return result

    def _note(self, op_id: str, what: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(f"{op_id}: {what}")

    # -- layer calls -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.tallies[name] += n

    @contextmanager
    def query(self):
        """Time the enclosed block as one query of the workload."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.queries.append((t0, time.perf_counter()))

    def call(self, name: str, fn: Callable, *args, engine=None):
        """Call ``fn(*args)``, a public zerolen function of layer ``name``."""
        if not self.traced:
            return fn(*args)
        g0 = self.global_nodes() if self.global_nodes else None
        e0 = getattr(engine, "nodes", None)
        memory = self.memory and name in PEAK_LAYERS
        if memory:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            peak = None
            if memory:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            e1 = getattr(engine, "nodes", None)
            self.spans.append({
                "id": len(self.spans),
                "name": name,
                "op": self._op[1] if self._op else None,
                "parent": self._op[0] if self._op else None,
                "start": t0,
                "end": t1,
                "nodes": None if g0 is None else self.global_nodes() - g0,
                "engine_nodes": None if e0 is None or e1 is None else e1 - e0,
                "peak_mb": peak,
            })

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, Optional[float]]:
        """Every per-layer metric of PER_LAYER except the two that run.py adds."""
        by_name: dict[str, list[dict]] = defaultdict(list)
        for span in self.spans:
            by_name[span["name"]].append(span)

        def total(name: str, key: str):
            vals = [s[key] for s in by_name[name]]
            return None if None in vals else sum(vals)

        out: dict[str, Optional[float]] = {}
        for metric, _unit in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            spans = by_name[layer]
            if stat == "calls":
                out[metric] = len(spans)
            elif stat == "busy_s":
                out[metric] = sum(s["end"] - s["start"] for s in spans)
            elif stat == "peak_mb":
                out[metric] = max((s["peak_mb"] or 0.0 for s in spans), default=0.0)
            elif stat == "nodes":
                out[metric] = total(layer, "engine_nodes" if layer == "lengths.length_set" else "nodes")
        for name in TALLIES:
            out[name] = self.tallies.get(name, 0)
        queries = by_name["lengths.length_set"]
        if any(s["engine_nodes"] is None for s in queries):
            out["lengths.memo_hit_frac"] = None
        else:
            hits = sum(1 for s in queries if s["engine_nodes"] == 0)
            out["lengths.memo_hit_frac"] = hits / len(queries) if queries else 0.0
        matches = by_name["families.match_family"]
        found = self.tallies.get("families.matched", 0)
        out["families.match_frac"] = found / len(matches) if matches else 0.0
        return out
