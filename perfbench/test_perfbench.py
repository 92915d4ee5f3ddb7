"""The benchmark's own tests: seeded inputs and failure accounting.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import time

import pytest

import workloads
import zerolen
from tracer import PER_LAYER, SpeedProbe, Tracer
from zerolen.budget import global_nodes


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert workloads.random_sequences(7) == workloads.random_sequences(7)
    assert workloads.random_sequences(7) != workloads.random_sequences(8)
    assert workloads.random_monoids(7) == workloads.random_monoids(7)
    assert workloads.random_monoids(7) != workloads.random_monoids(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sequences_are_zero_sum_over_nonzero_elements(seed):
    seqs = workloads.random_sequences(seed)
    assert len(seqs) == len(workloads.RANDOM_GROUPS) * workloads.RANDOM_PER_GROUP
    for name, items in seqs:
        factors = workloads.GROUPS[name]
        assert all(any(e) and m > 0 for e, m in items)
        for i, n in enumerate(factors):
            assert sum(e[i] * m for e, m in items) % n == 0
        assert zerolen.Sequence.build(zerolen.make_group(factors), items).is_zero_sum


def test_random_monoids_are_minimal_with_gcd_one():
    for gens in workloads.random_monoids(3, count=6):
        assert math.gcd(*gens) == 1 and gens[0] == 7
        assert zerolen.NumericalMonoid(gens).generators == gens  # raises when not minimal


def _c5_query(t, seq):
    engine = zerolen.engine_for(seq.group)
    return t.call("lengths.length_set", engine.length_set, seq, engine=engine)


def test_checker_marks_a_wrong_length_set_as_a_failed_op():
    g = zerolen.make_group([5])
    seq = zerolen.Sequence.build(g, {(1,): 5, (4,): 5})  # L = {2, 5}
    t = Tracer("plain", None)
    assert t.op("right", lambda: _c5_query(t, seq), lambda got: got == (2, 5)) == (2, 5)
    assert t.op("wrong", lambda: _c5_query(t, seq), lambda got: got == (2, 3, 5)) is None
    assert (t.attempted, t.failed, t.incorrect) == (2, 1, 1)
    assert t.failures[0].startswith("wrong: unexpected result (2, 5)")


def _deep(n):
    return _deep(n + 1)


def test_an_op_that_raises_fails_and_marks_the_run_incorrect():
    t = Tracer("plain", None, frozenset({"known"}))
    assert t.op("recursion", lambda: _deep(0), bool) is None
    assert (t.attempted, t.failed, t.incorrect) == (1, 1, 1)
    assert "RecursionError" in t.failures[0]


def test_a_known_defect_that_raises_fails_without_marking_the_run_incorrect():
    t = Tracer("plain", None, workloads.KNOWN_DEFECTS)
    (known,) = workloads.KNOWN_DEFECTS
    assert known == workloads.ladder_op(workloads.LADDER[-1])
    assert t.op(known, lambda: _deep(0), bool) is None
    assert (t.attempted, t.failed, t.incorrect) == (1, 1, 0)
    assert t.op(known, lambda: (1,), lambda got: got == (2,)) is None  # a wrong result still is
    assert (t.attempted, t.failed, t.incorrect) == (2, 2, 1)


def test_traced_calls_record_spans_under_their_op():
    g = zerolen.make_group([2, 2])
    t = Tracer("memory", global_nodes)
    system = t.op(
        "system", lambda: t.call("system.bounded_system", zerolen.bounded_system, g, None, 6), bool
    )
    op_span, call_span = t.spans
    assert call_span["parent"] == op_span["id"] and call_span["op"] == "system"
    assert op_span["start"] <= call_span["start"] <= call_span["end"] <= op_span["end"]
    metrics = t.layer_metrics()
    assert set(metrics) == {name for name, _ in PER_LAYER} - {"query_n", "trace_overhead_frac"}
    assert metrics["system.bounded_system.calls"] == 1
    assert metrics["system.bounded_system.nodes"] > 0
    assert metrics["system.bounded_system.peak_mb"] > 0
    assert metrics["atoms.enumerate_atoms.calls"] == 0
    assert len(system) > 0


def test_counts_read_unavailable_when_the_program_lacks_them():
    g = zerolen.make_group([3])
    t = Tracer("traced", None)
    t.op("q", lambda: t.call("lengths.length_set", zerolen.engine_for(g).length_set,
                             zerolen.Sequence.build(g, {(1,): 3}), engine=object()), bool)
    metrics = t.layer_metrics()
    assert metrics["lengths.length_set.nodes"] is None
    assert metrics["lengths.memo_hit_frac"] is None
    assert metrics["system.bounded_system.nodes"] == 0


def test_queries_time_their_block_and_the_probe_samples_while_running():
    t = Tracer("plain", None)
    with SpeedProbe(period=0.001) as speed:
        with t.query():
            time.sleep(0.02)
        with pytest.raises(ValueError):
            with t.query():
                raise ValueError("a failing query is still timed")
    (start, end), _ = t.queries
    assert end - start >= 0.02
    assert len(speed.samples) >= 2 and speed.mean_s() > 0
    assert speed.around(start, end) > 0
    assert speed.around(end + 10, end + 11) == speed.mean_s()  # no sample near: the mean
