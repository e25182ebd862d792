"""Tests of the benchmark itself: percentile, reference-scaling and
self-time arithmetic, the probe pacer, and a tiny pass of each workload,
untraced and traced.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from detkit import linalg  # noqa: E402


def test_percentile_is_the_harrell_davis_estimate():
    assert run.percentile([7], 90) == pytest.approx(7)
    assert run.percentile([4.0] * 9, 90) == pytest.approx(4.0)
    values = list(range(101, 0, -1))
    assert run.percentile(values, 50) == pytest.approx(51)     # symmetric weights
    assert 90 < run.percentile(values, 90) < 92
    assert run.percentile(values, 10) < run.percentile(values, 50) < run.percentile(values, 90)
    # 20 exponential draws; the exact estimate, from the regularized
    # incomplete beta function, is 2.2336456
    rng = random.Random(1)
    draws = [rng.expovariate(1) for _ in range(20)]
    assert run.percentile(draws, 90) == pytest.approx(2.2336456, rel=2e-4)
    with pytest.raises(ValueError):
        run.percentile([], 50)
    with pytest.raises(ValueError):
        run.percentile([1, 2], 100)


def test_beyond_counts_the_tail():
    assert run.beyond(100, 90) == 10
    assert run.beyond(99, 90) == 9
    assert run.beyond(110, 90) == 11
    assert run.beyond(0, 90) == 0


def test_local_probe_is_the_median_of_the_probes_around_the_op():
    probes = [[0.0, 10.0], [1.0, 11.0], [2.0, 30.0], [3.0, 12.0], [4.0, 13.0],
              [9.0, 99.0]]
    # before, inside and after [1.5, 3.5]: 11, 30, 12, 13
    assert reference.local_probe(probes, 1.5, 3.5) == 12.5
    # nothing inside: the probe before and the one after
    assert reference.local_probe(probes, 4.5, 5.0) == (13.0 + 99.0) / 2
    assert reference.local_probe(probes, 9.5, 9.6) == 99.0
    assert reference.local_probe(probes[:1], 50.0, 51.0) == 10.0
    with pytest.raises(ValueError):
        reference.local_probe([], 0.0, 1.0)


def test_scale_pass_uses_local_and_typical_probes():
    r = reference.REFERENCE_S
    slow, fast = 2 * r, r / 2
    result = {"wall_s": 1.0,
              "probes": [[0.0, slow], [0.4, slow],
                         [10.0, fast], [10.1, fast], [10.5, fast], [10.6, fast]],
              "ops": [{"id": "a", "n": 1, "trial": 0, "ms": 200.0, "span": [0.1, 0.3]},
                      {"id": "b", "n": 1, "trial": 0, "ms": 300.0, "span": [10.15, 10.45]}]}
    wall, ops = run.scale_pass(result)
    # a ran at half speed, b at double speed, and the 0.5 s rest at the
    # median probe of the pass, a fast one
    assert ops == {("a", 1, 0): pytest.approx(100.0), ("b", 1, 0): pytest.approx(600.0)}
    assert wall == pytest.approx(0.1 + 0.6 + 1.0)
    second = dict(result, wall_s=2.0)
    wall, latencies = run.median_pass([result, second, second])
    assert wall == pytest.approx(0.7 + 2.0 * 1.5)
    assert latencies == [pytest.approx(100.0), pytest.approx(600.0)]


def test_setup_time_is_scaled_by_its_probes():
    r = reference.REFERENCE_S
    assert run.setup_time({"import_s": 0.3, "import_probe_s": 3 * r}) == pytest.approx(0.1)


def test_pacer_keeps_probes_out_of_work_time():
    with reference.Pacer() as off:
        off.tick()
    assert off.probes == []
    with reference.Pacer(probing=True) as ops:
        for _ in range(3):
            ops.tick()
    assert len(ops.probes) == 5          # entry, three ticks, exit
    assert ops.work_s() < ops.now()
    with reference.Pacer(probing=True, timer_s=0.05) as timer:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(timer.probes) >= 4
    assert sum(seconds for _, seconds in timer.probes) <= timer.probing_s < timer.now()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ValueError):
        reference.Pacer(timer_s=0.05)


def test_a_tick_during_a_probe_is_skipped():
    pacer = reference.Pacer(probing=True)
    pacer.in_probe = True
    pacer.tick()
    assert pacer.probes == [] and pacer.probing_s == 0.0


def test_self_times_subtract_the_union_of_children():
    spans_ = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],      # overlaps a: the union 1..6 counts once
        ["a1", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],  # clipped to the root's end
    ]
    assert spans.self_times(spans_) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])


def test_layer_metrics_partition_the_pass():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span(spans.ROOT):            # 0 .. 9
        with tracer.span("catalog.structural"):    # 1 .. 6
            with tracer.span("linalg.det"):        # 2 .. 3
                pass
            with tracer.span(spans.BOOKKEEPING):   # 4 .. 5
                pass
        with tracer.span("cli"):                   # 7 .. 8
            pass
    layers = spans.layer_metrics(tracer)
    assert layers["catalog.structural_self_s"] == 3
    assert layers["linalg.det_s"] == 1
    assert layers["linalg.det_calls"] == 1
    assert layers["cli.self_s"] == 1
    assert layers["trace.unattributed_s"] == 3
    assert layers["hankel.det_s"] == 0


def test_bits_reads_nested_exact_values():
    from fractions import Fraction
    from detkit.exactnum import PolyQ
    assert spans.bits(Fraction(-255, 4)) == 8
    assert spans.bits(PolyQ([Fraction(1, 1024), 3])) == 11
    assert spans.bits(True) == 1


def test_install_rebinds_and_restores():
    tracer = spans.Tracer()
    original = linalg.det
    restore = spans.install(tracer)
    try:
        from detkit.catalog import structured
        assert structured.det is linalg.det is not original
        m = linalg.MatrixR.from_rows([[1, 2], [3, 4]])
        assert linalg.det(m) == -2
    finally:
        restore()
    assert linalg.det is original and structured.det is original
    assert tracer.det_dim_max == 2 and tracer.det_bits_max == 3


def test_replay_self_check_covers_every_sampler_id():
    from detkit import catalog
    sampled = [i for i in catalog.registry_ids()
               if catalog.get_record(i).sampler is not None]
    assert spans.replay_self_check(seed=1) == len(sampled)


SMOKE = {
    "sweep": [("cauchy", 3, 2), ("meander", 2, 1), ("gordon-even", 2, 1)],
    "scaled": [("cauchy", 6, 0), ("pp1", 16, 0), ("nc-suite", 2, 1)],
    "interactive": [
        ("hankel", ["hankel", "--seq", "bernoulli", "--offset", "2", "--n", "4",
                    "--format", "json"]),
        ("guess", ["guess", ",".join(map(str, workloads.ASM_PREFIX)),
                   "--format", "json"]),
    ],
}
UNTRACED = {"sweep": workloads.run_sweep, "scaled": workloads.run_scaled,
            "interactive": workloads.run_interactive}
TRACED = {"sweep": spans.trace_sweep, "scaled": spans.trace_scaled,
          "interactive": spans.trace_interactive}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_pass_untraced_and_traced_agree(name):
    inputs = SMOKE[name]
    plain = UNTRACED[name](7, inputs, reference.Pacer(**workloads.PACING[name]))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with tracer.span(spans.ROOT):
            traced = TRACED[name](tracer, 7, inputs)
    finally:
        restore()
    assert plain["wall_s"] > 0 and len(plain["probes"]) >= 2
    assert plain["digest"] == traced["digest"]
    statuses = [op["status"] for op in plain["ops"]]
    assert statuses == [op["status"] for op in traced["ops"]]
    expected = {"sweep": ["pass"] * 4,
                "scaled": ["pass", "error", "pass"],
                "interactive": ["pass", "pass"]}[name]
    assert statuses == expected
    layers = spans.layer_metrics(tracer)
    assert set(layers) | {"trace.overhead_share"} == set(run.PER_LAYER_UNITS)
    assert layers["linalg.det_calls"] > 0


def test_sweep_report_matches_the_cli():
    inputs = [("macmahon", 5, 2), ("okada", 4, 2)]
    rc, printed = workloads.run_cli(["verify", "--id", "macmahon,okada", "--trials", "2",
                                     "--seed", "3", "--format", "json"])
    assert rc == 0
    assert workloads.run_sweep(3, inputs)["digest"] == workloads.digest(printed.rstrip("\n"))


# p90 is reported only with at least this many ops of a pass beyond it
TAIL = 10


def test_inputs_follow_the_seed_and_fill_the_p90_tail():
    session = workloads.interactive_inputs(5)
    assert session == workloads.interactive_inputs(5)
    assert session != workloads.interactive_inputs(6)
    assert run.beyond(len(session), 90) >= TAIL
    assert run.beyond(sum(t for _, _, t in workloads.sweep_inputs()), 90) >= TAIL
    scaled = workloads.scaled_inputs()
    assert run.beyond(len(scaled), 90) >= TAIL
    assert not {rid for rid, _, _ in scaled} & workloads.SCALED_EXCLUDED
    assert len(set(scaled)) == len(scaled)
