"""The traced run: spans around calls into each detkit layer, self-time
arithmetic, and the traced pass of each workload.

A span records a name, start, end and the span that was open when it
began.  A span's self time is its duration minus the part of it that
its child spans cover, so the self times of all spans of a pass add up
to the pass's duration.  Each per-layer time metric is the summed self
time of the spans of that layer.

Spans come from the benchmark, never from inside detkit:

* the public functions of ``linalg``, ``combinat``, ``hankel``, ``guess``
  and ``cli`` (and ``TruncSeries.inverse``) are wrapped by rebinding the
  name in every ``detkit`` module that imported it;
* a ``det_record`` trial binds ``det`` inside a closure that rebinding
  cannot reach, so it is replayed stage by stage (sampler, builder,
  ``linalg.det``, closed form) with ``run_trial``'s retry on
  ``Resample``/``ZeroDivisionError``.  ``replay_self_check`` proves the
  replay matches ``run_trial`` before any traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from fractions import Fraction

from detkit import catalog, linalg
from detkit.catalog.base import Resample, Trial, VerifyReport, run_trial, trial_rng
from detkit.exactnum import TruncSeries

import workloads

# span name -> per-layer metric holding the summed self time
LAYER_SPANS = {
    "catalog.sample": "catalog.sample_s",
    "catalog.build": "catalog.build_s",
    "catalog.closed": "catalog.closed_s",
    "catalog.structural": "catalog.structural_self_s",
    "catalog.report": "catalog.report_s",
    "linalg.det": "linalg.det_s",
    "linalg.pfaffian": "linalg.pfaffian_s",
    "linalg.permanent": "linalg.permanent_s",
    "linalg.kernel_basis": "linalg.kernel_basis_s",
    "combinat.enumerate": "combinat.enumerate_s",
    "hankel.det": "hankel.det_s",
    "hankel.jfraction": "hankel.jfraction_s",
    "hankel.heilermann": "hankel.heilermann_s",
    "exactnum.series_inverse": "exactnum.series_inverse_s",
    "guess.rate_guess": "guess.rate_guess_s",
    "cli": "cli.self_s",
}

# (module, function) -> span name
WRAPPED = {
    ("detkit.linalg", "det"): "linalg.det",
    ("detkit.linalg", "pfaffian"): "linalg.pfaffian",
    ("detkit.linalg", "permanent"): "linalg.permanent",
    ("detkit.linalg", "kernel_basis"): "linalg.kernel_basis",
    ("detkit.combinat", "all_perms"): "combinat.enumerate",
    ("detkit.combinat", "enumerate_partitions"): "combinat.enumerate",
    ("detkit.combinat", "nc_matchings"): "combinat.enumerate",
    ("detkit.combinat", "asm_enumerate"): "combinat.enumerate",
    ("detkit.combinat", "partition_lattice"): "combinat.enumerate",
    ("detkit.combinat", "nc_lattice"): "combinat.enumerate",
    ("detkit.hankel", "hankel_det"): "hankel.det",
    ("detkit.hankel", "jfraction_from_moments"): "hankel.jfraction",
    ("detkit.hankel", "heilermann_product"): "hankel.heilermann",
    ("detkit.guess", "rate_guess"): "guess.rate_guess",
    ("detkit.cli", "main"): "cli",
}

ROOT = "pass"
# bookkeeping of the tracer itself; neither a layer nor unattributed
BOOKKEEPING = "trace.bookkeeping"


class ReplayMismatch(RuntimeError):
    """The stage-split replay disagreed with run_trial."""


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self.sample_attempts = 0
        self.sample_accepted = 0
        self.det_dim_max = 0
        self.det_bits_max = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(args, result)
            return result
        return traced

    def note_det(self, args, result) -> None:
        m = args[0]
        self.det_dim_max = max(self.det_dim_max, m.rows)
        self.det_bits_max = max(self.det_bits_max, bits(result),
                                max(map(bits, m.entries), default=0))


def bits(x) -> int:
    """Largest numerator or denominator bit length inside an exact value."""
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if hasattr(x, "num") and hasattr(x, "den"):
        return max(bits(x.num), bits(x.den))
    return max(map(bits, getattr(x, "coeffs", ())), default=0)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (every metric, 0 where a layer
    did no work)."""
    out = {metric: 0.0 for metric in LAYER_SPANS.values()}
    det_calls = 0
    unattributed = 0.0
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        if name in LAYER_SPANS:
            out[LAYER_SPANS[name]] += own
        elif name != BOOKKEEPING:
            unattributed += own
        det_calls += name == "linalg.det"
    attempts = tracer.sample_attempts
    out.update({
        "catalog.sample_attempts": attempts,
        "catalog.sample_yield": tracer.sample_accepted / attempts if attempts else 0.0,
        "linalg.det_calls": det_calls,
        "linalg.det_dim_max": tracer.det_dim_max,
        "linalg.det_bits_max": tracer.det_bits_max,
        "trace.unattributed_s": unattributed,
    })
    return out


# ---------------------------------------------------------------------------
# rebinding


def _detkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "detkit" or name.startswith("detkit."))]


def clear_caches() -> None:
    """Empty every memo table at module level in detkit (cold caches)."""
    for module in _detkit_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def install(tracer: Tracer):
    """Rebind the traced functions in every detkit module; returns a
    function that restores the originals."""
    undo = []
    modules = _detkit_modules()
    for (module_name, attr), span_name in WRAPPED.items():
        original = getattr(sys.modules[module_name], attr)
        after = tracer.note_det if span_name == "linalg.det" else None
        wrapper = tracer.wrap(span_name, original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))
    original_inverse = TruncSeries.inverse
    TruncSeries.inverse = tracer.wrap("exactnum.series_inverse", original_inverse)
    undo.append((TruncSeries, "inverse", original_inverse))

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    return restore


# ---------------------------------------------------------------------------
# stage-split replay of a det_record trial


def replay_trial(tracer: Tracer, record, rng, n: int):
    """(params, lhs, rhs) of ``run_trial(record, rng, n)`` for a
    sampler-backed record, one span per stage."""
    for _ in range(200):
        tracer.sample_attempts += 1
        try:
            with tracer.span("catalog.sample"):
                params = record.sampler(rng, n)
            with tracer.span("catalog.build"):
                m = record.builder(n, **params)
            lhs = linalg.det(m)
            with tracer.span("catalog.closed"):
                rhs = record.closed(n, **params)
        except (Resample, ZeroDivisionError):
            continue
        tracer.sample_accepted += 1
        return params, lhs, rhs
    raise RuntimeError(f"{record.id}: no in-domain parameters after 200 samples")


def replay_self_check(seed: int) -> int:
    """Replay trial 0 of every sampler-backed id at its shipped cap and
    compare params, lhs and rhs with run_trial; raise ReplayMismatch on
    any difference.  Returns the number of ids checked."""
    checked = 0
    for rid, n, _ in workloads.sweep_inputs():
        record = catalog.get_record(rid)
        if record.sampler is None:
            continue
        expected = run_trial(record, trial_rng(seed, rid, 0), n)
        got = replay_trial(Tracer(), record, trial_rng(seed, rid, 0), n)
        if got != (expected.params, expected.lhs, expected.rhs):
            raise ReplayMismatch(f"{rid} at n={n}: replay {got!r} != "
                                 f"run_trial {(expected.params, expected.lhs, expected.rhs)!r}")
        checked += 1
    return checked


# ---------------------------------------------------------------------------
# traced passes; each mirrors the untraced pass in workloads.py


def trace_sweep(tracer: Tracer, seed: int, inputs) -> dict:
    reports, ops = [], []
    for rid, n, trials in inputs:
        record = catalog.get_record(rid)
        report = VerifyReport(record.id)
        for t in range(trials):
            rng = trial_rng(seed, rid, t)
            start = time.perf_counter()
            if record.sampler is not None:
                params, lhs, rhs = replay_trial(tracer, record, rng, n)
                trial = Trial(params, lhs, rhs, lhs == rhs)
            else:
                with tracer.span("catalog.structural"):
                    trial = run_trial(record, rng, n)
            trial.params = {"n": n, **trial.params}
            report.trials.append(trial)
            ops.append(workloads.op_record(rid, n, t, time.perf_counter() - start,
                                           "pass" if trial.ok else "fail"))
        reports.append(report)
    with tracer.span("catalog.report"):
        text = workloads.render_report(reports)
    return {"ops": ops, "digest": workloads.digest(text)}


def trace_scaled(tracer: Tracer, seed: int, inputs) -> dict:
    results = []
    for rid, n, t in inputs:
        record = catalog.get_record(rid)
        rng = trial_rng(seed, rid, t)
        trial = exc = None
        start = time.perf_counter()
        try:
            if record.sampler is not None:
                params, lhs, rhs = replay_trial(tracer, record, rng, n)
                trial = Trial(params, lhs, rhs, lhs == rhs)
            else:
                with tracer.span("catalog.structural"):
                    trial = run_trial(record, rng, n)
        except Exception as e:  # recorded with its type, never retried
            exc = e
        results.append((time.perf_counter() - start, trial, exc, None))
    return workloads.finish_scaled(None, inputs, results)


def trace_interactive(tracer: Tracer, seed: int, inputs) -> dict:
    """install() wraps cli.main, so the untraced pass is already traced."""
    return workloads.run_interactive(seed, inputs)


def traced_pass(trace_fn, seed: int, inputs) -> dict:
    """Self-check the replay, empty the caches, then run one pass under
    the tracer and return its result with the per-layer metrics."""
    replay_self_check(seed)
    clear_caches()
    tracer = Tracer()
    restore = install(tracer)
    try:
        with tracer.span(ROOT):
            result = trace_fn(tracer, seed, inputs)
    finally:
        restore()
    _, start, end, _ = tracer.spans[0]
    result["wall_s"] = end - start
    result["layers"] = layer_metrics(tracer)
    return result
