"""The three benchmark workloads: their inputs, and one untraced pass of each.

Every pass returns ``{"wall_s": float, "ops": [op, ...], "digest": str,
"probes": [[at, seconds], ...]}`` where each op is ``{"id", "n", "trial",
"ms", "status", "error", "span"}``; ``span`` is ``[start, end]`` of the
op on the pacer's clock (reference.py), and ``probes`` the reference
probes made during the pass.
``status`` is ``"pass"``; ``"fail"`` when the output is wrong;
``"error"`` when a capped id raised ValueError above its cap; or
``"crash"`` when any other op raised.  The digest is the sha256 of the
pass's outputs; it is computed after the clock stops.

This module imports detkit, so it runs inside a child process whose
``sys.path`` points at the checkout's ``src`` directory and at this
directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from detkit import catalog, cli
from detkit.catalog.base import run_trial, trial_rng
from reference import Pacer

SWEEP_TRIALS = 5
# Every shipped cap is at most 8, so n = 12 is above all of them.  At
# n = 16 pp5, borchardt and cauchy trials vary by 0.2-0.3 s with the
# sampled parameters, enough to make a pass's time depend more on the seed
# than on the code.
SCALED_N = 12
SCALED_TRIALS = 3

# The symmetric-group determinants at n = 5 (120 x 120) cost 5-17 s per
# trial depending on the sampled q: one of them alone costs as much as the
# rest of a scaled pass, and one draw of q would set the pass time.  They
# stay out of `scaled`; the same families run at their caps in `sweep`.
SCALED_EXCLUDED = frozenset({"zagier-inv", "zagier-maj"})

# Ids whose samplers or kernels raise ValueError above the shipped caps
# ("range too small", "permanent capped at n <= 9", an empty
# random.sample range).  Such an error counts in error_share only; an
# exception from any other op is also a failure.
CAPPED_IDS = frozenset({"borchardt", "pp1", "pp2", "pp3", "shifted", "pp5a"})

ASM_PREFIX = (1, 2, 7, 42, 429, 7436, 218348, 10850216)
GUESS_TERMS = 10
HANKEL_SEQS = (("bernoulli", 2), ("euler", 0), ("bell", 0), ("hermite", 0))
HANKEL_SIZES = (10, 20)
# 10 repeats of the 11 commands leave 11 commands beyond p90
INTERACTIVE_REPEATS = 10


# ---------------------------------------------------------------------------
# inputs


def sweep_inputs() -> list[tuple[str, int, int]]:
    """(id, n, trials) for every registry id at its shipped cap, exactly as
    ``detkit verify --id all --trials 5`` runs them."""
    out = []
    for rid in catalog.registry_ids():
        record = catalog.get_record(rid)
        out.append((rid, max(record.max_n, record.min_n), SWEEP_TRIALS))
    return out


def scaled_inputs() -> list[tuple[str, int, int]]:
    """(id, n, trial index): every sampler-backed id at n = SCALED_N with
    SCALED_TRIALS trials, and every other id one above its cap with one."""
    out = []
    for rid in catalog.registry_ids():
        if rid in SCALED_EXCLUDED:
            continue
        record = catalog.get_record(rid)
        if record.sampler is not None:
            out.extend((rid, SCALED_N, t) for t in range(SCALED_TRIALS))
        else:
            out.append((rid, record.max_n + 1, 0))
    return out


def interactive_inputs(seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) for the in-process CLI session: the command list
    INTERACTIVE_REPEATS times, each repeat in an order drawn from the
    seed."""
    cmds = []
    for seq, offset in HANKEL_SEQS:
        for n in HANKEL_SIZES:
            cmds.append((f"hankel-{seq}-{n}",
                         ["hankel", "--seq", seq, "--offset", str(offset),
                          "--n", str(n), "--format", "json"]))
    prefixes = {
        "asm": ASM_PREFIX,
        "catalan": [math.comb(2 * k, k) // (k + 1) for k in range(GUESS_TERMS)],
        "central-binomial": [math.comb(2 * k, k) for k in range(GUESS_TERMS)],
    }
    for name, terms in prefixes.items():
        cmds.append((f"guess-{name}",
                     ["guess", ",".join(map(str, terms)), "--format", "json"]))
    rng = random.Random(seed)
    session = []
    for rep in range(INTERACTIVE_REPEATS):
        rng.shuffle(cmds)
        session.extend((f"{label}#{rep}", argv) for label, argv in cmds)
    return session


# ---------------------------------------------------------------------------
# output checks shared with the traced passes


def op_record(rid, n, trial, seconds, status, error=None, span=None) -> dict:
    return {"id": rid, "n": n, "trial": trial, "ms": seconds * 1e3,
            "status": status, "error": error, "span": span}


def render_report(reports) -> str:
    """The deterministic JSON report, serialised as ``detkit verify
    --format json`` prints it."""
    return json.dumps([r.to_json_dict() for r in reports], indent=2)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def error_text(exc) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


def canonical(x) -> str:
    """Exact text of a value.  Integers are written in hex, because
    decimal conversion of integers over 4300 digits raises ValueError."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return repr(x)
    if isinstance(x, int):
        return hex(x)
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(canonical, x)) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k}:{canonical(v)}" for k, v in x.items()) + "}"
    slots = getattr(type(x), "__slots__", ())
    return type(x).__name__ + canonical([getattr(x, name) for name in slots])


def scaled_outcome(rid, trial, exc) -> tuple[str, object, str]:
    """(status, error, canonical output text) of one scaled op."""
    if exc is not None:
        capped = rid in CAPPED_IDS and isinstance(exc, ValueError)
        return ("error" if capped else "crash"), error_text(exc), type(exc).__name__
    status = "pass" if trial.ok else "fail"
    return status, None, canonical((trial.params, trial.lhs, trial.rhs, trial.ok))


def cli_outcome(argv, rc, out) -> str:
    """'pass' when a CLI command exited 0 and its JSON output holds the
    result it should: a Heilermann cross-check that agrees, or at least
    one product law."""
    if rc != 0:
        return "fail"
    try:
        payload = json.loads(out)
    except ValueError:
        return "fail"
    if argv[0] == "hankel":
        good = (payload.get("heilermann_ok") is True
                and len(payload.get("dets", ())) == int(argv[argv.index("--n") + 1]))
    else:
        good = bool(payload.get("guesses"))
    return "pass" if good else "fail"


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# untraced passes.  A pass given a probing Pacer probes before every op
# (in `sweep`, before every id); its wall_s and its op times leave the
# probes out.  `sweep` takes its op times from the trials' own ``micros``,
# so a probe may not run inside a trial there, and its ops' spans are
# their id's.

# Pacer of each workload's untraced pass: `scaled` has ops that run for
# seconds (nc-suite, meander), so it also probes from a timer inside them.
PACING = {"sweep": {"probing": True},
          "scaled": {"probing": True, "timer_s": 0.5},
          "interactive": {"probing": True}}


def run_sweep(seed: int, inputs, pacer: Pacer | None = None) -> dict:
    reports, intervals = [], []
    with pacer or Pacer() as pacer:
        begin = pacer.work_s()
        for rid, n, trials in inputs:
            pacer.tick()
            t0 = pacer.now()
            reports.append(catalog.verify_identity(rid, trials=trials, seed=seed, max_n=n))
            intervals.append([t0, pacer.now()])
        text = render_report(reports)
        wall = pacer.work_s() - begin
    ops = []
    for (rid, n, _), report, span in zip(inputs, reports, intervals):
        for t, trial in enumerate(report.trials):
            ops.append(op_record(rid, n, t, trial.micros / 1e6,
                                 "pass" if trial.ok else "fail", span=span))
    return {"wall_s": wall, "ops": ops, "digest": digest(text), "probes": pacer.probes}


def finish_scaled(wall, inputs, results, probes=()) -> dict:
    """Pass result from (seconds, trial, exception, span) per scaled op."""
    ops, outputs = [], []
    for (rid, n, t), (seconds, trial, exc, span) in zip(inputs, results):
        status, error, text = scaled_outcome(rid, trial, exc)
        ops.append(op_record(rid, n, t, seconds, status, error, span=span))
        outputs.append(text)
    return {"wall_s": wall, "ops": ops, "digest": digest("\n".join(outputs)),
            "probes": list(probes)}


def run_scaled(seed: int, inputs, pacer: Pacer | None = None) -> dict:
    results = []
    with pacer or Pacer() as pacer:
        begin = pacer.work_s()
        for rid, n, t in inputs:
            pacer.tick()
            record = catalog.get_record(rid)
            rng = trial_rng(seed, rid, t)
            trial = exc = None
            t0, w0 = pacer.now(), pacer.work_s()
            try:
                trial = run_trial(record, rng, n)
            except Exception as e:  # recorded with its type, never retried
                exc = e
            results.append((pacer.work_s() - w0, trial, exc, [t0, pacer.now()]))
        wall = pacer.work_s() - begin
    return finish_scaled(wall, inputs, results, pacer.probes)


def run_interactive(seed: int, inputs, pacer: Pacer | None = None) -> dict:
    ops, outputs = [], []
    with pacer or Pacer() as pacer:
        begin = pacer.work_s()
        for label, argv in inputs:
            pacer.tick()
            t0, w0 = pacer.now(), pacer.work_s()
            try:
                rc, out = run_cli(argv)
                status, error = cli_outcome(argv, rc, out), None
            except Exception as e:  # recorded with its type, never retried
                out, status, error = "", "crash", error_text(e)
            ops.append(op_record(label, None, 0, pacer.work_s() - w0, status, error,
                                 span=[t0, pacer.now()]))
            outputs.append(out)
        wall = pacer.work_s() - begin
    return {"wall_s": wall, "ops": ops, "digest": digest("\n".join(outputs)),
            "probes": pacer.probes}
