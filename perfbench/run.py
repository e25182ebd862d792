"""detkit benchmark: end-to-end metrics of the `sweep`, `scaled` and
`interactive` workloads, or per-layer metrics from a traced run.

    python3 perfbench/run.py [--workload sweep|scaled|interactive|all]
                             [--seed 42] [--seconds 30] [--trace 0|1]

Each pass of a workload runs in a fresh single-threaded child process
(child.py), one after another.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a results file
with the environment and every op goes to perfbench/out/.  End-to-end
times are scaled to a reference probe's speed (reference.py).  The exit
code is 1 when any output check fails and 2 when the checkout has no
detkit sources.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sweep", "scaled", "interactive")
SETUP_PROBES = 9          # import-only children per untraced run
MIN_ROUNDS = 2            # repetitions of the same pass in every untraced run
CHILD_TIMEOUT_S = 170
HD_STEPS = 8              # midpoint-rule points per value in percentile()

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "catalog.sample_s": "s", "catalog.sample_attempts": "count",
    "catalog.sample_yield": "ratio", "catalog.build_s": "s",
    "catalog.closed_s": "s", "catalog.structural_self_s": "s",
    "catalog.report_s": "s", "linalg.det_s": "s", "linalg.det_calls": "count",
    "linalg.det_dim_max": "rows", "linalg.det_bits_max": "bits",
    "linalg.pfaffian_s": "s", "linalg.permanent_s": "s",
    "linalg.kernel_basis_s": "s", "combinat.enumerate_s": "s",
    "hankel.det_s": "s", "hankel.jfraction_s": "s", "hankel.heilermann_s": "s",
    "exactnum.series_inverse_s": "s", "guess.rate_guess_s": "s",
    "cli.self_s": "s", "trace.overhead_share": "ratio",
    "trace.unattributed_s": "s",
}


class RunError(RuntimeError):
    """A run could not produce a result."""


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile (0 < p < 100): the
    mean of all the sorted values weighted by a Beta(q(n+1), (1-q)(n+1))
    density with q = p/100, integrated over each value's share of (0, 1)
    by the midpoint rule on HD_STEPS points.  A single order statistic
    jumps when ops near it swap ranks from run to run; this weighted
    mean moves smoothly."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("percentile of no values")
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    points = n * HD_STEPS
    ts = [(j + 0.5) / points for j in range(points)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ts]
    top = max(logs)
    density = [math.exp(x - top) for x in logs]
    weights = [sum(density[i * HD_STEPS:(i + 1) * HD_STEPS]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def beyond(count: int, p: float) -> int:
    """How many of `count` values lie above rank p % of them."""
    return count - max(1, math.ceil(p / 100 * count)) if count else 0


def child(*args) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, CHILD, *map(str, args)],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"child {' '.join(map(str, args))} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child {' '.join(map(str, args))} exited "
                       f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": git_commit(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# one run


def scale_pass(result) -> tuple[float, dict]:
    """(wall_s, {op key: ms}) of one pass in reference units: each op
    scaled by the probes made around it, the rest of the pass (loop,
    report serialisation) by the median probe of the pass."""
    probes = result["probes"]
    ops = {}
    for op in result["ops"]:
        ops[(op["id"], op["n"], op["trial"])] = reference.scaled(
            op["ms"], reference.local_probe(probes, *op["span"]))
    rest = result["wall_s"] - sum(op["ms"] for op in result["ops"]) / 1e3
    typical = statistics.median(seconds for _, seconds in probes)
    return sum(ops.values()) / 1e3 + reference.scaled(rest, typical), ops


def median_pass(rounds) -> tuple[float, list]:
    """(wall_s, op latencies in ms) of a run in reference units: the
    median of its rounds' pass times, and each op at its median over the
    rounds."""
    scaled = [scale_pass(r) for r in rounds]
    latencies = [statistics.median(ops[key] for _, ops in scaled)
                 for key in scaled[0][1]]
    return statistics.median(wall for wall, _ in scaled), latencies


def setup_time(result) -> float:
    """A child's import time in reference units."""
    return reference.scaled(result["import_s"], result["import_probe_s"])


def outcome(results) -> dict:
    """Op counts and shares over every pass of a run.  `failed` counts
    wrong outputs, unexpected exceptions and passes whose output digest
    differs from the first pass's (all passes of a run share inputs)."""
    counts = {"pass": 0, "fail": 0, "error": 0, "crash": 0}
    for r in results:
        for op in r["ops"]:
            counts[op["status"]] += 1
    attempted = sum(counts.values())
    mismatches = sum(r["digest"] != results[0]["digest"] for r in results)
    return {"attempted": attempted,
            "failed": counts["fail"] + counts["crash"] + mismatches,
            "digest_mismatches": mismatches, "counts": counts,
            "fail_share": counts["fail"] / attempted,
            "error_share": (counts["error"] + counts["crash"]) / attempted}


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Untraced run: import-only children, then rounds of the same pass for
    about `seconds` (at least MIN_ROUNDS; no round is started that would
    likely end past `seconds`)."""
    start = time.perf_counter()
    children = [child("setup") for _ in range(SETUP_PROBES)]
    rounds, took = [], []
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(took) > seconds:
            break
        t0 = time.perf_counter()
        rounds.append(child("pass", name, seed))
        took.append(time.perf_counter() - t0)
    wall, latencies = median_pass(rounds)
    metrics = {
        "setup_s": statistics.median(setup_time(r) for r in children + rounds),
        "wall_s": wall,
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    raw = {"wall_s": statistics.median(r["wall_s"] for r in rounds),
           "setup_s": statistics.median(r["import_s"] for r in children + rounds),
           "probe_s": statistics.median(p for r in rounds for _, p in r["probes"])}
    return metrics, rounds, raw     # raw: plain wall-clock medians


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Traced run: pairs of one untraced and one traced pass on the same
    inputs until `seconds` have gone by.  The per-layer metrics are those
    of the fastest traced pass; the overhead compares the fastest pass of
    each kind."""
    start = time.perf_counter()
    pairs = []
    while not pairs or time.perf_counter() - start < seconds:
        pairs.append((child("pass", name, seed), child("traced", name, seed)))
    plain = min((u for u, _ in pairs), key=lambda r: r["wall_s"])
    traced = min((t for _, t in pairs), key=lambda r: r["wall_s"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_share"] = traced["wall_s"] / plain["wall_s"] - 1
    return metrics, [r for pair in pairs for r in pair], {}


def raised_ops(results) -> list:
    seen = {}
    for r in results:
        for op in r["ops"]:
            if op["status"] in ("error", "crash"):
                seen.setdefault((op["id"], op["n"], op["trial"]),
                                {k: op[k] for k in ("id", "n", "trial", "status", "error")})
    return list(seen.values())


def report(name: str, args, metrics: dict, results: list, raw: dict) -> dict:
    """Print every metric by name with its unit, write the results file
    and return the result line."""
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    out = outcome(results)
    n_ops = out["attempted"]
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(results)}  ops {n_ops}")
    for metric, value in metrics.items():
        print(f"  {metric:28s} {value:.6g} {units[metric]}")
    for metric, value in raw.items():
        print(f"  unscaled {metric:19s} {value:.6g} s")
    for share in ("fail_share", "error_share"):
        print(f"  {share:28s} {out[share]:.6g} ratio (of {n_ops} ops)")
    raised = raised_ops(results)
    for op in raised:
        print(f"  raised: {op['id']} n={op['n']} trial={op['trial']} "
              f"[{op['status']}] {op['error']}")
    if out["digest_mismatches"]:
        print(f"  OUTPUT MISMATCH in {out['digest_mismatches']} passes")
    line = {"correct": out["failed"] == 0, "attempted": n_ops, "failed": out["failed"],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"environment": environment(args), "workload": name,
                   "inputs": results[0]["inputs"], "result": line, **out,
                   "raised": raised, "digest": results[0]["digest"],
                   "unscaled": raw, "reference_s": reference.REFERENCE_S,
                   "passes": [{k: v for k, v in r.items() if k != "inputs"}
                              for r in results]}, fh, indent=1)
    print(f"  results: {os.path.relpath(path, ROOT)}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "detkit", "__init__.py")):
        sys.stderr.write(f"no detkit sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            metrics, results, raw = (measure_traced if args.trace else measure)(
                name, args.seed, args.seconds)
        except RunError as exc:
            sys.stderr.write(f"{name}: {exc}\n")
            return 1
        line = report(name, args, metrics, results, raw)
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
