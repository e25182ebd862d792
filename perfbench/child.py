"""One unit of benchmark work in a fresh process; prints its result as a
JSON object on the last line of standard output.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass   <workload> <seed>
    python3 perfbench/child.py traced <workload> <seed>

Every mode first times ``import detkit, detkit.cli`` (with the registry
populated) from the checkout's ``src`` directory, then runs
IMPORT_PROBES reference probes (reference.py) to gauge the machine's
speed.  ``pass`` then runs one untraced pass with probes between its
ops; ``traced`` runs the replay self-check and one traced pass.
"""

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
IMPORT_PROBES = 3


def main(argv) -> int:
    mode = argv[0]
    sys.path[:0] = [SRC, HERE]
    start = time.perf_counter()
    import detkit
    import detkit.cli  # noqa: F401
    ids = detkit.catalog.registry_ids()
    result = {"import_s": time.perf_counter() - start, "registry_ids": len(ids)}
    if not os.path.abspath(detkit.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"detkit imported from {detkit.__file__}, not {SRC}\n")
        return 2
    import reference
    result["import_probe_s"] = statistics.median(
        reference.probe() for _ in range(IMPORT_PROBES))
    if mode != "setup":
        import workloads
        name, seed = argv[1], int(argv[2])
        inputs = {"sweep": workloads.sweep_inputs,
                  "scaled": workloads.scaled_inputs,
                  "interactive": lambda: workloads.interactive_inputs(seed)}[name]()
        if mode == "pass":
            run = {"sweep": workloads.run_sweep, "scaled": workloads.run_scaled,
                   "interactive": workloads.run_interactive}[name]
            result.update(run(seed, inputs, reference.Pacer(**workloads.PACING[name])))
        else:
            import spans
            trace = {"sweep": spans.trace_sweep, "scaled": spans.trace_scaled,
                     "interactive": spans.trace_interactive}[name]
            result.update(spans.traced_pass(trace, seed, inputs))
        result["inputs"] = inputs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
