"""CACE pipeline benchmark: one workload at one seed, one JSON result.

Run from the repository root:

    python3 pipebench/run.py --workload stream_pair_c2 --seed 1 --seconds 24 --trace 0

It drives the whole pipeline from outside the program — ingest
(simulation, sensor front end, discretisation), ``CaceEngine.fit``,
offline decode and posterior marginals, and serving through
``SessionRouter`` — checks the outputs against independent computations,
prints diagnostics as ``# key: value`` lines, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps each layer's public calls in
in-memory spans, writes them to ``pipebench/out/`` and reports the
per-layer metrics.  ``--size tiny`` is the seconds-long size the
benchmark's own test runs.  See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy loads: on a 2-CPU host, pair
# marginals passes in one process spread over 26-39% of their median
# (interquartile) with two BLAS threads and 11-14% with one.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself
    (None when numpy links another BLAS)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:  # no /proc: not Linux
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _diag(key, value):
    print(f"# {key}: {json.dumps(value, sort_keys=True, default=str)}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tracer = None
    if args.trace:
        import tracing

        OUT.mkdir(exist_ok=True)
        tracer = tracing.Tracer(OUT)
        tracer.install()  # before the modules below bind the layer calls

    import numpy as np
    from repro.obs import provenance

    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    size = wl.tiny if args.size == "tiny" else wl.full

    run = workloads.Run(wl, size, args.seed)
    try:
        run.run(args.seconds)
    finally:
        for engine in run.engines:
            engine.close()
        _join_children()
    run.check()

    _diag("workload", {"name": wl.name, "seed": args.seed, "seconds": args.seconds,
                       "size": args.size, "trace": args.trace})
    _diag("threads", {**{v: os.environ.get(v) for v in THREAD_VARS},
                      "openblas_threads": _blas_threads()})
    _diag("blas", np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    _diag("provenance", provenance())
    _diag("import_s", round(import_s, 4))
    for key, value in run.diagnostics().items():
        _diag(key, value)
    for problem in run.problems[:20]:
        _diag("check_failed", problem)

    end_to_end = run.end_to_end(import_s)
    if tracer is None:
        units, values = workloads.END_TO_END, end_to_end
    else:
        import tracing

        processes = tracer.processes()
        values = run.per_layer(processes)
        units = workloads.PER_LAYER
        overhead = tracing.per_call_overhead() * run.info["spans_in_loop"]
        _diag("trace", {
            "coverage_of_busy_loop": round(run.info["trace_coverage"], 4),
            "spans_in_loop": run.info["spans_in_loop"],
            "estimated_overhead_share": round(overhead / run.info["busy_s"], 4),
        })
        _diag("traced_end_to_end", {k: round(v, 4) for k, v in end_to_end.items()})
        path = OUT / f"trace-{wl.name}-s{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "loop": run.loop,
                       "processes": processes}, fh)
        _diag("trace_file", str(path.relative_to(ROOT)))

    result = {
        "correct": not run.problems,
        "attempted": int(sum(run.attempted.values())),
        "failed": int(sum(run.failed.values())),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _join_children() -> None:
    """Wait for every worker process this run started to end."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
