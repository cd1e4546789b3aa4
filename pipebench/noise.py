"""Noise probe for the benchmark host: how steady is one process?

    python3 pipebench/noise.py --blas-threads 2 --seconds 20

Sets up ``stream_pair_c2`` once, then for ``--seconds`` alternates a
posterior-marginals pass over its evaluation split with the host-speed
probe, and prints the range and quartiles of both.  Run it with one and
with two BLAS threads to see what pinning BLAS to one thread buys.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))

    import statistics
    from time import perf_counter

    import workloads
    from probe import probe

    wl = workloads.WORKLOADS["stream_pair_c2"]
    run = workloads.Run(wl, wl.full, args.seed)
    run.setup()
    steps = sum(len(s) for s in run.evaluation.sequences)
    rates, probes = [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline:
        t0 = perf_counter()
        for seq in run.evaluation.sequences:
            run.engine.posterior_marginals(seq)
        rates.append(steps / (perf_counter() - t0))
        probes.append(probe() * 1e3)
    run.engine.close()
    for name, values, unit in (("marginals", rates, "steps/s"), ("probe", probes, "ms")):
        q = statistics.quantiles(values, n=4)
        print(f"{name}: n={len(values)} min={min(values):.4g} q1={q[0]:.4g} "
              f"median={q[1]:.4g} q3={q[2]:.4g} max={max(values):.4g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
