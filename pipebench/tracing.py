"""In-memory spans around the calls the benchmark makes into each layer.

``Tracer.install`` replaces each public function or method in ``TARGETS``
with a wrapper that records ``[name, start, end, parent]`` in a list: the
module attribute everywhere ``repro`` imported it, or the class
attribute.  Nothing inside the program changes.  Worker processes of
``predict_dataset(workers=N)`` are forked after the install, so they run
the wrappers too; the worker entry point appends each session's spans to
a per-process file beside the trace, which the parent reads back at the
end.  A layer's self time is its span's duration minus its child spans'.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

#: (span name, module, attribute).  ``Class.method`` patches the class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sensors.localize", "repro.home.resident", "Resident.localize"),
    ("home.simulate", "repro.home.simulator", "HomeSimulator.run_session"),
    ("home.simulate", "repro.home.simulator", "HomeSimulator.run_timelines"),
    ("datasets.discretize", "repro.datasets.discretize", "Discretizer.discretize"),
    ("datasets.generate", "repro.datasets.casas", "generate_casas_dataset"),
    ("engine.fit", "repro.core.engine", "CaceEngine.fit"),
    ("mining.correlation", "repro.mining.correlation_miner", "CorrelationMiner.mine"),
    ("mining.constraint", "repro.mining.constraint_miner", "ConstraintMiner.fit"),
    ("core.train", "repro.core.chdbn", "CoupledHdbn.fit"),
    ("core.train", "repro.core.loosely_coupled", "NChainHdbn.fit"),
    ("engine.batch", "repro.core.engine", "CaceEngine.predict_dataset"),
    ("engine.marginals", "repro.core.engine", "CaceEngine.posterior_marginals"),
    ("core.prepare", "repro.core.kernels", "SequenceKernel.ensure"),
    ("core.candidates", "repro.core.chdbn", "build_candidate_set"),
    ("core.transition", "repro.core.chdbn", "chain_block"),
    ("core.viterbi", "repro.core.kernels", "viterbi_path"),
    ("core.forward", "repro.core.kernels", "forward_alphas"),
    ("core.backward", "repro.core.kernels", "backward_betas"),
    ("serve.router", "repro.serve.router", "SessionRouter.push"),
    ("smoother.push_many", "repro.serve.router", "SessionRouter.push_many"),
    ("smoother.push", "repro.core.smoother", "OnlineSmoother.push"),
)
#: The pool's per-session worker body: the span root in a worker process.
WORKER_ENTRY = ("engine.worker", "repro.core.engine", "_decode_session")


class Tracer:
    """Span recorder for this process and the pool workers it forks."""

    def __init__(self, out_dir: Path) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.pid = os.getpid()
        self.out_dir = out_dir
        self.token = f"{self.pid}-{time.time_ns()}"

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _wrap_worker(self, name: str, fn):
        """Worker entry: start from empty span lists (the forked copy holds
        the parent's), then append this session's spans to the file."""
        tracer = self
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return traced(*args, **kwargs)
            tracer.spans, tracer.stack = [], []
            try:
                return traced(*args, **kwargs)
            finally:
                path = tracer.out_dir / f"worker-{tracer.token}-{os.getpid()}.jsonl"
                with open(path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(tracer.spans) + "\n")
                tracer.spans = []

        return entry

    def install(self) -> None:
        """Wrap every target (imports the modules that hold them)."""
        for name, modname, attr in TARGETS + (WORKER_ENTRY,):
            mod = importlib.import_module(modname)
            wrap = self._wrap_worker if (name, modname, attr) == WORKER_ENTRY else self._wrap
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = wrap(name, orig)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, attr, None) is orig
                ):
                    setattr(other, attr, wrapped)

    def processes(self) -> List[Dict[str, object]]:
        """This process's spans plus every worker's, read back from files
        (the files are removed).  Call after the pool has shut down."""
        out: List[Dict[str, object]] = [{"pid": self.pid, "spans": self.spans}]
        for path in sorted(self.out_dir.glob(f"worker-{self.token}-*.jsonl")):
            spans: List[list] = []
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    spans.extend(_rebase(json.loads(line), len(spans)))
            out.append({"pid": int(path.stem.rsplit("-", 1)[1]), "spans": spans})
            path.unlink()
        return out


def _rebase(spans: List[list], offset: int) -> List[list]:
    """Shift parent indices of spans appended after *offset* others."""
    return [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in spans]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on an empty function."""
    tracer = Tracer(Path("."))

    def empty():
        return None

    traced = tracer._wrap("calibrate", empty)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            empty()
        plain = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        wrapped = perf_counter() - t0
        tracer.spans.clear()
        best = min(best, (wrapped - plain) / calls)
    return max(best, 0.0)
