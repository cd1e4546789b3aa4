"""The workloads, and the run that measures one of them.

A run sets up several times (ingest the corpus, fit, decode once, which
starts the pool), then repeats whole rounds while another round fits in
``--seconds``.  Every round does the same operations: fit once, and run
``passes`` slots of one fresh seeded session ingested, a decode pass, a
marginals pass and a backfill pass over the evaluation split, and a
chunk of each open-loop stream through ``SessionRouter``.  Each timing
is one short sample (a fit, a pass or a push); a metric is the median
over the samples of the run, except ingest, which is the throughput over
every session ingested.  A host-speed probe runs after every operation.
"""

from __future__ import annotations

import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import Dict, List, Optional

import numpy as np

import checks
import tracing
from corpus import CORPUS_SEED, CaceCorpus, CasasCorpus, derive_seed
from probe import pearson, probe
from repro.core.engine import CaceEngine
from repro.serve import SessionRouter
from repro.util.artifacts import engine_to_dict


@dataclass(frozen=True)
class Size:
    """How much one run does."""

    duration_s: float  # CACE session length
    scale: float  # CASAS task-duration scale
    homes: int  # CACE homes; training and evaluation sessions go round them
    train: int  # training sessions
    evaluate: int  # evaluation sessions: decoded and marginalised
    served: int  # evaluation sessions served at each rate (all are backfilled)
    setups: int  # set-ups per run (setup_s is their median)
    passes: int  # slots per round, each with one pass of every kind


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "cace" or "casas"
    residents: int
    strategy: str
    #: ``predict_dataset`` workers of each set-up's first decode pass,
    #: which starts the pool.  Timed passes are serial: the pool's speed-up
    #: depends on the host's second CPU, and over this benchmark's runs
    #: pooled trio passes read 138 or 272 steps/s for tens of minutes at a
    #: time, while serial figures held.
    workers: int
    #: Open-loop push rates (steps/s): ``low`` leaves the core mostly
    #: idle, ``high`` keeps it about half busy, so a 1.7x host slowdown
    #: still leaves headroom and the backlog does not grow.
    rates: Dict[str, float]
    #: Where macro_accuracy comes from: offline "decode" labels or the
    #: fixed-lag labels committed by the "stream".
    accuracy_from: str
    full: Size
    tiny: Size
    lag: int = 4


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="batch_trio_c2",
            corpus="cace",
            residents=3,
            strategy="c2",
            workers=2,
            rates={"low": 30.0, "high": 45.0},
            accuracy_from="decode",
            full=Size(600.0, 0.0, 2, 6, 2, 1, 3, 2),
            tiny=Size(150.0, 0.0, 1, 2, 2, 1, 1, 2),
        ),
        Workload(
            name="batch_casas_ncs",
            corpus="casas",
            residents=2,
            strategy="ncs",
            workers=1,
            rates={"low": 30.0, "high": 80.0},
            accuracy_from="decode",
            full=Size(0.0, 0.15, 0, 24, 2, 1, 3, 4),
            tiny=Size(0.0, 0.04, 0, 12, 2, 1, 1, 2),
        ),
        Workload(
            name="stream_pair_c2",
            corpus="cace",
            residents=2,
            strategy="c2",
            workers=1,
            rates={"low": 80.0, "high": 250.0},
            accuracy_from="stream",
            full=Size(600.0, 0.0, 4, 12, 4, 4, 3, 4),
            tiny=Size(150.0, 0.0, 1, 2, 2, 2, 1, 2),
        ),
    )
}

#: End-to-end metrics and their units, in the order they are printed.
#: Ingest throughput and fit time are printed as diagnostics only: they
#: are interpreter-bound, and the host's fast and slow spells, which last
#: minutes, moved them by up to 1.7x between runs of the same commit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decode_steps_per_s": "steps/s",
    "marginals_steps_per_s": "steps/s",
    "macro_accuracy": "ratio",
    "push_p50_ms.low": "ms",
    "push_p50_ms.high": "ms",
    "backfill_steps_per_s": "steps/s",
}

#: Per-layer metrics of the traced run and their units.  ``*_s`` are
#: seconds of self time per round unless the README says otherwise.
PER_LAYER = {
    "sensors.localize_s": "s",
    "sensors.localize_calls": "count",
    "home.simulate_self_s": "s",
    "datasets.discretize_s": "s",
    "datasets.generate_self_s": "s",
    "mining.correlation_s": "s",
    "mining.rules": "count",
    "mining.constraint_s": "s",
    "core.train_s": "s",
    "engine.fit_self_s": "s",
    "core.prepare_s": "s",
    "core.candidates_s": "s",
    "core.transition_s": "s",
    "core.viterbi_self_s": "s",
    "core.forward_self_s": "s",
    "core.backward_self_s": "s",
    "core.joint_states_per_step": "count",
    "core.transition_entries_per_step": "count",
    "core.pruned_per_step": "count",
    "core.capped_per_step": "count",
    "engine.first_batch_s": "s",
    "engine.batch_s": "s",
    "engine.batch_self_s": "s",
    "engine.marginals_self_s": "s",
    "engine.model_ships": "count",
    "smoother.push_ms": "ms",
    "serve.router_self_ms": "ms",
    "smoother.push_many_s": "s",
    "smoother.trans_blocks_computed": "count",
    "smoother.trans_blocks_reused": "count",
}


def _quantile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class _Stream:
    """The served sessions of one round at one rate, pushed through one
    ``SessionRouter`` in chunks.  Within a chunk the schedule is open
    loop: one step every 1/rate seconds, interleaved across sessions in a
    seeded order; latency counts from when the step was due."""

    def __init__(self, run: "Run", rate: str, r: int) -> None:
        self.run = run
        self.rate = rate
        self.seqs = run.evaluation.sequences[: run.size.served]
        self.router = SessionRouter(run.engine, lag=run.wl.lag, max_sessions=len(self.seqs))
        self.sids = [f"{rate}-{r}-{i}" for i in range(len(self.seqs))]
        self.order = np.repeat(np.arange(len(self.seqs)), [len(s) for s in self.seqs])
        np.random.default_rng(derive_seed(run.seed, r, len(rate))).shuffle(self.order)
        self.next = [0] * len(self.seqs)

    def push_chunk(self, k: int, chunks: int) -> None:
        run, router = self.run, self.router
        size = -(-len(self.order) // chunks)
        part = self.order[k * size : (k + 1) * size]
        period = 1.0 / run.wl.rates[self.rate]
        lat = run.samples[f"push_ms.{self.rate}"]
        late = run.late[self.rate]
        run.attempted["push"] += len(part)
        start = perf_counter() + period
        for j, i in enumerate(part):
            due = start + j * period
            run._wait_until(due)
            sent = perf_counter()
            try:
                labels = router.push(self.sids[i], self.seqs[i].steps[self.next[i]])
                if getattr(labels, "degraded", False):
                    run.failed["push"] += 1
            except Exception:  # noqa: BLE001 - a failed push is counted
                if not run.failed["push"]:
                    traceback.print_exc(file=sys.stderr)
                run.failed["push"] += 1
            done = perf_counter()
            self.next[i] += 1
            lat.append((done - due) * 1e3)
            late.append((sent - due) * 1e3)
        run._probe()

    def close(self) -> List[List[dict]]:
        """Flush every session; the committed labels, per session."""
        committed = [
            self.router.session(sid).committed if sid in self.router else []
            for sid in self.sids
        ]
        self.run._close(self.router)
        return committed


class Run:
    """One measured run of one workload at one seed."""

    def __init__(self, wl: Workload, size: Size, seed: int) -> None:
        self.wl = wl
        self.size = size
        self.seed = seed
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.problems: List[str] = []
        self.probes: List[float] = []
        #: (decode pass seconds, mean of the probes either side of it)
        self.decode_vs_probe: List[tuple] = []
        self.idle_s = 0.0  # open-loop generator waiting for due times
        self.late: Dict[str, List[float]] = defaultdict(list)
        self.fingerprints: List[str] = []
        self.first_batch: List[float] = []
        self.engines: List[CaceEngine] = []
        self.rounds = 0
        self.loop = (0.0, 0.0)
        self.checked = Counter()
        self.info: Dict[str, object] = {}
        self.loop_untimed = 0.0  # untimed_s when the loop started
        #: Seconds spent on probes and checks, kept out of setup_s.
        self.untimed_s = 0.0
        self.ingest_steps = 0
        self.ingest_s = 0.0
        # Round-0 outputs kept for the checks.
        self.decoded: List[Optional[dict]] = []
        self.stats = None
        self.first_marginals: List[Optional[dict]] = []
        self.first_committed: List[list] = []
        self.first_backfilled: List[list] = []

    # -- bookkeeping ------------------------------------------------------------

    def _probe(self) -> None:
        took = probe()
        self.probes.append(took)
        self.untimed_s += took

    def _attempt(self, phase: str, n: int, fn):
        """Run *fn* as *n* operations of *phase*; None when it raised."""
        self.attempted[phase] += n
        try:
            return fn()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            if not self.failed[phase]:
                traceback.print_exc(file=sys.stderr)
            self.failed[phase] += n
            return None
        finally:
            self._probe()

    def _ingest(self, make, index: int):
        """One session through the front end: ``(seq, seconds)`` or None."""
        got = self._attempt("ingest", 1, lambda: make(index))
        if got is None:
            return None
        self.ingest_steps += len(got[0])
        self.ingest_s += got[1]
        t0 = perf_counter()
        self.problems += checks.check_ingest(got[0], self.corpus.step_bounds())
        self.checked["ingest"] += 1
        self.untimed_s += perf_counter() - t0
        return got

    def _fit(self, train) -> Optional[CaceEngine]:
        engine = CaceEngine(strategy=self.wl.strategy, seed=CORPUS_SEED)

        def fit():
            t0 = perf_counter()
            engine.fit(train)
            return perf_counter() - t0

        elapsed = self._attempt("fit", 1, fit)
        if elapsed is None:
            return None
        self.samples["fit_s"].append(elapsed)
        t0 = perf_counter()
        self.fingerprints.append(engine_to_dict(engine)["fingerprint"])
        self.untimed_s += perf_counter() - t0
        return engine

    # -- set-up -----------------------------------------------------------------

    def _make_corpus(self):
        if self.wl.corpus == "casas":
            return CasasCorpus(self.size.scale, self.seed)
        return CaceCorpus(self.size.homes, self.wl.residents, self.size.duration_s, self.seed)

    def setup(self) -> None:
        """Ingest the corpus, fit, and start the pool; keep the last one."""
        size = self.size
        t0 = perf_counter()
        untimed0 = self.untimed_s
        self.corpus = self._make_corpus()
        n = size.train + size.evaluate
        got = [self._ingest(self.corpus.fixed_session, i) for i in range(n)]
        if any(g is None for g in got):
            raise RuntimeError("set-up could not ingest its corpus")
        seqs = [seq for seq, _ in got]
        self.train = self.corpus.dataset(seqs[: size.train])
        self.evaluation = self.corpus.dataset(seqs[size.train :])
        engine = self._fit(self.train)
        if engine is None:
            raise RuntimeError("set-up could not fit")
        self.first_batch.append(self._decode(engine, self.wl.workers)[1])
        self.samples["setup_s"].append(perf_counter() - t0 - (self.untimed_s - untimed0))
        self.engines.append(engine)
        self.engine = engine

    # -- round operations ---------------------------------------------------------

    def _decode(self, engine: CaceEngine, workers: int = 1):
        seqs = self.evaluation.sequences

        def run():
            t0 = perf_counter()
            out = engine.predict_dataset(self.evaluation, workers=workers, partial=True)
            elapsed = perf_counter() - t0
            self.failed["decode"] += len(engine.failure_report_.failures)
            return out, elapsed

        got = self._attempt("decode", len(seqs), run)
        if got is None:
            return None, float("nan")
        out, elapsed = got
        labels = [out.get(f"{seq.home_id}:{i}") for i, seq in enumerate(seqs)]
        return labels, elapsed

    def _marginals(self) -> List[Optional[dict]]:
        """Posterior marginals of every evaluation session: one sample."""
        seqs = self.evaluation.sequences
        out: List[Optional[dict]] = []
        marginals = self.engine.posterior_marginals
        t0 = perf_counter()
        for seq in seqs:
            out.append(self._attempt("marginals", 1, lambda seq=seq: marginals(seq)))
        elapsed = perf_counter() - t0 - sum(self.probes[-len(seqs):])
        if all(m is not None for m in out):
            self.samples["marginals_steps_per_s"].append(sum(len(s) for s in seqs) / elapsed)
        return out

    def _wait_until(self, due: float) -> None:
        t0 = perf_counter()
        ahead = due - t0
        if ahead > 0.002:
            sleep(ahead - 0.001)
        while perf_counter() < due:
            pass
        self.idle_s += perf_counter() - t0

    def _backfill(self, key: str) -> List[List[dict]]:
        """Every evaluation session through ``push_many``: one sample."""
        seqs = self.evaluation.sequences
        router = SessionRouter(self.engine, lag=self.wl.lag, max_sessions=len(seqs))
        sids = [f"backfill-{key}-{i}" for i in range(len(seqs))]
        busy = 0.0
        for sid, seq in zip(sids, seqs):

            def run(sid=sid, seq=seq):
                t0 = perf_counter()
                labels = router.push_many(sid, seq.steps)
                elapsed = perf_counter() - t0
                self.failed["backfill"] += sum(getattr(x, "degraded", False) for x in labels)
                return elapsed

            elapsed = self._attempt("backfill", len(seq), run)
            busy += elapsed if elapsed is not None else float("nan")
        if busy == busy:  # no session failed
            self.samples["backfill_steps_per_s"].append(sum(len(s) for s in seqs) / busy)
        committed = [router.session(sid).committed if sid in router else [] for sid in sids]
        self._close(router)
        return committed

    def _close(self, router: SessionRouter) -> None:
        router.close_all()
        for name in ("smoother.trans_blocks_computed", "smoother.trans_blocks_reused"):
            self.info[name] = self.info.get(name, 0) + router.metrics.counter(name).value

    def round(self, r: int) -> None:
        """One round: a fit, then ``passes`` slots, each with one fresh
        seeded session ingested, a decode pass, a marginals pass, a chunk of
        each open-loop stream and a backfill pass, so that a slow spell of
        the host touches every metric alike.  A pass covers the whole
        evaluation split, whose sessions differ in cost."""
        size = self.size
        seqs = self.evaluation.sequences
        steps = sum(len(s) for s in seqs)
        self._fit(self.train)
        streams = [_Stream(self, name, r) for name in self.wl.rates]
        for k in range(size.passes):
            self._ingest(self.corpus.round_session, r * size.passes + k)
            before = self.probes[-1] if self.probes else None
            labels, elapsed = self._decode(self.engine)
            if labels is not None:
                self.samples["decode_steps_per_s"].append(steps / elapsed)
                self.samples["decode_pass_s"].append(elapsed)
                if before is not None:
                    self.decode_vs_probe.append((elapsed, (before + self.probes[-1]) / 2))
                if r == 0 and k == 0:
                    self.decoded = labels
                    self.stats = self.engine.batch_stats_
            marginals = self._marginals()
            for stream in streams:
                stream.push_chunk(k, size.passes)
            backfilled = self._backfill(f"{r}-{k}")
            if r == 0 and k == 0:
                self.first_marginals = marginals
                self.first_backfilled = backfilled
        committed = [stream.close() for stream in streams]
        if r == 0:
            self.first_committed = committed[0]

    # -- the run ------------------------------------------------------------------

    def run(self, seconds: float) -> None:
        for _ in range(self.size.setups):
            if self.engines:
                self.engines[-1].close()
            self.setup()
        self.loop_untimed = self.untimed_s
        t0 = perf_counter()
        deadline = t0 + seconds
        while True:
            self.round(self.rounds)
            self.rounds += 1
            # Stop where another round of the mean length would overrun.
            now = perf_counter()
            if now + (now - t0) / self.rounds > deadline:
                break
        self.loop = (t0, perf_counter())
        self.engine.close()

    def check(self) -> None:
        """Checks (a)-(c) and (e) on the outputs of round 0 ((d) ran on
        every ingested session as it arrived)."""
        seqs = self.evaluation.sequences
        vocab = self.evaluation.macro_vocab
        index = {label: i for i, label in enumerate(vocab)}
        model = self.engine.model_
        served = self.size.served
        if len(self.decoded) != len(seqs) or self.stats is None:
            self.problems.append("decode: round 0 produced no labels")
            return
        for i, seq in enumerate(seqs):
            chains = checks.build_chains(model, seq, index)
            if self.decoded[i] is None:
                self.problems.append(f"decode: session {i} has no labels")
            else:
                self.problems += checks.check_viterbi(chains, self.decoded[i], index)
                self.checked["viterbi"] += 1
            if self.first_marginals[i] is not None:
                found, worst = checks.check_marginals(chains, self.first_marginals[i], len(vocab))
                self.problems += found
                self.checked["marginals"] += 1
                self.info["marginals_max_abs_diff"] = max(
                    worst, self.info.get("marginals_max_abs_diff", 0.0)
                )
            served_here = [self.first_backfilled[i]]
            if i < served:
                served_here.append(self.first_committed[i])
            for committed in served_here:
                self.problems += checks.check_stream(chains, committed, self.wl.lag, index)
                self.checked["stream"] += 1
        if len(set(self.fingerprints)) != 1:
            self.problems.append(f"fit: {len(set(self.fingerprints))} distinct fingerprints")
        self.checked["fit"] = len(self.fingerprints)

    def accuracy(self) -> float:
        seqs = self.evaluation.sequences
        if self.wl.accuracy_from == "stream":
            seqs = seqs[: self.size.served]
            labels = [checks.pivot(c) for c in self.first_committed]
        else:
            labels = self.decoded
        correct, total = checks.accuracy(seqs, labels)
        return correct / total

    # -- results ------------------------------------------------------------------

    def end_to_end(self, import_s: float) -> Dict[str, float]:
        med = {k: statistics.median(v) for k, v in self.samples.items() if v}
        out = {
            "setup_s": import_s + med["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "decode_steps_per_s": med["decode_steps_per_s"],
            "marginals_steps_per_s": med["marginals_steps_per_s"],
            "macro_accuracy": self.accuracy(),
            "backfill_steps_per_s": med["backfill_steps_per_s"],
        }
        for rate in self.wl.rates:
            lat = self.samples[f"push_ms.{rate}"]
            out[f"push_p50_ms.{rate}"] = _quantile(lat, 50)
        return {name: out[name] for name in END_TO_END}

    def diagnostics(self) -> Dict[str, object]:
        n = {k: len(v) for k, v in sorted(self.samples.items())}
        ranges = {
            k: [round(min(v), 4), round(statistics.median(v), 4), round(max(v), 4)]
            for k, v in sorted(self.samples.items())
            if v
        }
        probes = self.probes
        q = statistics.quantiles(probes, n=4) if len(probes) >= 2 else [0, 0, 0]
        d: Dict[str, object] = {
            # Every session ingested in the run, set-ups and slots alike:
            # sessions differ in length and fixed cost, so per-session
            # figures spread threefold on CASAS.
            "ingest_steps_per_s": round(self.ingest_steps / self.ingest_s, 4),
            "fit_s": round(statistics.median(self.samples["fit_s"]), 4),
            "rounds": self.rounds,
            "loop_s": round(self.loop[1] - self.loop[0], 3),
            "samples": n,
            "sample_min_median_max": ranges,
            "attempted": dict(self.attempted),
            "failed": dict(self.failed),
            "checked": dict(self.checked),
            "probe_ms": {
                "median": round(statistics.median(probes) * 1e3, 4),
                "q1": round(q[0] * 1e3, 4),
                "q3": round(q[2] * 1e3, 4),
                "n": len(probes),
            },
            "probe_vs_decode_r": round(
                pearson([a for a, _ in self.decode_vs_probe], [b for _, b in self.decode_vs_probe]),
                3,
            ),
        }
        for rate, late in self.late.items():
            d[f"generator_late_ms.{rate}"] = {
                "p50": round(_quantile(late, 50), 4),
                "p90": round(_quantile(late, 90), 4),
                "max": round(max(late), 4),
            }
        d["marginals_max_abs_diff"] = self.info.get("marginals_max_abs_diff")
        st = self.stats
        d["decode_stats_per_step"] = {
            "joint_states": st.joint_states / st.steps,
            "transition_entries": st.transition_entries / st.steps,
            "pruned": st.pruned_joint_states / st.steps,
            "capped": st.capped_joint_states / st.steps,
        }
        return d

    # -- the traced run -----------------------------------------------------------

    def per_layer(self, processes: List[dict]) -> Dict[str, float]:
        """Per-layer metrics from the spans of the timed loop: seconds of
        self time per round, per-call medians in ms, counts per round or
        per decoded step.  Layers a workload never calls read 0."""
        t0, t1 = self.loop
        rounds = max(self.rounds, 1)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: Dict[str, List[float]] = defaultdict(list)
        selfs: Dict[str, List[float]] = defaultdict(list)
        parent_self = 0.0
        for proc in processes:
            spans = proc["spans"]
            for (name, start, end, _p), own in zip(spans, tracing.self_times(spans)):
                if start < t0 or end > t1:
                    continue
                self_s[name] += own
                calls[name] += 1
                durations[name].append(end - start)
                selfs[name].append(own)
                if proc is processes[0]:
                    parent_self += own
        busy = (t1 - t0) - self.idle_s - (self.untimed_s - self.loop_untimed)
        self.info["busy_s"] = busy
        self.info["trace_coverage"] = parent_self / busy
        self.info["spans_in_loop"] = sum(calls.values())

        def per_round(name: str) -> float:
            return self_s[name] / rounds

        def median_ms(values: List[float]) -> float:
            return statistics.median(values) * 1e3 if values else 0.0

        st = self.stats
        rules = self.engine.rule_set_
        out = {
            "sensors.localize_s": per_round("sensors.localize"),
            "sensors.localize_calls": calls["sensors.localize"] / rounds,
            "home.simulate_self_s": per_round("home.simulate"),
            "datasets.discretize_s": per_round("datasets.discretize"),
            "datasets.generate_self_s": per_round("datasets.generate"),
            "mining.correlation_s": per_round("mining.correlation"),
            "mining.rules": (
                0 if rules is None else len(rules.forcing_rules) + len(rules.exclusions)
            ),
            "mining.constraint_s": per_round("mining.constraint"),
            "core.train_s": per_round("core.train"),
            "engine.fit_self_s": per_round("engine.fit"),
            "core.prepare_s": per_round("core.prepare"),
            "core.candidates_s": per_round("core.candidates"),
            "core.transition_s": per_round("core.transition"),
            "core.viterbi_self_s": per_round("core.viterbi"),
            "core.forward_self_s": per_round("core.forward"),
            "core.backward_self_s": per_round("core.backward"),
            "core.joint_states_per_step": st.joint_states / st.steps,
            "core.transition_entries_per_step": st.transition_entries / st.steps,
            "core.pruned_per_step": st.pruned_joint_states / st.steps,
            "core.capped_per_step": st.capped_joint_states / st.steps,
            "engine.first_batch_s": statistics.median(self.first_batch),
            "engine.batch_s": statistics.median(self.samples["decode_pass_s"]),
            "engine.batch_self_s": per_round("engine.batch"),
            "engine.marginals_self_s": per_round("engine.marginals"),
            "engine.model_ships": self.engine.model_ship_count_,
            "smoother.push_ms": median_ms(durations["smoother.push"]),
            "serve.router_self_ms": median_ms(selfs["serve.router"]),
            "smoother.push_many_s": sum(durations["smoother.push_many"]) / rounds,
            "smoother.trans_blocks_computed": self.info.get("smoother.trans_blocks_computed", 0)
            / rounds,
            "smoother.trans_blocks_reused": self.info.get("smoother.trans_blocks_reused", 0)
            / rounds,
        }
        return {name: float(out[name]) for name in PER_LAYER}
