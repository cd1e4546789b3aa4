"""Output checks, each against an independent computation or a required
property, never against a stored copy of earlier output.

The trellis checks rebuild a session's trellis from the public
``Recognizer.trellis_sessions`` pieces (candidate scores, the initial
alpha and the transition blocks) and run their own max-product and
sum-product recursions over it.  A joint candidate's per-resident macro
label is read through the session's public ``labels`` call with a one-hot
posterior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import DecodeStats
from repro.datasets.trace import LabeledSequence

#: Largest allowed gap between the label-restricted and the unrestricted
#: Viterbi score, relative to the score (same float operations, so any
#: gap beyond rounding means the labels are not on an optimal path).
VITERBI_RTOL = 1e-9
#: Largest allowed absolute difference between an independent
#: forward-backward marginal and ``posterior_marginals``, and between a
#: marginal row's sum and 1.
MARGINALS_ATOL = 1e-8


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(x - m), axis=axis))


@dataclass
class Chain:
    """One trellis session of a decoded sequence, in plain arrays."""

    rids: Tuple[str, ...]
    initial: np.ndarray
    scores: List[np.ndarray]
    #: ``trans[t]`` is the (|t-1|, |t|) block; ``trans[0]`` is None.
    trans: List[Optional[np.ndarray]]
    #: ``macro[t][j, u]`` is the macro index of resident u in candidate j.
    macro: List[np.ndarray]


def _state_macros(sess, piece, index: Mapping[str, int]) -> np.ndarray:
    out = np.empty((len(piece), len(sess.rids)), dtype=int)
    onehot = np.zeros(len(piece))
    for j in range(len(piece)):
        onehot[j] = 1.0
        labels = sess.labels(piece, onehot)
        onehot[j] = 0.0
        out[j] = [index[labels[rid]] for rid in sess.rids]
    return out


def build_chains(model, seq: LabeledSequence, index: Mapping[str, int]) -> List[Chain]:
    """The model's trellis for *seq*, piece by piece."""
    model.last_stats = DecodeStats()
    chains = []
    for sess in model.trellis_sessions(seq):
        pieces = [sess.piece(t) for t in range(len(seq))]
        trans: List[Optional[np.ndarray]] = [None]
        for t in range(1, len(pieces)):
            block = sess.transition(pieces[t - 1], pieces[t])
            if block is None:  # frame-wise chain: no temporal coupling
                block = np.zeros((len(pieces[t - 1]), len(pieces[t])))
            trans.append(block)
        chains.append(
            Chain(
                rids=tuple(sess.rids),
                initial=np.asarray(sess.initial_alpha(pieces[0]), dtype=float),
                scores=[np.asarray(p.scores, dtype=float) for p in pieces],
                trans=trans,
                macro=[_state_macros(sess, p, index) for p in pieces],
            )
        )
    return chains


def _max_score(chain: Chain, masks: Optional[List[np.ndarray]]) -> float:
    delta = chain.initial.copy()
    if masks is not None:
        delta = np.where(masks[0], delta, -np.inf)
    for t in range(1, len(chain.scores)):
        delta = np.max(delta[:, None] + chain.trans[t], axis=0) + chain.scores[t]
        if masks is not None:
            delta = np.where(masks[t], delta, -np.inf)
    return float(np.max(delta))


def check_viterbi(
    chains: Sequence[Chain], labels: Mapping[str, Sequence[str]], index: Mapping[str, int]
) -> List[str]:
    """(a) The decoded labels lie on a maximum-score path: a max-product
    restricted to joint states carrying those labels reaches the
    unrestricted maximum.  Holds under ties, unlike comparing paths."""
    problems = []
    for chain in chains:
        want = np.array(
            [[index[labels[rid][t]] for rid in chain.rids] for t in range(len(chain.scores))]
        )
        masks = [np.all(chain.macro[t] == want[t], axis=1) for t in range(len(want))]
        best = _max_score(chain, None)
        got = _max_score(chain, masks)
        if not got >= best - VITERBI_RTOL * max(1.0, abs(best)):
            problems.append(f"viterbi {chain.rids}: labelled path {got!r} < maximum {best!r}")
    return problems


def _alphas(chain: Chain) -> List[np.ndarray]:
    alphas = [chain.initial]
    for t in range(1, len(chain.scores)):
        alphas.append(chain.scores[t] + _lse(alphas[-1][:, None] + chain.trans[t], axis=0))
    return alphas


def _beta(chain: Chain, t: int, horizon: int) -> np.ndarray:
    """Backward message at *t* given evidence up to *horizon*."""
    beta = np.zeros(len(chain.scores[horizon]))
    for s in range(horizon - 1, t - 1, -1):
        beta = _lse(chain.trans[s + 1] + (chain.scores[s + 1] + beta)[None, :], axis=1)
    return beta


def _macro_marginals(chain: Chain, t: int, log_gamma: np.ndarray, n_macro: int) -> np.ndarray:
    gamma = np.exp(log_gamma - _lse(log_gamma, axis=0))
    return np.stack(
        [
            np.bincount(chain.macro[t][:, u], weights=gamma, minlength=n_macro)
            for u in range(len(chain.rids))
        ]
    )


def check_marginals(
    chains: Sequence[Chain], marginals: Mapping[str, np.ndarray], n_macro: int
) -> Tuple[List[str], float]:
    """(b) An independent forward-backward matches ``posterior_marginals``
    within ``MARGINALS_ATOL`` and every row sums to 1.  Returns the
    problems and the largest difference seen."""
    problems: List[str] = []
    worst = 0.0
    for chain in chains:
        alphas = _alphas(chain)
        last = len(chain.scores) - 1
        beta = np.zeros(len(chain.scores[last]))
        for t in range(last, -1, -1):
            if t < last:
                beta = _lse(chain.trans[t + 1] + (chain.scores[t + 1] + beta)[None, :], axis=1)
            mine = _macro_marginals(chain, t, alphas[t] + beta, n_macro)
            for u, rid in enumerate(chain.rids):
                row = np.asarray(marginals[rid][t], dtype=float)
                worst = max(worst, float(np.max(np.abs(row - mine[u]))))
                if abs(float(row.sum()) - 1.0) > MARGINALS_ATOL:
                    problems.append(f"marginals {rid} step {t}: row sums to {row.sum()!r}")
    if worst > MARGINALS_ATOL:
        problems.append(f"marginals differ from forward-backward by {worst:.3g}")
    return problems, worst


def check_stream(
    chains: Sequence[Chain],
    committed: Sequence[Mapping[str, str]],
    lag: int,
    index: Mapping[str, int],
) -> List[str]:
    """(c) Every pushed step committed exactly one label per resident, and
    each committed label has the largest macro marginal of a
    forward-backward over the steps up to ``t + lag``."""
    rids = tuple(rid for chain in chains for rid in chain.rids)
    n = len(chains[0].scores)
    if len(committed) != n:
        return [f"stream: {len(committed)} commits for {n} pushed steps"]
    problems = []
    for t, labels in enumerate(committed):
        if sorted(labels) != sorted(rids):
            problems.append(f"stream step {t}: labels for {sorted(labels)}, want {sorted(rids)}")
    if problems:
        return problems
    n_macro = len(index)
    for chain in chains:
        alphas = _alphas(chain)
        for t in range(n):
            horizon = min(t + lag, n - 1)
            marg = _macro_marginals(chain, t, alphas[t] + _beta(chain, t, horizon), n_macro)
            for u, rid in enumerate(chain.rids):
                got = marg[u, index[committed[t][rid]]]
                if got < marg[u].max() - 1e-9:
                    problems.append(
                        f"stream {rid} step {t}: committed marginal {got:.6f} "
                        f"< best {marg[u].max():.6f}"
                    )
    return problems


def check_ingest(seq: LabeledSequence, bounds: Tuple[int, int]) -> List[str]:
    """(d) duration / step_s steps, every resident observed at every step
    with finite features and a non-empty sub-location candidate set."""
    lo, hi = bounds
    problems = []
    if not lo <= len(seq) <= hi:
        problems.append(f"ingest {seq.home_id}: {len(seq)} steps, want {lo}..{hi}")
    rids = set(seq.resident_ids)
    for t, (step, truth) in enumerate(zip(seq.steps, seq.truths)):
        if not math.isclose(step.t, (t + 0.5) * seq.step_s):
            problems.append(f"ingest {seq.home_id} step {t}: at {step.t} s")
        if set(step.observations) != rids or set(truth) != rids:
            problems.append(f"ingest {seq.home_id} step {t}: residents missing")
            continue
        for rid, obs in step.observations.items():
            if not np.all(np.isfinite(np.asarray(obs.features, dtype=float))):
                problems.append(f"ingest {seq.home_id} step {t} {rid}: non-finite features")
            if not obs.subloc_candidates:
                problems.append(f"ingest {seq.home_id} step {t} {rid}: no candidates")
    return problems


def accuracy(
    seqs: Sequence[LabeledSequence], labels: Sequence[Mapping[str, Sequence[str]]]
) -> Tuple[int, int]:
    """(correct, total) resident-steps over sessions and their labels."""
    correct = total = 0
    for seq, lab in zip(seqs, labels):
        for rid in seq.resident_ids:
            truth = seq.macro_labels(rid)[: len(lab[rid])]
            correct += sum(a == b for a, b in zip(lab[rid], truth))
            total += len(truth)
    return correct, total


def pivot(committed: Sequence[Mapping[str, str]]) -> Dict[str, List[str]]:
    """Per-step label dicts -> per-resident label lists."""
    rids = committed[0].keys() if committed else ()
    return {rid: [step[rid] for step in committed] for rid in rids}
