"""Workload corpora, built session by session from the program's front end.

Every session is one call into the ingest layers — the home simulator
(which runs iBeacon trilateration through ``Resident.localize``) and the
``Discretizer`` — so the benchmark can time ingest per session.

The homes, the training split and the evaluation split come from
``CORPUS_SEED``: every run fits the same model and decodes and serves the
same sessions, so the decode, fit and serving figures of two runs differ
only by the host.  A model fitted on a few seeded sessions is not steady
enough for that: with a seeded training split, the pair model's joint
states per step ranged from 41 to 84 across six seeds, and with seeded
evaluation sessions its accuracy ranged from 0.16 to 1.0.  ``--seed``
drives the fresh sessions ingested in every round and the order in which
served sessions interleave.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.casas import CASAS_PROFILES, SHARED_TASKS, generate_casas_dataset
from repro.datasets.discretize import Discretizer
from repro.datasets.trace import Dataset, LabeledSequence
from repro.home.activities import (
    GESTURAL_ACTIVITIES,
    MACRO_ACTIVITIES,
    POSTURAL_ACTIVITIES,
)
from repro.home.behavior import BehaviorEngine
from repro.home.layout import default_layout
from repro.home.simulator import HomeSimulator

#: Seed of the homes, the training split, the evaluation split and the fit.
CORPUS_SEED = 7
STEP_S = 15.0


def derive_seed(*keys: int) -> int:
    """A 31-bit seed derived from integer keys (stable across runs)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0] & 0x7FFFFFFF)


@dataclass
class _Home:
    rids: Tuple[str, ...]
    discretizer: Discretizer
    fixed: HomeSimulator
    seeded: HomeSimulator


def _simulator(home_id, layout, weights, behaviour_seed: int, sim_seed: int) -> HomeSimulator:
    behaviour = BehaviorEngine(layout=layout, routine_weights=weights, seed=behaviour_seed)
    return HomeSimulator(home_id=home_id, layout=layout, behavior=behaviour, seed=sim_seed)


class CaceCorpus:
    """Homes with iBeacons, as ``generate_cace_dataset`` builds them.

    Each home has its own layout, routine weights ("personality") and
    discretizer.  Training and evaluation sessions come from a simulator
    seeded by ``CORPUS_SEED``; round sessions come from a second simulator
    of the same home, seeded by the run's seed.
    """

    name = "cace"

    def __init__(self, homes: int, residents: int, duration_s: float, seed: int) -> None:
        self.duration_s = duration_s
        self._homes: List[_Home] = []
        for h in range(homes):
            rng = np.random.default_rng(derive_seed(CORPUS_SEED, h))
            rids = tuple(f"h{h + 1}_{chr(ord('a') + i)}" for i in range(residents))
            layout = default_layout(seed=int(rng.integers(0, 2**31)))
            weights = {
                rid: {
                    a: float(np.exp(rng.normal(0.0, 0.25)))
                    for a in MACRO_ACTIVITIES
                    if a != "random"
                }
                for rid in rids
            }
            home_id = f"home{h + 1}"
            fixed = _simulator(
                home_id, layout, weights, int(rng.integers(0, 2**31)), int(rng.integers(0, 2**31))
            )
            discretizer = Discretizer(
                step_s=STEP_S, use_beacons=True, seed=int(rng.integers(0, 2**31))
            )
            seeded = _simulator(
                home_id, layout, weights, derive_seed(seed, h, 1), derive_seed(seed, h, 2)
            )
            self._homes.append(_Home(rids, discretizer, fixed, seeded))

    def step_bounds(self) -> Tuple[int, int]:
        """Inclusive bounds on a session's step count (duration / step_s)."""
        n = int(self.duration_s // STEP_S)
        return n, n

    def _ingest(self, home: _Home, sim: HomeSimulator) -> Tuple[LabeledSequence, float]:
        t0 = perf_counter()
        trace = sim.run_session(resident_ids=home.rids, duration_s=self.duration_s)
        seq = home.discretizer.discretize(trace)
        return seq, perf_counter() - t0

    def fixed_session(self, i: int) -> Tuple[LabeledSequence, float]:
        """Corpus session *i* (homes in turn) and its ingest seconds."""
        home = self._homes[i % len(self._homes)]
        return self._ingest(home, home.fixed)

    def round_session(self, r: int) -> Tuple[LabeledSequence, float]:
        """A fresh seeded session for round *r* and its ingest seconds."""
        home = self._homes[r % len(self._homes)]
        return self._ingest(home, home.seeded)

    def dataset(self, seqs: List[LabeledSequence]) -> Dataset:
        return Dataset(
            name="cace",
            sequences=list(seqs),
            macro_vocab=MACRO_ACTIVITIES,
            postural_vocab=POSTURAL_ACTIVITIES,
            gestural_vocab=GESTURAL_ACTIVITIES,
            subloc_vocab=tuple(default_layout().sub_region_ids),
            has_gestural=True,
        )


class CasasCorpus:
    """CASAS-style pairs: motion grid and PIR, no iBeacons, no gestures.

    Each session is one ``generate_casas_dataset`` call for one pair, so
    every session is a new pair of users in a new apartment.
    """

    name = "casas"

    def __init__(self, scale: float, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self._vocab: Optional[Dataset] = None  # the last generated dataset

    def step_bounds(self) -> Tuple[int, int]:
        """Bounds from the scripted task durations: every resident runs
        the 13 individual tasks, then both run the 2 shared ones."""
        lo = sum(p.duration_range_s[0] for t, p in CASAS_PROFILES.items() if t not in SHARED_TASKS)
        lo += sum(CASAS_PROFILES[t].duration_range_s[0] for t in SHARED_TASKS)
        hi = sum(p.duration_range_s[1] for p in CASAS_PROFILES.values())
        return int(lo * self.scale // STEP_S), int(np.ceil(hi * self.scale / STEP_S))

    def _ingest(self, key: int) -> Tuple[LabeledSequence, float]:
        t0 = perf_counter()
        ds = generate_casas_dataset(
            n_pairs=1, sessions_per_pair=1, duration_scale=self.scale, step_s=STEP_S, seed=key
        )
        elapsed = perf_counter() - t0
        self._vocab = ds
        return ds.sequences[0], elapsed

    def fixed_session(self, i: int) -> Tuple[LabeledSequence, float]:
        return self._ingest(derive_seed(CORPUS_SEED, i))

    def round_session(self, r: int) -> Tuple[LabeledSequence, float]:
        return self._ingest(derive_seed(self.seed, r, 3))

    def dataset(self, seqs: List[LabeledSequence]) -> Dataset:
        v = self._vocab
        return Dataset(
            name="casas",
            sequences=list(seqs),
            macro_vocab=v.macro_vocab,
            postural_vocab=v.postural_vocab,
            gestural_vocab=v.gestural_vocab,
            subloc_vocab=v.subloc_vocab,
            has_gestural=False,
        )
