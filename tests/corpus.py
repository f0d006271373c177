"""The shared corpus: one deterministic set of models for equivalence
checks and for tests that need many small partial observation sets.

400 ``random_spec`` draws (seed 5, m 2-5, n 2-3).  Each draw is seen
through every single pattern of its atlas and every adjacent pair of
them, at the references l = 0 and l = m (the partial models), and through
its full atlas at every reference (the full-atlas models).  Every model
is estimated with ``estimate_partial``; a model whose forced span comes
out inverted, the known defect of count-only intervals, keeps the
exception text in place of an estimate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Optional

from pcsamp import (
    Estimate,
    ObservationSet,
    SignalSpec,
    UncertaintyModel,
    enumerate_atlas,
    estimate_partial,
    infer_model,
    random_spec,
)

SEED, DRAWS, M_RANGE, N_RANGE = 5, 400, (2, 5), (2, 3)


@dataclass(frozen=True)
class Case:
    """One model of the corpus: draw ``draw``'s ``spec`` seen through the
    patterns ``observed`` (count vectors) at reference ``model.l``."""

    draw: int
    spec: SignalSpec
    observed: tuple[tuple[int, ...], ...]
    full: bool
    model: UncertaintyModel
    estimate: Optional[Estimate]
    defect: Optional[str]   # the inverted-span exception text, when estimate_partial raised it


def _case(draw: int, spec: SignalSpec, obs: ObservationSet, full: bool, l: int) -> Case:
    model = infer_model(obs, l)
    try:
        estimate, defect = estimate_partial(model, spec.g), None
    except AssertionError as exc:   # FeasibleBox.stretches: "forced span for region i is inverted"
        estimate, defect = None, f"AssertionError: {exc}"
    return Case(draw, spec, tuple(p.eta for p in obs.patterns), full, model, estimate, defect)


@cache
def corpus() -> tuple[Case, ...]:
    """Every model, draw by draw: the partial models (each single pattern,
    then each adjacent pair, at l = 0 and l = m), then the full atlas at
    l = 0..m.  Built once: the cases are frozen, and no test alters them."""
    rng = random.Random(SEED)
    cases = []
    for draw in range(DRAWS):
        spec = random_spec(rng, m_range=M_RANGE, n_range=N_RANGE)
        patterns = enumerate_atlas(spec).patterns
        subsets = [[p] for p in patterns] + [list(pair) for pair in zip(patterns, patterns[1:])]
        for subset in subsets:
            obs = ObservationSet.of(subset, spec.g)
            cases += [_case(draw, spec, obs, False, l) for l in (0, spec.m)]
        obs = ObservationSet.of(patterns, spec.g)
        cases += [_case(draw, spec, obs, True, l) for l in range(spec.m + 1)]
    return tuple(cases)
