"""Brute-force verification of estimates and closed-form energies.

Everything here is deliberately independent of the estimator's reasoning:
error energies are exact piecewise integrals, worst cases are searched on
exact rational grids over the feasible placements of the unknown
discontinuities, and minimax claims are probed by perturbing estimate
cells and checking the worst case never improves.

The feasible set treats uncertainty intervals as an independent box,
except inside coupled runs where an always-one-sample region forces the
spacing of consecutive discontinuities into [1, 2) grid steps.  Joint
constraints beyond that are intentionally out of scope.

The search runs on integers.  Inside a zone every position is an integer
over N, the lcm of the grid resolution R and the denominators of the
estimate's breakpoints there, and every integral of (c - estimate)^2 is an
integer over N * D^2, D the common denominator of the amplitudes and the
estimate's values; Fractions are built only for the results.  A coupled
step takes a maximum over a window that only moves forward, so it costs
O(R) per member pair.  :func:`energy_between` integrates with Fractions
and stays the independent cross-check.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .estimator import (
    CHAIN_INTERIOR,
    MIDPOINT,
    Estimate,
    ErrorReport,
    amp,
    best_reference,
    closed_form_energy,
    estimate_full,
    estimate_partial,
)
from .inference import ObservationSet, UncertaintyModel, infer_model
from .sampler import PatternAtlas, count_direct, cumulative_count, delta_chain, enumerate_atlas
from .signal_core import (
    PiecewiseFunction,
    SignalSpec,
    find_genericity_violation,
    translate,
    truth_function,
    validate_spec,
)


class EmptyFeasibleSet(ValueError):
    """No discontinuity placement satisfies the spacing constraints."""


@dataclass(frozen=True)
class Zone:
    """One independently searchable stretch of the feasible set."""

    members: tuple[int, ...]
    lo: int
    hi: int
    coupled: bool


@dataclass(frozen=True)
class FeasibleBox:
    """Open intervals per unknown discontinuity plus coupling structure."""

    l: int
    G: tuple[tuple[int, int], ...]
    zones: tuple[Zone, ...]

    @property
    def m(self) -> int:
        return len(self.G) - 1


def feasible_box(model: UncertaintyModel) -> FeasibleBox:
    """Search geometry implied by an uncertainty model."""
    zones: list[Zone] = []
    for i in sorted(model.Ucomp | model.chains.free):
        lo, hi = model.G[i]
        zones.append(Zone(members=(i,), lo=lo, hi=hi, coupled=False))
    for chain in model.chains.plus + model.chains.minus:
        first, last = chain.members[0], chain.members[-1]
        zones.append(
            Zone(members=chain.members, lo=model.G[first][0], hi=model.G[last][1], coupled=True)
        )
    zones.sort(key=lambda z: z.lo)
    return FeasibleBox(l=model.l, G=model.G, zones=tuple(zones))


@dataclass(frozen=True)
class ZoneOutcome:
    members: tuple[int, ...]
    lo: int
    hi: int
    max_energy: Fraction
    min_energy: Fraction
    argmax: tuple[Fraction, ...]


@dataclass(frozen=True)
class WorstCase:
    """Worst-case energy over the feasible grid, with an achieving witness."""

    value: Fraction
    witness: dict[int, Fraction]
    const: Fraction
    zones: tuple[ZoneOutcome, ...]


@dataclass(frozen=True)
class PerturbationProbe:
    cell: int                 # unit cell (cell-1, cell)
    delta: Fraction
    worst: Fraction
    ok: bool                  # worst case did not decrease
    strict: bool              # worst case strictly increased


@dataclass(frozen=True)
class PerturbationReport:
    baseline: Fraction
    probes: tuple[PerturbationProbe, ...]

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.probes)

    @property
    def all_strict(self) -> bool:
        return all(p.strict for p in self.probes)

    @property
    def violations(self) -> tuple[PerturbationProbe, ...]:
        return tuple(p for p in self.probes if not p.ok)


def energy_between(a: PiecewiseFunction, b: PiecewiseFunction) -> Fraction:
    """Exact integral of (a - b)^2 over the whole line.

    Both functions are zero outside their supports, so merging the two
    breakpoint lists and integrating cell by cell is exact.
    """
    pts = sorted(set(a.breakpoints) | set(b.breakpoints))
    total = Fraction(0)
    for p, q in zip(pts, pts[1:]):
        mid = (p + q) / 2
        diff = a.evaluate(mid) - b.evaluate(mid)
        if diff:
            total += diff * diff * (q - p)
    return total


def _fn_of(est: Union[Estimate, PiecewiseFunction]) -> PiecewiseFunction:
    return est.fn if isinstance(est, Estimate) else est


def _pieces(fn: PiecewiseFunction, lo: int, hi: int) -> tuple[tuple[Fraction, ...], list[Fraction]]:
    """fn's breakpoints inside (lo, hi) and its value on each piece of [lo, hi] they cut."""
    bps = fn.breakpoints
    first, last = bisect_right(bps, lo), bisect_left(bps, hi)
    vals = [fn.values[j] if 0 <= j < len(fn.values) else Fraction(0) for j in range(first - 1, last)]
    return bps[first:last], vals


def _scaled_cumulatives(
    fn: PiecewiseFunction,
    amplitudes: Sequence[Fraction],
    lo: int,
    hi: int,
    resolution: int,
) -> tuple[int, dict[Fraction, list[int]]]:
    """Integrals of (c - fn)^2 from ``lo`` to every grid point, per amplitude c.

    The grid points are lo + k/resolution for k = 0..(hi-lo)*resolution.
    Positions are integers over N, the lcm of ``resolution`` and the
    denominators of fn's breakpoints inside (lo, hi); values are integers
    over D, the lcm of the denominators of the amplitudes and of fn's
    values on [lo, hi].  So every integral is an integer over
    scale = N * D^2, which is returned with the lists.
    """
    inner, vals = _pieces(fn, lo, hi)
    N = math.lcm(resolution, *(x.denominator for x in inner))
    D = math.lcm(*(v.denominator for v in (*amplitudes, *vals)))
    step = N // resolution
    x0 = lo * N
    cuts = [x0, *(x.numerator * (N // x.denominator) for x in inner), hi * N]
    scaled_vals = [v.numerator * (D // v.denominator) for v in vals]
    out: dict[Fraction, list[int]] = {}
    for c in set(amplitudes):
        ic = c.numerator * (D // c.denominator)
        cum: list[int] = []
        base = 0
        for a, b, v in zip(cuts, cuts[1:], scaled_vals):
            rate = (ic - v) ** 2
            start = x0 - (x0 - a) // step * step   # first grid point at or after a
            cum.extend([base + rate * (x - a) for x in range(start, b, step)])
            base += rate * (b - a)
        cum.append(base)
        out[c] = cum
    return N * D * D, out


def _span_energy(fn: PiecewiseFunction, c: Fraction, lo: int, hi: int) -> Fraction:
    """Integral of (c - fn)^2 over [lo, hi], one term per piece of fn."""
    inner, vals = _pieces(fn, lo, hi)
    cuts = (lo, *inner, hi)
    return sum(((c - v) ** 2 * (b - a) for a, b, v in zip(cuts, cuts[1:], vals)), Fraction(0))


def _window_step(
    hi_prev: list[Optional[int]],
    lo_prev: list[Optional[int]],
    ps: range,
    qs: range,
    cum: list[int],
    resolution: int,
) -> tuple[list[Optional[int]], list[Optional[int]], list[Optional[int]]]:
    """One coupled step of the sweep, over grid indices of the zone.

    For every q in ``qs`` returns the largest and the smallest
    prev[p] + cum[q] - cum[p] over the reached p in ``ps`` (entries that
    are not None) with resolution <= q - p < 2 * resolution, and the p that
    gives the largest (the earliest one on ties); None where no p is in
    reach.  The window only moves forward, so a monotone deque of
    (p, prev[p] - cum[p]) per side finds each extreme in amortized O(1).
    """
    r = resolution
    hi_next: list[Optional[int]] = []
    lo_next: list[Optional[int]] = []
    back: list[Optional[int]] = []
    hi_dq: deque[tuple[int, int]] = deque()   # keys non-increasing front to back
    lo_dq: deque[tuple[int, int]] = deque()   # keys non-decreasing front to back
    j = 0
    for q in qs:
        while j < len(ps) and ps[j] <= q - r:
            if hi_prev[j] is not None:
                p = ps[j]
                key = hi_prev[j] - cum[p]
                while hi_dq and hi_dq[-1][1] < key:
                    hi_dq.pop()
                hi_dq.append((p, key))
                key = lo_prev[j] - cum[p]
                while lo_dq and lo_dq[-1][1] > key:
                    lo_dq.pop()
                lo_dq.append((p, key))
            j += 1
        while hi_dq and hi_dq[0][0] <= q - 2 * r:
            hi_dq.popleft()
        while lo_dq and lo_dq[0][0] <= q - 2 * r:
            lo_dq.popleft()
        if hi_dq:
            hi_next.append(hi_dq[0][1] + cum[q])
            lo_next.append(lo_dq[0][1] + cum[q])
            back.append(hi_dq[0][0])
        else:
            hi_next.append(None)
            lo_next.append(None)
            back.append(None)
    return hi_next, lo_next, back


def _zone_extremes(
    fn: PiecewiseFunction,
    amplitudes: Sequence[Fraction],
    box: FeasibleBox,
    zone: Zone,
    resolution: int,
) -> ZoneOutcome:
    """Exact maximum and minimum of the zone's error energy over the grid.

    Within a zone the truth takes the run of amplitudes bounded by the
    member discontinuities, so the energy decomposes over consecutive
    member pairs and a forward sweep maximizes (and minimizes) it exactly
    on the rational grid.  Grid points are indices k of zone.lo + k/R
    (R = ``resolution``) and the cumulative energies are integers over
    N * D^2 (see :func:`_scaled_cumulatives`), so the sweep compares ints.
    A coupled step keeps the spacing in [1, 2), that is R <= q - p < 2R,
    and takes a windowed maximum: O(R) per member pair instead of O(R^2).
    The earliest grid point wins ties, and only the argmax is rebuilt as
    Fractions, from one back-pointer list per member.
    """
    members, r = zone.members, resolution
    first = members[0]
    assert all(
        zone.lo <= box.G[i][0] and box.G[i][1] <= zone.hi for i in members
    ), "zone members must lie inside the zone"
    amps = [amp(amplitudes, first + j) for j in range(len(members) + 1)]
    scale, cums = _scaled_cumulatives(fn, amps, zone.lo, zone.hi, r)
    grids = [range((box.G[i][0] - zone.lo) * r + 1, (box.G[i][1] - zone.lo) * r) for i in members]

    # per grid point of the current member: largest and smallest energy left
    # of that member, or None when no feasible placement reaches the point
    cum = cums[amps[0]]
    hi_state: list[Optional[int]] = [cum[p] for p in grids[0]]
    lo_state = list(hi_state)
    backs = []
    for k in range(1, len(members)):
        assert zone.coupled, "multi-member zones are always coupled runs"
        hi_state, lo_state, back = _window_step(
            hi_state, lo_state, grids[k - 1], grids[k], cums[amps[k]], r
        )
        if all(p is None for p in back):
            raise EmptyFeasibleSet(
                f"no grid placement satisfies the spacing constraints in zone {members}"
            )
        backs.append(back)

    cum = cums[amps[-1]]
    best: Optional[tuple[int, int]] = None
    worst: Optional[int] = None
    for q, v, w in zip(grids[-1], hi_state, lo_state):
        if v is None:
            continue
        tail = cum[-1] - cum[q]
        if best is None or v + tail > best[0]:
            best = (v + tail, q)
        if worst is None or w + tail < worst:
            worst = w + tail
    assert best is not None and worst is not None
    path = [best[1]]
    for back, grid in zip(reversed(backs), reversed(grids[1:])):
        path.append(back[path[-1] - grid.start])
    return ZoneOutcome(
        members=members, lo=zone.lo, hi=zone.hi,
        max_energy=Fraction(best[0], scale), min_energy=Fraction(worst, scale),
        argmax=tuple(Fraction(zone.lo * r + q, r) for q in reversed(path)),
    )


def _known_spans(box: FeasibleBox) -> list[tuple[int, int, int]]:
    """Positive-length stretches where the truth value is forced: (lo, hi, region)."""
    spans = []
    for i in range(1, box.m + 1):
        lo, hi = box.G[i - 1][1], box.G[i][0]
        if lo < hi:
            spans.append((lo, hi, i))
    return spans


def worst_case_energy(
    est: Union[Estimate, PiecewiseFunction],
    amplitudes: Sequence[Fraction],
    box: FeasibleBox,
    resolution: int = 50,
) -> WorstCase:
    """Maximize the error energy over feasible discontinuity placements.

    The search grid uses rational points with denominator ``resolution``
    strictly inside each uncertainty interval, so every evaluation is
    exact; the total decomposes into forced spans (placement independent)
    plus one term per zone, searched independently (jointly inside
    coupled runs).  Zones use the integer integrator: positions are
    integers over the zone's lattice N, the lcm of ``resolution`` and the
    denominators of the estimate's breakpoints inside it, and Fractions
    are built only for the results.  A zone of k members costs
    O(k * R) grid steps at R = ``resolution``.  A forced span costs one
    term per piece of the estimate on it, however long the span.
    """
    if resolution < 2:
        raise ValueError("need at least 2 grid points per unit interval")
    fn = _fn_of(est)
    g = tuple(amplitudes)
    outcomes = tuple(_zone_extremes(fn, g, box, z, resolution) for z in box.zones)
    spans = _known_spans(box)
    const = sum((_span_energy(fn, amp(g, region), lo, hi) for lo, hi, region in spans), Fraction(0))

    covered = sum(z.hi - z.lo for z in box.zones) + sum(hi - lo for lo, hi, _ in spans)
    assert covered == box.G[box.m][1] - box.G[0][0], "zones and forced spans must tile the span"

    witness: dict[int, Fraction] = {box.l: Fraction(0)}
    for outcome in outcomes:
        witness.update(dict(zip(outcome.members, outcome.argmax)))
    value = const + sum((o.max_energy for o in outcomes), Fraction(0))
    return WorstCase(value=value, witness=witness, const=const, zones=outcomes)


def _auto_deltas(est: Estimate, g: tuple[Fraction, ...], n: int) -> tuple[Fraction, ...]:
    """Probe magnitudes for unit cell (n-1, n), scaled to the local jump."""
    k = bisect_right(est.cells, n - 1, key=lambda cell: cell.lo)   # cells[:k] start at or left of n-1
    if not k or est.cells[k - 1].hi < n:
        raise ValueError(f"unit cell ({n - 1}, {n}) lies outside the estimate span")
    cell = est.cells[k - 1]
    if cell.tag == MIDPOINT:
        gap = abs(amp(g, cell.indices[0]) - amp(g, cell.indices[1]))
    elif cell.tag == CHAIN_INTERIOR:
        triple = [amp(g, j) for j in cell.indices]
        gap = max(triple) - min(triple)
    else:
        i = cell.indices[0]
        gap = max(abs(amp(g, i) - amp(g, i - 1)), abs(amp(g, i) - amp(g, i + 1)))
    assert gap != 0
    return (gap / 10, -gap / 10, gap / 2, -gap / 2)


def perturbation_minimax_check(
    est: Estimate,
    amplitudes: Sequence[Fraction],
    box: FeasibleBox,
    deltas: Optional[Sequence[Fraction]] = None,
    resolution: int = 50,
    include_known: bool = False,
) -> PerturbationReport:
    """Probe local minimax optimality cell by cell.

    Every adjustable unit cell gets its value shifted by each probe delta
    (by default four deltas scaled to the governing amplitude jump) and
    the worst case is recomputed; only the affected zone or forced span
    needs re-searching.  The probes walk the box's zones, and its forced
    spans with ``include_known``, in order; these tile the span.  A worst
    case that decreases is recorded as a violation, not raised.
    """
    g = tuple(amplitudes)
    base = worst_case_energy(est, g, box, resolution)
    pieces = [(z.lo, z.hi, z, outcome) for z, outcome in zip(box.zones, base.zones)]
    if include_known:
        pieces += [(lo, hi, region, None) for lo, hi, region in _known_spans(box)]

    probes: list[PerturbationProbe] = []
    for lo, hi, where, outcome in sorted(pieces, key=lambda piece: piece[0]):
        for n in range(lo + 1, hi + 1):
            gamma = est.fn.evaluate(Fraction(2 * n - 1, 2))
            if outcome is None:   # a forced span: only this unit cell's integral changes
                c = amp(g, where)
                rest = base.value - _span_energy(est.fn, c, n - 1, n)
            for delta in tuple(deltas) if deltas is not None else _auto_deltas(est, g, n):
                if delta == 0:
                    continue
                if outcome is None:
                    value = rest + (c - gamma - delta) ** 2
                else:
                    fn2 = est.fn.with_value(n - 1, n, gamma + delta)
                    redo = _zone_extremes(fn2, g, box, where, resolution)
                    value = base.value - outcome.max_energy + redo.max_energy
                probes.append(
                    PerturbationProbe(
                        cell=n, delta=delta, worst=value,
                        ok=value >= base.value, strict=value > base.value,
                    )
                )
    return PerturbationReport(baseline=base.value, probes=tuple(probes))


def minimax_report(
    model: UncertaintyModel,
    amplitudes: Sequence[Fraction],
    resolution: int = 50,
) -> ErrorReport:
    """Closed form versus oracle worst case for the model's estimate."""
    est = estimate_partial(model, amplitudes)
    worst = worst_case_energy(est, tuple(amplitudes), feasible_box(model), resolution)
    closed = closed_form_energy(model, amplitudes)
    return ErrorReport(
        closed_form=closed,
        oracle_worst=worst.value,
        agrees=(closed is not None and closed == worst.value),
    )


# ---------------------------------------------------------------------------
# random signals and consistency sweeps
# ---------------------------------------------------------------------------

F_DENOMINATOR = 97   # random_spec draws fractional parts k/F_DENOMINATOR
AMP_BOUND = 6        # and integer amplitudes in [-AMP_BOUND, AMP_BOUND]


def random_spec(
    rng: random.Random,
    m_range: tuple[int, int] = (1, 8),
    n_range: tuple[int, int] = (2, 5),
) -> SignalSpec:
    """A random valid signal with prime-denominator fractional parts.

    Fractional parts k/97 make integer-sum collisions detectable exactly;
    candidate fraction vectors violating the no-integer-sum rule are
    redrawn.  Amplitudes are small nonzero-at-the-ends integers with
    distinct neighbors.
    """
    m = rng.randint(*m_range)
    while True:
        f = [Fraction(rng.randint(1, F_DENOMINATOR - 1), F_DENOMINATOR) for _ in range(m)]
        if find_genericity_violation(f) is None:
            break
    n = [rng.randint(*n_range) for _ in range(m)]
    g: list[Fraction] = []
    for i in range(m):
        while True:
            cand = Fraction(rng.randint(-AMP_BOUND, AMP_BOUND))
            if cand == 0 and (i == 0 or i == m - 1):
                continue
            if g and cand == g[-1]:
                continue
            break
        g.append(cand)
    return validate_spec(SignalSpec.from_columns(g=g, n=n, f=f))


# per reference l, the full atlas's model and its full estimate; the estimate
# is None where the model leaves width-two indices, which check_round_trip
# reports.  `| None`, not Optional: typing caches Optional[Estimate], and the
# cache would keep every freshly re-imported copy of the package alive.
_FullSet = list[tuple[UncertaintyModel, Estimate | None]]


def _full_set(spec: SignalSpec, atlas: PatternAtlas) -> _FullSet:
    obs = ObservationSet.from_atlas(atlas, spec.g)
    models = [infer_model(obs, l) for l in range(spec.m + 1)]
    return [(model, None if model.U else estimate_full(model, spec.g)) for model in models]


def check_pattern_counts(spec: SignalSpec, atlas: PatternAtlas, delta_denominator: int) -> Optional[str]:
    """Direct counting versus the closed form on a dense exact offset grid.

    Returns a description of the first mismatch, or None.  Checks every
    region run (i, K) at every offset, plus the per-region count bounds
    and the atlas cell patterns at their midpoints.
    """
    if len(set(atlas.patterns)) != spec.m + 1:
        return f"atlas carries {len(set(atlas.patterns))} patterns, expected {spec.m + 1}"
    if atlas.cells[0].delta_lo != 0 or atlas.cells[-1].delta_hi != 1:
        return "atlas cells do not span [0, 1)"
    for a, b in zip(atlas.cells, atlas.cells[1:]):
        if a.delta_hi != b.delta_lo:
            return "atlas cells are not adjacent"
    for cell in atlas.cells:
        mid = (cell.delta_lo + cell.delta_hi) / 2
        if count_direct(spec, mid) != cell.pattern:
            return f"cell [{cell.delta_lo},{cell.delta_hi}) pattern mismatch at midpoint"

    deltas = [Fraction(j, delta_denominator) for j in range(delta_denominator)]
    for delta in deltas:
        pattern = count_direct(spec, delta)
        for eta_i, n_i in zip(pattern.eta, spec.n):
            if eta_i not in (n_i - 1, n_i):
                return f"count {eta_i} outside {{n-1, n}} at offset {delta}"
        offsets = delta_chain(spec, delta)
        cumulative = [0]
        for eta_i in pattern.eta:
            cumulative.append(cumulative[-1] + eta_i)
        for i in range(1, spec.m + 1):
            for span in range(spec.m - i + 1):
                direct = cumulative[i + span] - cumulative[i - 1]
                formula = cumulative_count(spec, i, span, offsets[i - 1])
                if direct != formula:
                    return (
                        f"offset {delta}: run (i={i}, K={span}) counts direct={direct} "
                        f"formula={formula}"
                    )
    return None


def _probe_points(lo: int, hi: int, cuts) -> list[int]:
    """Integers of [lo, hi] that meet every stretch between ``cuts``.

    In ascending order: each integer cut (and lo and hi), and the smallest
    integer strictly inside each open stretch between consecutive cuts, if
    any.  Two functions constant between the cuts agree at every integer of
    [lo, hi] exactly when they agree at these, and the first integer where
    they differ is among them.
    """
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    out = []
    for a, b in zip(pts, pts[1:]):
        below = math.floor(a)
        if a == below:
            out.append(below)
        if below + 1 < b:
            out.append(below + 1)
    out.append(hi)
    return out


def check_round_trip(spec: SignalSpec, full: _FullSet) -> Optional[str]:
    """Full-atlas inference must pin every discontinuity to a width-one
    interval strictly containing the truth, and the resulting estimate
    must reproduce the truth at every integer grid point.  Both are
    constant between the estimate's cell bounds and the truth's
    breakpoints, so the grid points are checked at :func:`_probe_points`:
    O(m) of them, however long the regions."""
    for l, (model, est) in enumerate(full):
        if model.U:
            return f"l={l}: full atlas left width-two indices {sorted(model.U)}"
        truth_positions = translate(spec, l).D
        for i in range(spec.m + 1):
            if i == l:
                continue
            lo, hi = model.G[i]
            if not (lo < truth_positions[i] < hi):
                return f"l={l}: truth D_{i}={truth_positions[i]} outside ({lo}, {hi})"
            if hi - lo != 1:
                return f"l={l}: interval width {hi - lo} != 1 for i={i}"
        truth = truth_function(spec, l)
        cuts = [*(c.lo for c in est.cells), *(c.hi for c in est.cells), *truth.breakpoints]
        for grid_point in _probe_points(model.G[0][0] - 1, model.G[spec.m][1] + 1, cuts):
            if est.value_at(grid_point) != truth.evaluate(grid_point):
                return (
                    f"l={l}: estimate({grid_point}) = {est.value_at(grid_point)} "
                    f"!= truth {truth.evaluate(grid_point)}"
                )
    return None


def check_reference_law(spec: SignalSpec, full: _FullSet) -> Optional[str]:
    """The energy-minimizing reference must be the largest amplitude jump."""
    energies = {l: closed_form_energy(model, spec.g) for l, (model, _) in enumerate(full)}
    missing = [l for l, energy in energies.items() if energy is None]
    if missing:
        return f"no closed-form energy for references {missing}"
    arg = min(range(spec.m + 1), key=lambda l: (energies[l], l))
    law = best_reference(spec.g)
    if arg != law:
        return f"argmin energy {arg} != largest-jump reference {law} ({energies})"
    return None


@dataclass(frozen=True)
class SweepSummary:
    trials: int
    passed: int
    failed: int
    seed: int
    first_failure: Optional[str] = None


def exhaustive_consistency_sweep(
    trials: int,
    seed: int = 0,
    delta_denominator: int = 60,
) -> SweepSummary:
    """Random-signal property sweep over counting, inference, and references.

    Deterministic for a given seed: the same signals are drawn and the
    same checks run, so reports are reproducible.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    passed = failed = 0
    first: Optional[str] = None
    for trial in range(trials):
        spec = random_spec(rng)
        atlas = enumerate_atlas(spec)
        full = _full_set(spec, atlas)
        failure = (
            check_pattern_counts(spec, atlas, delta_denominator)
            or check_round_trip(spec, full)
            or check_reference_law(spec, full)
        )
        if failure is None:
            passed += 1
        else:
            failed += 1
            if first is None:
                first = f"trial {trial}: {failure} (spec g={spec.g} n={spec.n} f={spec.f})"
    return SweepSummary(trials=trials, passed=passed, failed=failed, seed=seed, first_failure=first)


# ---------------------------------------------------------------------------
# scenario-level verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_minimax(spec: SignalSpec, full: _FullSet, resolution: int) -> Optional[str]:
    for l, (model, est) in enumerate(full):
        if est is None:
            return f"l={l}: no full estimate, width-two indices {sorted(model.U)}"
        box = feasible_box(model)
        closed = closed_form_energy(model, spec.g)
        worst = worst_case_energy(est, spec.g, box, resolution)
        if worst.value != closed:
            return f"l={l}: oracle worst {worst.value} != closed form {closed}"
        for outcome in worst.zones:
            if outcome.max_energy != outcome.min_energy:
                return f"l={l}: energy varies with placement in zone {outcome.members}"
        report = perturbation_minimax_check(est, spec.g, box, resolution=resolution)
        if not report.passed or not report.all_strict:
            bad = next(p for p in report.probes if not (p.ok and p.strict))
            return (
                f"l={l}: perturbing cell ({bad.cell - 1},{bad.cell}) by {bad.delta} "
                f"moved the worst case to {bad.worst} (baseline {report.baseline})"
            )
    return None


def _check_width2_energy(spec: SignalSpec, atlas: PatternAtlas, resolution: int) -> tuple[Optional[str], str]:
    checked = 0
    for k in range(spec.m):
        obs = ObservationSet.of(
            [atlas.cells[k].pattern, atlas.cells[k + 1].pattern], spec.g
        )
        for l in (0, spec.m):
            model = infer_model(obs, l)
            if not model.chains.empty or not model.U:
                continue
            closed = closed_form_energy(model, spec.g)
            est = estimate_partial(model, spec.g)
            worst = worst_case_energy(est, spec.g, feasible_box(model), resolution)
            if worst.value != closed:
                return (
                    f"pair at cell {k}, l={l}: oracle {worst.value} != closed {closed}", "",
                )
            checked += 1
    return None, f"{checked} adjacent-pair observation sets"


def verify_scenario(spec: SignalSpec, resolution: int = 50, delta_denominator: int = 120) -> list[CheckResult]:
    """Run the full per-signal property suite and report each check."""
    spec = validate_spec(spec)
    atlas = enumerate_atlas(spec)
    full = _full_set(spec, atlas)
    table = (   # (name, failure or None, detail when passed), run in this order
        ("pattern-atlas-and-count-equivalence", check_pattern_counts(spec, atlas, delta_denominator),
         f"{spec.m + 1} cells, {delta_denominator} exact offsets, every region run"),
        ("full-set-round-trip-and-grid-agreement", check_round_trip(spec, full),
         "width-one intervals contain the truth; grid points reproduced"),
        ("best-reference-law", check_reference_law(spec, full), "argmin energy = largest jump"),
        ("minimax-worst-case-equality", _check_minimax(spec, full, resolution),
         f"all {spec.m + 1} references, placement independent, perturbations strict"),
        ("width-two-energy-equality", *_check_width2_energy(spec, atlas, resolution)),
    )
    return [CheckResult(name, failure is None, failure or detail) for name, failure, detail in table]
