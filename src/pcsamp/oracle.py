"""Brute-force verification of estimates and closed-form energies.

Error energies are exact piecewise integrals, worst cases are searched on
exact rational grids over the feasible placements of the unknown
discontinuities, and minimax claims are probed by perturbing estimate
cells and checking the worst case never improves.

The search runs over the stretches of the feasible box of
:mod:`pcsamp.inference`, the same tiling the estimator fills, with one
candidate generator, :func:`_zone_terms`, and one sweep, :func:`_sweep`,
which the perturbation probes share.  Each stretch costs what its
structure needs.  A forced span, a zone without members, has one energy
whatever the placement: the generator integrates it in one pass over its
pieces and the sweep hands it back.  A member's terms at all of its
candidates cost one more pass over the zone's pieces.  A lone member's
energy is one max over its candidates, and a chain's takes the spacing
propagation and the forward sweep.
Uncertainty intervals form an independent box, except inside coupled runs
where an always-one-sample region forces the spacing of consecutive
discontinuities into [1, 2) grid steps.  Joint constraints beyond that
are intentionally out of scope.

The search runs on integers, on one lattice that the worst case and the
probes both read (:func:`_lattice`), built from the estimate's integer
table (``PiecewiseFunction._integers``): its breakpoints over N_f and
its values over D_f.  The estimator stores the table it built its
function from, and any other function builds it on first use.  Every
position is an integer over N = lcm(R, N_f), R the grid resolution,
every value one over D = 10 lcm(D_f, D_g), D_g the amplitudes' common
denominator, and every integral of (c - estimate)^2 one over N * D^2.
The amplitudes are the estimator's checked, zero-padded table, rescaled
onto D.  Fractions are built only for the results, and the records made
per stretch and per probe, :class:`ZoneOutcome` and
:class:`PerturbationProbe`, are NamedTuples.  Between the estimate's
cuts the energy is linear in each discontinuity, and the constraints are
integer bounds and differences, so every extreme sits at a vertex of the
grid's feasible set.  The sweep visits only those candidate vertices, a
few per member, and its cost does not grow with R.

A probe sets unit cell C to gamma + s, gamma the value at C's midpoint.  At
each placement y the zone's energy is then
E(y) + s^2 |C| - 2 s J(y), where E is the energy with C at gamma and
J(y), the integral of (truth - gamma) over C, is (a_last - gamma) |C| plus
one term per member k, (a_k - a_{k+1}) times the length of C left of it.
So each probed cell's zone is searched once, with C at gamma and C's
ends as cuts, and each of its four shifts reruns only the sweep: for a
lone member, one max over its shifted weights, by the sweep's own rule
(:func:`_lone`).  Where C's ends are already consecutive cuts of the
zone, as on every zone of a full-atlas estimate, that search is the
base's, and its table is reused.  The probes walk the cells of the box's
zones (``Zone.cells``) and scale a cell's shifts to the spread of the
amplitudes it meets, so the check reads an estimate only through its
function and its box.  Forced spans are not probed: there the estimate
copies the known signal, so a shift s adds exactly s^2 per unit of
length and cannot lower the worst case.

:func:`energy_between` integrates with Fractions and stays the
independent cross-check.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .estimator import (
    Estimate,
    _on_integers,
    best_reference,
    closed_form_energy,
    estimate_full,
    estimate_partial,
)
# feasible_box is re-exported: the benchmark's tracer patches it as oracle.feasible_box
from .inference import FeasibleBox, ObservationSet, UncertaintyModel, Zone, feasible_box, infer_model
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


class ZoneOutcome(NamedTuple):
    members: tuple[int, ...]
    max_energy: Fraction
    min_energy: Fraction
    argmax: tuple[Fraction, ...]


@dataclass(frozen=True)
class WorstCase:
    """Worst-case energy over the feasible grid, with an achieving witness.

    ``stretches`` holds one outcome per stretch of the box with measure
    (lo < hi), in ``box.stretches`` order: a forced span's outcome has no
    members and one energy, and ``value`` sums their maxima.
    """

    value: Fraction
    witness: dict[int, Fraction]
    stretches: tuple[ZoneOutcome, ...]

    @property
    def zones(self) -> tuple[ZoneOutcome, ...]:
        """The outcomes of the stretches with members."""
        return tuple(o for o in self.stretches if o.members)


class PerturbationProbe(NamedTuple):
    cell: int                 # unit cell (cell-1, cell)
    delta: Fraction
    worst: Fraction
    ok: bool                  # worst case did not decrease
    strict: bool              # worst case strictly increased


@dataclass(frozen=True)
class PerturbationReport:
    """The unperturbed worst case and every probe measured against it."""

    worst: WorstCase
    probes: tuple[PerturbationProbe, ...]

    @property
    def baseline(self) -> Fraction:
        return self.worst.value

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.probes)

    @property
    def all_strict(self) -> bool:
        return all(p.strict for p in self.probes)

    @property
    def violations(self) -> tuple[PerturbationProbe, ...]:
        return tuple(p for p in self.probes if not p.ok)


@dataclass(frozen=True)
class CheckResult:
    """One verification row: a named check, and its failure or what it covered."""

    name: str
    passed: bool
    detail: str


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


def _lattice(
    est: Union[Estimate, PiecewiseFunction], amplitudes: Sequence[Fraction], box: FeasibleBox, resolution: int,
) -> tuple:
    """(N, D, breakpoints, values, amplitudes), the one lattice of both
    searches, once ``resolution`` and ``box`` pass their shared checks: at
    least 2 grid points per unit interval, and an :class:`Estimate` searched
    only on the box it fills (a bare function on any box).  The function's
    integer table (breakpoints over N_f, values over D_f, and its zero on
    either side) and the estimator's checked, zero-padded amplitudes (over
    D_g) are rescaled to positions over N = lcm(R, N_f) and values over
    D = 10 lcm(D_f, D_g): the factor 10 puts every probe shift, a tenth or
    a half of an amplitude jump, on the lattice."""
    if resolution < 2:
        raise ValueError("need at least 2 grid points per unit interval")
    if isinstance(est, Estimate) and box is not est.box and (box.l, box.G) != (est.box.l, est.box.G):
        raise ValueError(
            f"the box (l={box.l}, G={box.G}) is not the estimate's (l={est.box.l}, G={est.box.G})"
        )
    fn = est.fn if isinstance(est, Estimate) else est
    Dg, amps = _on_integers(amplitudes, box.m)
    Nf, xs, Df, vals = fn._integers
    N, D = math.lcm(resolution, Nf), 10 * math.lcm(Df, Dg)
    x, v, a = N // Nf, D // Df, D // Dg
    return N, D, [x * b for b in xs], [0, *(v * y for y in vals), 0], [a * g for g in amps]


def _pieces(lattice: tuple, zone: Zone) -> tuple[list[int], list[int], list[int]]:
    """fn on the zone as pieces: the cuts lo, fn's breakpoints inside (lo, hi)
    and hi, fn's value between each two consecutive cuts, and the amplitudes
    of ``zone.regions``, all on the lattice."""
    N, _, xs, fs, cs = lattice
    lo, hi = zone.lo * N, zone.hi * N
    first, last = bisect_right(xs, lo), bisect_left(xs, hi)
    return [lo, *xs[first:last], hi], fs[first:last + 1], [cs[i] for i in zone.regions]


def _integral(cuts: Sequence[int], vals: Sequence[int], c: int) -> int:
    """(c - f)^2 integrated from the first cut to the last, over N * D^2,
    for f's pieces ``cuts`` and ``vals`` (see :func:`_pieces`)."""
    total = 0
    for a, b, v in zip(cuts, cuts[1:], vals):
        total += (c - v) ** 2 * (b - a)
    return total


def _terms(cuts: Sequence[int], vals: Sequence[int], c: int, d: int, ys: Sequence[int], step: int) -> list[int]:
    """(c - f)^2 - (d - f)^2 integrated from the first cut to each x = y *
    ``step``, for ascending ``ys`` whose x lie between the first and the
    last cut, on f's pieces ``cuts`` and ``vals`` (see :func:`_pieces`).
    The integrand is (c - d)(c + d - 2f), and one walk over the pieces
    serves every x: O(pieces + len(ys))."""
    out, s, done, i, last = [], c + d, 0, 0, len(vals)
    for y in ys:
        x = y * step
        while i < last and cuts[i + 1] <= x:   # piece i lies wholly left of x
            done += (s - 2 * vals[i]) * (cuts[i + 1] - cuts[i])
            i += 1
        out.append((c - d) * (done + (s - 2 * vals[i]) * (x - cuts[i]) if i < last else done))
    return out


def _zone_terms(
    cuts: Sequence[int], vals: Sequence[int], amps: Sequence[int],
    box: FeasibleBox, zone: Zone, resolution: int, N: int,
) -> tuple[int, list[list[int]], list[list[int]]]:
    """The zone's energy as (tail, candidates, weights): the energy is
    ``tail`` plus, for each member k, ``weights[k][i]`` at the member's
    grid index ``candidates[k][i]``, for the estimate's pieces on the zone
    (see :func:`_pieces`): ``cuts`` over N, ``vals`` and ``amps`` over D,
    and energies over N * D^2.

    Within a zone the truth takes the amplitudes of ``zone.regions`` in
    order, each up to the next member discontinuity.  A zone without
    members, a forced span, has one energy, ``tail``, and no candidates.
    Otherwise positions are grid indices y, the placement y/R
    (R = ``resolution``), strictly inside each member's interval; a
    coupled step keeps the spacing in [1, 2), that is R <= q - p < 2R.
    The energy is the last amplitude's integral over the zone plus one
    term per member, each linear in its member between the estimate's
    cuts.  Restricted to one linear piece per member, the feasible set is
    an integral polytope (integer bounds and differences), so every
    maximum, every minimum, the witness of :func:`_sweep` and every
    non-empty prefix of the chain contain one of its vertices.  A vertex
    coordinate of member k is a bound of some member j -- an end of its
    grid or the grid index on either side of a cut inside its interval --
    moved by |k - j| spacings of R or 2R - 1 and clipped to each member's
    grid on the way.  Those are the candidates, ascending, so the sweep's
    cost does not grow with R.  A lone member has no neighbour to move a
    bound onto it, so its candidates are its own bounds.  A member's terms
    at all of its candidates cost one walk over the zone's pieces
    (:func:`_terms`)."""
    members = zone.members
    tail = _integral(cuts, vals, amps[-1])
    if not members:
        return tail, [], []
    r, step = resolution, N // resolution
    inner = cuts[1:-1]   # the zone's ends lie at or outside every member's interval
    grids, own = [], []
    for i in members:
        a, b = box.G[i]
        if a < zone.lo or b > zone.hi:
            raise ValueError("zone members must lie inside the zone")
        lo, hi = a * r + 1, b * r - 1
        ys = {lo, hi}
        for x in inner:
            if a * N < x < b * N:   # the grid indices on either side of a cut inside the interval
                ys.add(min(max(x // step, lo), hi))
                ys.add(min(max(-(-x // step), lo), hi))
        grids.append((lo, hi))
        own.append(ys)
    found = own
    if len(members) > 1:   # a lone member's vertices are its own
        found = [set() for _ in members]
        for order, sign in ((range(len(members)), 1), (range(len(members) - 1, -1, -1), -1)):
            moved: set[int] = set()
            for k in order:
                lo, hi = grids[k]
                moved = own[k] | {min(max(y + sign * s, lo), hi) for y in moved for s in (r, 2 * r - 1)}
                found[k] |= moved
    candidates, weights = [], []
    for k, ys in enumerate(found):
        # member k's term at grid index y: amps[k] on its left, amps[k+1] on its right
        ys = sorted(ys)
        candidates.append(ys)
        weights.append(_terms(cuts, vals, amps[k], amps[k + 1], ys, step))
    return tail, candidates, weights


def _lone(tail: int, ys: Sequence[int], ws: Sequence[int]) -> tuple[int, int, tuple[int]]:
    """A lone member's largest and smallest energy, ``tail`` plus its
    largest and smallest weight ``ws``, and as witness the first of its
    candidates ``ys`` that reaches the largest: with no neighbour to
    couple it, every candidate is a placement, and the earliest wins ties
    as in the chain sweep."""
    top = max(ws)
    return top + tail, min(ws) + tail, (ys[ws.index(top)],)


def _sweep(table: tuple, zone: Zone, resolution: int) -> tuple[int, int, tuple[int, ...]]:
    """The exact largest and smallest energy of a zone's (tail,
    candidates, weights) table (see :func:`_zone_terms`) over the grid:
    the tail plus the members' weights, over the placements a coupled step
    allows (R <= q - p < 2R between consecutive members,
    R = ``resolution``), and the grid indices of a largest one, the
    witness.  The sweep runs forward over the candidates only.  Among the
    maximal placements the witness puts the last member earliest, then the
    one before it, and so on.  A table without candidates, a forced
    span's, has the one energy ``tail``, and a lone member's extremes are
    its largest and smallest weight."""
    tail, candidates, weights = table
    if not candidates:
        return tail, tail, ()
    if len(candidates) == 1:
        return _lone(tail, candidates[0], weights[0])
    r = resolution
    # per reached candidate of the current member, in ascending order: the
    # largest and smallest sum of the terms up to that member
    hi_state = dict(zip(candidates[0], weights[0]))
    lo_state = dict(hi_state)
    backs = []
    for qs, ws in zip(candidates[1:], weights[1:]):
        hi_next: dict[int, int] = {}
        lo_next: dict[int, int] = {}
        back: dict[int, int] = {}
        for q, w in zip(qs, ws):
            reach = [p for p in hi_state if r <= q - p < 2 * r]
            if reach:
                back[q] = max(reach, key=hi_state.__getitem__)   # the earliest on ties
                hi_next[q] = hi_state[back[q]] + w
                lo_next[q] = min(lo_state[p] for p in reach) + w
        if not back:
            raise EmptyFeasibleSet(
                f"no grid placement satisfies the spacing constraints in zone {zone.members}"
            )
        hi_state, lo_state = hi_next, lo_next
        backs.append(back)

    path = [max(hi_state, key=hi_state.__getitem__)]
    for back in reversed(backs):
        path.append(back[path[-1]])
    return hi_state[path[0]] + tail, min(lo_state.values()) + tail, tuple(reversed(path))


def _search(lattice: tuple, box: FeasibleBox, resolution: int) -> tuple[WorstCase, list[tuple], int]:
    """The worst case over the grid, searched on ``lattice`` (see
    :func:`_lattice`); for each zone with measure, in order, what its
    search built: (zone, pieces, table, top), its :func:`_pieces`, its
    :func:`_zone_terms` table and its maximum over N * D^2; and the worst
    case's value over N * D^2."""
    N, D = lattice[:2]
    scale = N * D * D
    total, outcomes, searched, witness = 0, [], [], {box.l: Fraction(0)}
    for z in box.stretches:
        if z.lo < z.hi:
            pieces = _pieces(lattice, z)
            table = _zone_terms(*pieces, box, z, resolution, N)
            top, bottom, path = _sweep(table, z, resolution)
            high = Fraction(top, scale)
            members = z.members
            if members:
                low = high if bottom == top else Fraction(bottom, scale)
                argmax = tuple([Fraction(y, resolution) for y in path])
                witness.update(zip(members, argmax))
                outcomes.append(ZoneOutcome(members, high, low, argmax))
                searched.append((z, pieces, table, top))
            else:   # a forced span: one energy and no witness
                outcomes.append(ZoneOutcome(members, high, high, ()))
            total += top
    return WorstCase(value=Fraction(total, scale), witness=witness, stretches=tuple(outcomes)), searched, total


def worst_case_energy(
    est: Union[Estimate, PiecewiseFunction],
    amplitudes: Sequence[Fraction],
    box: FeasibleBox,
    resolution: int = 50,
) -> WorstCase:
    """Maximize the error energy over the grid's feasible discontinuity placements.

    The search grid uses rational points with denominator ``resolution``
    strictly inside each uncertainty interval, so every evaluation is
    exact, and the result is the maximum over that grid, not the supremum
    over the open feasible set.  For a chain the grid maximum lies below
    the supremum: ``[(3, 1)]`` with g = (4, 2) and l = 0 gives 26/5,
    148/25 and 1499/250 at resolutions 5, 50 and 1000, against a supremum
    of 6.  The total is one term per stretch of ``box.stretches``, on the
    lattice the probes read too (:func:`_lattice`), and each stretch costs
    what its structure needs.  A forced span's energy does not depend on the
    placement: it is one pass over the estimate's pieces on it, however long
    the span.  A lone member's is one max over its candidates from
    :func:`_zone_terms`, and a chain's takes the generator's spacing
    propagation and the forward sweep of :func:`_sweep`.  Zones are searched
    independently (jointly inside coupled runs), at a cost that depends on
    their members and the estimate's breakpoints inside them, not on
    ``resolution``, and a point span, which has no measure, is skipped.
    ``stretches`` keeps every outcome.  An :class:`Estimate` must fill
    ``box``: a box of another reference or other intervals raises
    ``ValueError``; a bare :class:`PiecewiseFunction` is searched on any
    box.
    """
    return _search(_lattice(est, amplitudes, box, resolution), box, resolution)[0]


def _auto_deltas(amps: Sequence[int], cell: tuple[int, int, tuple[int, ...]]) -> tuple[int, ...]:
    """Probe shifts for the unit cells of a zone's ``cell`` (lo, hi,
    regions met; see :attr:`pcsamp.inference.Zone.cells`), scaled to the
    spread of the amplitudes the cell meets, on the search lattice:
    ``amps`` are the padded amplitudes over D, each a multiple of 10
    (:func:`_lattice`)."""
    lo, _, regions = cell
    met = [amps[j] for j in regions]
    gap = max(met) - min(met)
    if gap == 0:
        raise ValueError(f"unit cell ({lo}, {lo + 1}) meets no amplitude jump to scale its probes to")
    return (gap // 10, -gap // 10, gap // 2, -gap // 2)


def perturbation_minimax_check(
    est: Union[Estimate, PiecewiseFunction],
    amplitudes: Sequence[Fraction],
    box: FeasibleBox,
    resolution: int = 50,
) -> PerturbationReport:
    """Probe local minimax optimality cell by cell.

    Every adjustable unit cell (n-1, n) gets its value shifted by four
    deltas scaled to the governing amplitude jump, and the worst case is
    recomputed.  The probes walk the box's zones in order, each cell by
    cell (:attr:`pcsamp.inference.Zone.cells`), and scale a cell's shifts
    to the spread of the amplitudes it meets there.  Forced spans are not
    probed (see the module docstring), so the work does not grow with a
    region's length.  Only the zone that holds the cell changes.  The check
    runs the search of :func:`worst_case_energy`, which gives its
    :class:`WorstCase` and each zone's unperturbed energy.  A probed cell's
    zone is searched once: its candidates and member terms come from
    :func:`_zone_terms`, one pass over the zone's pieces per member, with
    the cell at its midpoint value gamma, and a shift s adds
    s^2 |C| - 2 s J(y), J(y) the integral of (truth - gamma) over the cell
    (see the module docstring), so each shift reruns only :func:`_sweep`,
    and a shift of a lone member's cell only its one max (:func:`_lone`).
    Where the cell's ends are consecutive cuts of the zone, its pieces are
    the zone's own, and it reads the base search's table instead.  The
    shifts are read from the lattice's amplitudes, and the probes compare
    integers.  A worst case that decreases is recorded as a violation, not
    raised.  ``est`` and ``box`` are checked as for
    :func:`worst_case_energy`: a bare function is probed on any box.
    """
    lattice = _lattice(est, amplitudes, box, resolution)
    N, D, *_, padded = lattice   # padded: the amplitudes over D, zero padded
    base, searched, total = _search(lattice, box, resolution)
    scale, step = N * D * D, N // resolution
    deltas: dict[int, Fraction] = {}   # one Fraction per shift
    probes: list[PerturbationProbe] = []
    for z, (cuts, vals, amps), table, own in searched:
        for cell in z.cells:
            shifts = _auto_deltas(padded, cell)
            for n in range(cell[0] + 1, cell[1] + 1):
                lo, hi = (n - 1) * N, n * N
                a, b = bisect_left(cuts, lo), bisect_right(cuts, hi)
                # the zone searched once with the cell at gamma, the value at its
                # midpoint; a shift s adds s^2 N - 2 s J(y), J(y) the integral of
                # (truth - gamma) over the cell
                if cuts[a:b] == [lo, hi]:   # the cell is one of the zone's pieces
                    gamma = vals[a]
                    tail, candidates, weights = table
                else:
                    gamma = vals[bisect_right(cuts, (lo + hi) // 2) - 1]
                    tail, candidates, weights = _zone_terms(
                        (*cuts[:a], lo, hi, *cuts[b:]), (*vals[:a], gamma, *vals[b - 1:]),
                        amps, box, z, resolution, N,
                    )
                inside = [   # member k's part of J: its jump times the cell's length left of it
                    [(amps[k] - amps[k + 1]) * min(max(y * step - lo, 0), N) for y in ys]
                    for k, ys in enumerate(candidates)
                ]
                for shift in shifts:
                    t = 2 * shift
                    fixed = tail + (shift * shift - t * (amps[-1] - gamma)) * N   # s^2 N and J's constant part
                    if len(candidates) == 1:   # a lone member: no sweep, one max over its shifted weights
                        top = _lone(fixed, candidates[0], [w - t * j for w, j in zip(weights[0], inside[0])])[0]
                    else:
                        moved = [[w - t * j for w, j in zip(ws, js)] for ws, js in zip(weights, inside)]
                        top = _sweep((fixed, candidates, moved), z, resolution)[0]
                    if shift not in deltas:
                        deltas[shift] = Fraction(shift, D)
                    worst = Fraction(total - own + top, scale)
                    probes.append(PerturbationProbe(n, deltas[shift], worst, top >= own, top > own))
    return PerturbationReport(worst=base, probes=tuple(probes))


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
        truth_positions = translate(spec, l)
        for i in range(spec.m + 1):
            if i == l:
                continue
            lo, hi = model.G[i]
            if not (lo < truth_positions[i] < hi):
                return f"l={l}: truth D_{i}={truth_positions[i]} outside ({lo}, {hi})"
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


def _signal_checks(
    spec: SignalSpec, atlas: PatternAtlas, full: _FullSet, delta_denominator: int
) -> Iterator[tuple[str, Optional[str], str]]:
    """The checks that both :func:`verify_scenario` and
    :func:`exhaustive_consistency_sweep` run on one signal, in order, as
    (name, failure or None, detail when passed) rows.  Each check runs only
    when its row is drawn, so a caller can stop at the first failure."""
    yield ("pattern-atlas-and-count-equivalence", check_pattern_counts(spec, atlas, delta_denominator),
           f"{spec.m + 1} cells, {delta_denominator} exact offsets, every region run")
    yield ("full-set-round-trip-and-grid-agreement", check_round_trip(spec, full),
           "width-one intervals contain the truth; grid points reproduced")
    yield ("best-reference-law", check_reference_law(spec, full), "argmin energy = largest jump")


def exhaustive_consistency_sweep(
    trials: int,
    seed: int = 0,
    delta_denominator: int = 60,
) -> CheckResult:
    """Random-signal property sweep over counting, inference, and references.

    Deterministic for a given seed: the same signals are drawn and the
    same checks run, so reports are reproducible.  The sweep stops at the
    first failing check and reports it with its trial and signal.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    name = f"random-consistency-sweep(seed={seed})"
    rng = random.Random(seed)
    for trial in range(trials):
        spec = random_spec(rng)
        atlas = enumerate_atlas(spec)
        for _, failure, _ in _signal_checks(spec, atlas, _full_set(spec, atlas), delta_denominator):
            if failure is not None:
                return CheckResult(
                    name, False, f"trial {trial}: {failure} (spec g={spec.g} n={spec.n} f={spec.f})"
                )
    return CheckResult(name, True, f"{trials}/{trials} random signals")


# ---------------------------------------------------------------------------
# scenario-level verification suite
# ---------------------------------------------------------------------------

def _check_minimax(spec: SignalSpec, full: _FullSet) -> Optional[str]:
    for l, (model, est) in enumerate(full):
        if est is None:
            return f"l={l}: no full estimate, width-two indices {sorted(model.U)}"
        closed = closed_form_energy(model, spec.g)
        report = perturbation_minimax_check(est, spec.g, est.box)
        worst = report.worst
        if worst.value != closed:
            return f"l={l}: oracle worst {worst.value} != closed form {closed}"
        for outcome in worst.zones:
            if outcome.max_energy != outcome.min_energy:
                return f"l={l}: energy varies with placement in zone {outcome.members}"
        if not report.all_strict:   # a strict probe is also ok
            bad = next(p for p in report.probes if not p.strict)
            return (
                f"l={l}: perturbing cell ({bad.cell - 1},{bad.cell}) by {bad.delta} "
                f"moved the worst case to {bad.worst} (baseline {report.baseline})"
            )
    return None


def _check_width2_energy(spec: SignalSpec, atlas: PatternAtlas) -> tuple[Optional[str], str]:
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
            try:
                est = estimate_partial(model, spec.g)
            except AssertionError as exc:   # the known inverted forced-span defect
                return f"pair at cell {k}, l={l}: {exc}", ""
            worst = worst_case_energy(est, spec.g, est.box)
            if worst.value != closed:
                return (
                    f"pair at cell {k}, l={l}: oracle {worst.value} != closed {closed}", "",
                )
            checked += 1
    return None, f"{checked} adjacent-pair observation sets"


def _check_observations(spec: SignalSpec, obs: ObservationSet) -> tuple[Optional[str], str]:
    """The scenario's own observations, at every reference: the truth lies
    strictly inside every interval, and where no chain is seen, the
    estimate's error against the truth equals the closed form, since
    midpoint cells make an isolated interval's energy independent of where
    the discontinuity lies in it."""
    energies = 0
    for l in range(spec.m + 1):
        model = infer_model(obs, l)
        truth = translate(spec, l)
        for i, (lo, hi) in enumerate(model.G):
            if i != l and not lo < truth[i] < hi:
                return f"l={l}: truth D_{i}={truth[i]} outside ({lo}, {hi})", ""
        if not model.chains.empty:
            continue
        try:
            est = estimate_partial(model, spec.g)
        except AssertionError as exc:   # the known inverted forced-span defect
            return f"l={l}: {exc}", ""
        energy, closed = energy_between(est.fn, truth_function(spec, l)), closed_form_energy(model, spec.g)
        if energy != closed:
            return f"l={l}: truth energy {energy} != closed form {closed}", ""
        energies += 1
    return None, (
        f"truth inside every interval at all {spec.m + 1} references; "
        f"truth energy = closed form at {energies}"
    )


def verify_scenario(
    spec: SignalSpec, obs: Optional[ObservationSet] = None, delta_denominator: int = 120
) -> list[CheckResult]:
    """Run the full per-signal property suite and report each check; with
    ``obs``, the scenario's own observations are checked too."""
    spec = validate_spec(spec)
    atlas = enumerate_atlas(spec)
    full = _full_set(spec, atlas)
    table = (   # (name, failure or None, detail when passed), run in this order
        *_signal_checks(spec, atlas, full, delta_denominator),
        ("minimax-worst-case-equality", _check_minimax(spec, full),
         f"all {spec.m + 1} references, placement independent, perturbations strict"),
        ("width-two-energy-equality", *_check_width2_energy(spec, atlas)),
        *([("scenario-observations", *_check_observations(spec, obs))] if obs is not None else []),
    )
    return [CheckResult(name, failure is None, failure or detail) for name, failure, detail in table]
