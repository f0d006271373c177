"""Estimates of a translated signal from pattern-set knowledge.

The estimate fills the model's feasible box
(:func:`pcsamp.inference.feasible_box`) in one pass over its stretches,
the one tiling of the estimate span.  Each stretch lists its cells and
the amplitudes the truth can take on each (``Zone.cells``, which the
oracle's probes walk too).  A coupled run splits into unit cells, unit
cell j meeting the run's regions j-1, j and j+1 (two at either end);
every other stretch is one cell meeting all of its regions.  One rule
fills every cell: it takes the Chebyshev centre, (min + max) / 2, of the
amplitudes it can meet.  On a forced span there is one, so the estimate
copies the known value; inside an isolated uncertainty interval there are
two, and the midpoint minimizes the worst-case energy.  The estimate is
minimax on forced spans, isolated intervals and chains of two members,
but not on chains of three or more.

Every function here reads the amplitudes once, checked to number one per
region, as integers D * g_i over their common denominator D, zero padded;
the oracle's searches read the same table.  The estimate is built on
ints: each cell's bounds and its centre over 2D.  Point cells are dropped,
and the estimate's function keeps the rest as its integer table, which
the searches rescale instead of putting the function's Fractions on a
lattice again; a set with no regions gets no cells and the zero
function.  The box comes from
:func:`pcsamp.inference.feasible_box`, which each model builds once, and
the cells are :class:`EstimateCell` NamedTuples.

Estimates are piecewise constant on integer grid cells; energies are in
units of amplitude squared times one grid step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, NamedTuple, Optional, Sequence

from .inference import FeasibleBox, ObservationSet, UncertaintyModel, feasible_box, infer_model
from .signal_core import PiecewiseFunction, RationalLike, as_rational, on_lattice

KNOWN = "known"
MIDPOINT = "midpoint"
CHAIN_INTERIOR = "chain_interior"

_lo = attrgetter("lo")


class PartialObservations(ValueError):
    """A full-pattern-set operation received width-two uncertainty."""


def _on_integers(amplitudes: Sequence[RationalLike], m: int) -> tuple[int, list[int]]:
    """D, the amplitudes' common denominator, and D * g_i for i = 0..m+1,
    zero padded; raises unless there are exactly m amplitudes."""
    g = [as_rational(a) for a in amplitudes]
    if len(g) != m:
        raise ValueError(f"expected {m} amplitudes, got {len(g)}")
    D, scaled = on_lattice(g)
    return D, [0, *scaled, 0]


class EstimateCell(NamedTuple):
    """One constant span of the estimate with its provenance.

    ``indices`` are the amplitudes the truth can take on the cell, and
    ``value`` is their centre, (min + max) / 2.  The ``tag`` is read from
    their number: (i,) is a copied known span, (i, i+1) a midpoint cell
    over discontinuity i, and three consecutive indices a coupled-run
    interior cell.
    """

    lo: Fraction
    hi: Fraction
    value: Fraction
    indices: tuple[int, ...]

    @property
    def tag(self) -> str:
        return (KNOWN, MIDPOINT, CHAIN_INTERIOR)[len(self.indices) - 1]


@dataclass(frozen=True)
class Estimate:
    """A piecewise constant estimate on integer grid cells.

    ``box`` is the feasible box the estimate fills; the reference ``l``
    and the ``span`` [G[0].lo, G[m].hi] are read from it, and the oracle
    searches it.  ``cells`` are sorted by (lo, hi) and tile ``span``; a
    degenerate known cell (lo == hi) only fixes the value at its single
    point.

    ``fn`` is the measure-level function (half-open cells) used for
    integration.  ``value_at`` agrees with it inside cells and lets a known
    cell own both of its ends, so grid-point queries reproduce the forced
    signal values exactly; the reference point 0 belongs to the region
    right of the reference, where the signal takes that region's amplitude.
    """

    cells: tuple[EstimateCell, ...]
    fn: PiecewiseFunction
    box: FeasibleBox

    @property
    def l(self) -> int:
        return self.box.l

    @property
    def span(self) -> tuple[int, int]:
        return self.box.G[0][0], self.box.G[-1][1]

    def value_at(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        cells = self.cells
        j = bisect_left(cells, t, key=_lo)   # cells[:j] start left of t
        if j and t < cells[j - 1].hi:
            return cells[j - 1].value
        # t is a cell bound or outside the span: a known cell owns both its
        # ends, but the reference point 0 belongs to region l + 1 alone
        for cell in cells[max(j - 1, 0):bisect_right(cells, t, key=_lo)]:
            if cell.tag == KNOWN and t in (cell.lo, cell.hi) and (t != 0 or cell.indices == (self.l + 1,)):
                return cell.value
        lo, hi = self.span
        if t <= lo or t >= hi:
            return Fraction(0)
        # t sits on a boundary between two open cells; fall back to the
        # half-open convention (the energy does not depend on this point).
        return self.fn.evaluate(t)


def _build_cells(
    box: FeasibleBox, D: int, scaled: Sequence[int]
) -> tuple[tuple[EstimateCell, ...], list[tuple[int, int, int]]]:
    """The cells filling ``box``, in order, and each cell's (lo, hi, 2 D value) as ints."""
    # one pass over the box's stretches, which come in order, so the cells do too
    cells, table = [], []
    bounds: dict[int, Fraction] = {}   # one Fraction per integer bound, shared by neighbouring cells
    centres: dict[int, Fraction] = {}   # one Fraction per centre, over 2 D
    for z in box.stretches:
        for lo, hi, indices in z.cells:
            met = [scaled[i] for i in indices]
            twice = min(met) + max(met)   # the centre of the amplitudes met, over 2 D
            for x in (lo, hi):
                if x not in bounds:
                    bounds[x] = Fraction(x)
            value = centres.get(twice)
            if value is None:
                value = centres[twice] = Fraction(twice, 2 * D)
            cells.append(EstimateCell(bounds[lo], bounds[hi], value, indices))
            table.append((lo, hi, twice))
    return tuple(cells), table


def estimate_partial(model: UncertaintyModel, amplitudes: Sequence[RationalLike]) -> Estimate:
    """Estimate from any pattern-set knowledge.

    It is worst-case optimal (minimax) on forced spans, isolated intervals
    and chains of two members.  It is not minimax for chains of three or
    more members, where moving a single cell can lower the worst case.
    Handles the degenerate all-width-one case identically to
    :func:`estimate_full`.
    """
    D, scaled = _on_integers(amplitudes, model.m)
    box = feasible_box(model)
    cells, table = _build_cells(box, D, scaled)
    wide = [k for k, (lo, hi, _) in enumerate(table) if lo < hi]   # a point cell has no measure
    # the breakpoints increase: every interval has width 1 or 2, a coupled zone
    # one unit cell per region, and the box's stretches tile the span from
    # G[0].lo, so a set with no regions gets the zero function
    start = box.G[0][0]
    xs = (start, *(table[k][1] for k in wide))
    fn = PiecewiseFunction._from_integers(
        (Fraction(start), *(cells[k].hi for k in wide)),
        tuple(cells[k].value for k in wide),
        (1, xs, 2 * D, tuple(table[k][2] for k in wide)),
    )
    return Estimate(cells=cells, fn=fn, box=box)


def estimate_full(model: UncertaintyModel, amplitudes: Sequence[RationalLike]) -> Estimate:
    """Minimax estimate when every interval has width one grid step.

    The signal is copied on forced spans and every uncertainty interval
    takes the midpoint of its two meeting amplitudes.
    """
    if model.U:
        raise PartialObservations(
            f"indices {sorted(model.U)} are only known to width two; use estimate_partial"
        )
    return estimate_partial(model, amplitudes)


def closed_form_energy(
    model: UncertaintyModel, amplitudes: Sequence[RationalLike]
) -> Optional[Fraction]:
    """Worst-case error energy in closed form, when one is known.

    Each discontinuity i contributes width_i * ((g_i - g_{i+1}) / 2)^2,
    width_i being the width of its interval ``model.G[i]``: 1 or 2, and 0
    for the reference.  With chains present there is no closed form and
    None is returned.  The terms are summed over the estimator's integer
    amplitude table, D * g_i, and one Fraction is built at the end.
    """
    D, scaled = _on_integers(amplitudes, model.m)
    if not model.chains.empty:
        return None
    total = sum((hi - lo) * (scaled[i] - scaled[i + 1]) ** 2 for i, (lo, hi) in enumerate(model.G))
    return Fraction(total, 4 * D * D)


def closed_form_energies(
    obs: ObservationSet, amplitudes: Sequence[RationalLike]
) -> tuple[Optional[Fraction], ...]:
    """Entry l is ``closed_form_energy(infer_model(obs, l), amplitudes)``,
    for every l in one pass over the set's rank table
    (``ObservationSet._ranks``).  Index i has width two from reference l
    exactly when r_i = r_l, so with J_i = (D g_i - D g_{i+1})^2,
    E(l) = (sum_{i != l} J_i + sum_{i != l, r_i = r_l} J_i) / 4D^2.  A
    chain joins two width-two intervals, so only where l's rank class
    holds another index is the model built, and None stands where it has
    chains.
    """
    D, scaled = _on_integers(amplitudes, obs.m)
    _, ranks = obs._ranks
    jumps = [(a - b) ** 2 for a, b in zip(scaled, scaled[1:])]
    total, size, by_rank = sum(jumps), Counter(ranks), defaultdict(int)
    for r, j in zip(ranks, jumps):
        by_rank[r] += j
    return tuple(
        None if size[r] > 1 and not infer_model(obs, l).chains.empty
        else Fraction(total + by_rank[r] - 2 * j, 4 * D * D)
        for l, (r, j) in enumerate(zip(ranks, jumps))
    )


def best_reference(amplitudes: Sequence[RationalLike]) -> int:
    """Reference index minimizing the full-pattern-set error energy.

    Equals the index of the largest amplitude jump |g_k - g_{k+1}| over
    k = 0..m (with zero padding outside the support); ties go to the
    smallest index.
    """
    _, scaled = _on_integers(amplitudes, len(amplitudes))
    # max returns the first of equal keys, so ties go to the smallest index
    return max(range(len(scaled) - 1), key=lambda k: abs(scaled[k] - scaled[k + 1]))


def absolute_error_bound(
    model: UncertaintyModel,
    amplitudes: Sequence[RationalLike],
    ghat: Mapping[int, RationalLike],
) -> Fraction:
    """Worst-case absolute error of interval-constant estimates.

    ``ghat`` maps each non-reference discontinuity index to the constant
    used on its width-one interval; the bound is the sum over intervals of
    the larger deviation from the two amplitudes meeting there.  Minimized
    by the midpoints, where it equals half the sum of the jump sizes.
    """
    if model.U:
        raise PartialObservations("the absolute-error bound assumes width-one intervals throughout")
    D, scaled = _on_integers(amplitudes, model.m)
    expected = {i for i in range(model.m + 1) if i != model.l}
    if set(ghat) != expected:
        raise ValueError(f"need one constant per index in {sorted(expected)}")
    total = Fraction(0)   # over D
    for i in expected:
        c = D * as_rational(ghat[i])
        total += max(abs(c - scaled[i]), abs(c - scaled[i + 1]))
    return total / D
