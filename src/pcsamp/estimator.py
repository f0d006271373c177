"""Minimax estimates of a translated signal from pattern-set knowledge.

Between uncertainty intervals the signal value is forced, so the estimate
copies it.  Inside an isolated uncertainty interval the worst-case energy
is minimized by the midpoint of the two amplitudes meeting there.  Inside
a coupled run the interval contents interact: the run's boundary cells
still take two-amplitude midpoints, while each interior unit cell can see
three consecutive amplitudes and takes their Chebyshev center,
(min + max) / 2.

Estimates are piecewise constant on integer grid cells; energies are in
units of amplitude squared times one grid step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .inference import UncertaintyModel
from .signal_core import PiecewiseFunction, RationalLike, as_rational

KNOWN = "known"
MIDPOINT = "midpoint"
CHAIN_INTERIOR = "chain_interior"


class PartialObservations(ValueError):
    """A full-pattern-set operation received width-two uncertainty."""


def amp(amplitudes: Sequence[Fraction], i: int) -> Fraction:
    """Region amplitude g_i with the zero padding g_0 = g_{m+1} = 0."""
    if 1 <= i <= len(amplitudes):
        return amplitudes[i - 1]
    return Fraction(0)


@dataclass(frozen=True)
class EstimateCell:
    """One constant span of the estimate with its provenance.

    ``indices`` are the amplitude indices that set the value: (i,) for a
    copied known span, (i, i+1) for a midpoint cell over discontinuity i,
    and the three consecutive indices for a coupled-run interior cell.
    Known spans own their endpoints (closed); all other cells are open.
    """

    lo: Fraction
    hi: Fraction
    value: Fraction
    tag: str
    indices: tuple[int, ...]
    closed_lo: bool = False
    closed_hi: bool = False


@dataclass(frozen=True)
class Estimate:
    """A piecewise constant estimate on integer grid cells.

    ``cells`` are sorted by (lo, hi) and tile ``span``; a degenerate known
    cell (lo == hi) only fixes the value at its single point.

    ``fn`` is the measure-level function (half-open cells) used for
    integration; ``value_at`` additionally honors closed known spans so
    grid-point queries reproduce the forced signal values exactly.
    """

    l: int
    cells: tuple[EstimateCell, ...]
    fn: PiecewiseFunction
    span: tuple[int, int]

    @cached_property
    def _cell_los(self) -> tuple[Fraction, ...]:
        return tuple(cell.lo for cell in self.cells)

    def value_at(self, t: RationalLike) -> Fraction:
        t = as_rational(t)
        cells, los = self.cells, self._cell_los
        j = bisect_left(los, t)   # cells[:j] start left of t
        if j and t < cells[j - 1].hi:
            return cells[j - 1].value
        # t is a cell bound or outside the span: a known cell owning it wins
        for cell in cells[max(j - 1, 0):bisect_right(los, t)]:
            if cell.tag == KNOWN and (
                (t == cell.lo and cell.closed_lo) or (t == cell.hi and cell.closed_hi)
            ):
                return cell.value
        lo, hi = self.span
        if t <= lo or t >= hi:
            return Fraction(0)
        # t sits on a boundary between two open cells; fall back to the
        # half-open convention (the energy does not depend on this point).
        return self.fn.evaluate(t)

    @property
    def gammas(self) -> dict[int, Fraction]:
        """Constant per unit cell: n -> value on (n-1, n)."""
        lo, hi = self.span
        return {n: self.fn.evaluate(Fraction(2 * n - 1, 2)) for n in range(lo + 1, hi + 1)}


@dataclass(frozen=True)
class ErrorReport:
    """Closed-form energy versus the brute-force worst case for one estimate."""

    closed_form: Optional[Fraction]
    oracle_worst: Fraction
    agrees: bool


def _build_cells(model: UncertaintyModel, amplitudes: Sequence[Fraction]) -> tuple[EstimateCell, ...]:
    m, l, G = model.m, model.l, model.G
    chains = model.chains.plus + model.chains.minus
    independent = model.Ucomp | model.chains.free | {l}

    cells: list[EstimateCell] = []

    # spans where the signal value is forced: region i's left end i-1 is
    # independent or ends a chain, its right end i independent or starts one
    left_ok = independent | {c.members[-1] for c in chains}
    right_ok = independent | {c.members[0] for c in chains}
    for i in range(1, m + 1):
        if (i - 1) in left_ok and i in right_ok:
            lo, hi = Fraction(G[i - 1][1]), Fraction(G[i][0])
            assert lo <= hi, f"forced span for region {i} is inverted"
            # a degenerate span is kept as a point cell: it contributes no
            # measure but still fixes the value at that single grid point
            cells.append(
                EstimateCell(
                    lo=lo, hi=hi, value=amp(amplitudes, i), tag=KNOWN, indices=(i,),
                    closed_lo=True, closed_hi=(i != l),
                )
            )

    def midpoint(i: int, lo: int, hi: int) -> EstimateCell:
        value = (amp(amplitudes, i) + amp(amplitudes, i + 1)) / 2
        return EstimateCell(lo=Fraction(lo), hi=Fraction(hi), value=value, tag=MIDPOINT, indices=(i, i + 1))

    # midpoint cells over isolated uncertainty intervals (width one or two)
    for i in sorted(model.Ucomp | model.chains.free):
        cells.append(midpoint(i, *G[i]))

    # coupled runs: midpoint boundary cells plus Chebyshev-center interiors
    def interior(lo: int, idx: tuple[int, int, int]) -> EstimateCell:
        triple = [amp(amplitudes, j) for j in idx]
        value = (min(triple) + max(triple)) / 2
        return EstimateCell(
            lo=Fraction(lo), hi=Fraction(lo + 1), value=value, tag=CHAIN_INTERIOR, indices=idx
        )

    for c in chains:
        first, last = c.members[0], c.members[-1]
        span_lo = G[first][0]
        cells.append(midpoint(first, span_lo, span_lo + 1))
        for k in range(1, c.b):
            cells.append(interior(span_lo + k, (first + k - 1, first + k, first + k + 1)))
        cells.append(midpoint(last, G[last][1] - 1, G[last][1]))

    cells.sort(key=lambda cell: (cell.lo, cell.hi))
    span_lo, span_hi = Fraction(G[0][0]), Fraction(G[m][1])
    cursor = span_lo
    for cell in cells:
        assert cell.lo == cursor, f"estimate cells leave a gap at {cursor}"
        cursor = cell.hi
    assert cursor == span_hi, "estimate cells must tile the whole span"
    return tuple(cells)


def _assemble(model: UncertaintyModel, cells: tuple[EstimateCell, ...]) -> Estimate:
    wide = [c for c in cells if c.lo < c.hi]
    breakpoints = tuple([wide[0].lo] + [c.hi for c in wide])
    fn = PiecewiseFunction(breakpoints=breakpoints, values=tuple(c.value for c in wide))
    return Estimate(l=model.l, cells=cells, fn=fn, span=(model.G[0][0], model.G[model.m][1]))


def estimate_partial(model: UncertaintyModel, amplitudes: Sequence[RationalLike]) -> Estimate:
    """Worst-case-optimal estimate for any pattern-set knowledge.

    Handles the degenerate all-width-one case identically to
    :func:`estimate_full`.
    """
    g = tuple(as_rational(a) for a in amplitudes)
    if len(g) != model.m:
        raise ValueError(f"expected {model.m} amplitudes, got {len(g)}")
    return _assemble(model, _build_cells(model, g))


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

    Width-one intervals contribute ((g_i - g_{i+1}) / 2)^2 each and
    width-two intervals outside chains contribute twice that.  With chains
    present there is no closed form and None is returned.
    """
    g = tuple(as_rational(a) for a in amplitudes)
    if not model.chains.empty:
        return None

    def term(i: int) -> Fraction:
        return ((amp(g, i) - amp(g, i + 1)) / 2) ** 2

    ones = sum((term(i) for i in model.Ucomp), Fraction(0))
    twos = sum((term(i) for i in model.U), Fraction(0))
    return ones + 2 * twos


def best_reference(amplitudes: Sequence[RationalLike]) -> int:
    """Reference index minimizing the full-pattern-set error energy.

    Equals the index of the largest amplitude jump |g_k - g_{k+1}| over
    k = 0..m (with zero padding outside the support); ties go to the
    smallest index.
    """
    g = tuple(as_rational(a) for a in amplitudes)
    best_k, best_jump = 0, None
    for k in range(len(g) + 1):
        jump = abs(amp(g, k) - amp(g, k + 1))
        if best_jump is None or jump > best_jump:
            best_k, best_jump = k, jump
    return best_k


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
    g = tuple(as_rational(a) for a in amplitudes)
    expected = {i for i in range(model.m + 1) if i != model.l}
    if set(ghat) != expected:
        raise ValueError(f"need one constant per index in {sorted(expected)}")
    total = Fraction(0)
    for i in expected:
        c = as_rational(ghat[i])
        total += max(abs(c - amp(g, i)), abs(c - amp(g, i + 1)))
    return total
