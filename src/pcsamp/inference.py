"""Recover discontinuity-location knowledge from observed count patterns.

Given a set of count patterns and a reference discontinuity l, each other
discontinuity i is located through the cumulative count of samples between
it and the reference.  Observing both achievable values of that count pins
the discontinuity to an open interval of width one grid step; observing a
single value only pins it to width two.  Coupling is read from the
intervals: a run of overlapping consecutive intervals is a chain, and
:func:`chain_analysis` builds each chain once, as a coupled :class:`Zone`.

:func:`feasible_box` turns a model into the one tiling of the estimate span
that the estimator fills and the oracle searches, ``FeasibleBox.stretches``.
Every stretch is a :class:`Zone` that lists the amplitudes the truth can
take on it: the model's chains, one isolated interval per other
discontinuity, and, between them, the forced spans, member-less zones of
one region each.

The module works purely from patterns and known amplitudes; it never needs
the generating signal, so it solves the inverse problem as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain as chained
from typing import Iterable, Sequence

from .sampler import PatternAtlas, SamplingPattern
from .signal_core import RationalLike, as_rational


class InconsistentObservations(ValueError):
    """The observed patterns cannot all come from one signal."""


@dataclass(frozen=True)
class ObservationSet:
    """Distinct observed count patterns plus the known region amplitudes.

    Every count is an int of at least one: a count that is not an int (a
    float or a bool) is rejected, not truncated, however the set is built.
    The patterns are kept distinct and sorted, and :meth:`of` also takes
    plain sequences.  The set keeps one table that every reference reads,
    ``_levels``: for each index i, the distinct counts of samples in
    regions 1..i, each with a bitmask of the patterns that show it.
    """

    patterns: tuple[SamplingPattern, ...]
    amplitudes: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("at least one observed pattern is required")
        # one C-level pass over every count; bool and float are not counts
        if not set(map(type, chained.from_iterable(chained.from_iterable(self.patterns)))) <= {int}:
            bad = next(p for p in self.patterns if not set(map(type, p.eta)) <= {int})
            raise ValueError(f"pattern {bad.eta} has a count that is not an int")
        object.__setattr__(self, "patterns", tuple(sorted(set(self.patterns))))
        m = len(self.amplitudes)
        for p in self.patterns:
            if p.m != m:
                raise ValueError(f"pattern {p.eta} has {p.m} regions, expected {m}")
            if m and min(p.eta) < 1:
                raise ValueError(f"pattern {p.eta} has a non-positive count; every region holds a sample")

    @classmethod
    def of(
        cls,
        patterns: Iterable[Sequence[int] | SamplingPattern],
        amplitudes: Sequence[RationalLike],
    ) -> "ObservationSet":
        return cls(
            patterns=tuple(p if isinstance(p, SamplingPattern) else SamplingPattern(tuple(p)) for p in patterns),
            amplitudes=tuple(as_rational(a) for a in amplitudes),
        )

    @classmethod
    def from_atlas(cls, atlas: PatternAtlas, amplitudes: Sequence[RationalLike]) -> "ObservationSet":
        return cls.of(atlas.patterns, amplitudes)

    @property
    def m(self) -> int:
        return len(self.amplitudes)

    @cached_property
    def _levels(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Entry [i]: each distinct count of samples in regions 1..i, paired
        with a bitmask of the patterns that show it (bit j for pattern j).
        A count that every pattern shares, as row 0's always is, needs no
        pass over the patterns: its mask is all of them."""
        P = len(self.patterns)
        every = (1 << P) - 1
        levels = []
        for row in zip(*(accumulate(p.eta, initial=0) for p in self.patterns)):
            if row.count(row[0]) == P:
                levels.append(((row[0], every),))
                continue
            masks: dict[int, int] = {}
            bit = 1
            for count in row:
                masks[count] = masks.get(count, 0) | bit
                bit <<= 1
            levels.append(tuple(masks.items()))
        return tuple(levels)


@dataclass(frozen=True)
class Zone:
    """One stretch of the estimate span and the amplitudes the truth can take on it.

    ``regions`` are consecutive amplitude indices and ``members`` the
    discontinuities between them: ``(i,)`` is a forced span of region i,
    with no members; ``(i, i+1)`` the isolated interval of discontinuity
    i; ``(a, ..., b+1)`` a chain, a run of discontinuities a..b whose
    consecutive intervals overlap.  ``lo`` and ``hi`` bound the stretch in
    grid units.
    """

    regions: tuple[int, ...]
    lo: int
    hi: int

    @property
    def members(self) -> tuple[int, ...]:
        return self.regions[:-1]

    @property
    def coupled(self) -> bool:
        return len(self.regions) > 2


@dataclass(frozen=True)
class ChainStructure:
    """The chains of a model as coupled zones, each side ordered outward
    from the reference."""

    plus: tuple[Zone, ...]             # chains to the right of the reference
    minus: tuple[Zone, ...]            # chains to the left of the reference

    @property
    def empty(self) -> bool:
        return not self.plus and not self.minus


@dataclass(frozen=True)
class UncertaintyModel:
    """Everything known about discontinuity positions for one reference.

    ``G[i]`` is the open interval (in integer grid units) that must
    contain discontinuity i, the one record of what the observations say
    about it: its width is 1 or 2 grid steps, and ``G[l] == (0, 0)`` has
    width 0.  The rest is read from G: ``C[i]`` is the interval's anchor
    integer, the larger observed cumulative count (``C[l] == 0``), ``U``
    the indices known only to width two, and ``chains`` the runs of
    overlapping intervals (:func:`chain_analysis`).
    """

    l: int
    G: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.G) - 1

    def width(self, i: int) -> int:
        lo, hi = self.G[i]
        return hi - lo

    @cached_property
    def C(self) -> tuple[int, ...]:
        return tuple(lo + 1 if i > self.l else 1 - hi if i < self.l else 0 for i, (lo, hi) in enumerate(self.G))

    @cached_property
    def U(self) -> frozenset[int]:
        return frozenset(i for i, (lo, hi) in enumerate(self.G) if hi - lo == 2)

    @cached_property
    def chains(self) -> ChainStructure:
        return chain_analysis(self.G)


def cumulative_values(obs: ObservationSet, l: int, i: int) -> set[int]:
    """Observed values of the sample count between discontinuities i and l.

    For i > l this is eta_{l+1} + ... + eta_i, for i < l it is
    eta_{i+1} + ... + eta_l.  Consistent observations yield one value or
    two consecutive values; anything else is rejected.  Each value is the
    difference of two levels of ``obs._levels`` that some pattern shows
    both of, found by ANDing their masks: a call costs one AND of two
    P-bit masks per pair of levels, four pairs at most for consistent
    observations, instead of one step per observed pattern.
    """
    levels = obs._levels
    m = len(levels) - 1
    if not (0 <= i <= m and 0 <= l <= m):
        raise IndexError(f"indices i={i}, l={l} outside 0..{m}")
    if i == l:
        raise ValueError("the reference discontinuity has no cumulative count")
    if i > l:
        lo_r, hi_r = l + 1, i
    else:
        lo_r, hi_r = i + 1, l
    vals = set()
    for a, mask in levels[hi_r]:
        for b, other in levels[lo_r - 1]:
            if mask & other:
                vals.add(a - b)
    if len(vals) > 2 or (len(vals) == 2 and max(vals) - min(vals) != 1):
        raise InconsistentObservations(
            f"cumulative counts over regions {lo_r}..{hi_r} take values {sorted(vals)}; "
            "a single signal allows only one value or two consecutive ones"
        )
    return vals


def chain_analysis(G: Sequence[tuple[int, int]]) -> ChainStructure:
    """Group overlapping intervals into coupled runs.

    A chain is a maximal run a..b (a < b) of discontinuities whose
    neighbouring intervals overlap, ``G[i-1].hi > G[i].lo``, returned as a
    coupled :class:`Zone` from G[a].lo to G[b].hi.  Two intervals overlap
    exactly when both are width two and the region between them always
    holds one sample, which ties their spacing; the reference's interval
    never overlaps a neighbour.  A run whose span ends at the reference
    (lo == 0 or hi == 0) is not a chain: its members stay isolated
    intervals, and ``FeasibleBox.stretches`` rejects the inverted forced
    span between them (a known defect).
    """
    runs: list[Zone] = []
    a = 0
    for b in range(len(G)):
        if b + 1 == len(G) or G[b][1] <= G[b + 1][0]:   # the run a..b ends at b
            if a < b:
                runs.append(Zone(regions=tuple(range(a, b + 2)), lo=G[a][0], hi=G[b][1]))
            a = b + 1
    # each side outward from the reference
    return ChainStructure(
        plus=tuple(z for z in runs if z.lo > 0),
        minus=tuple(z for z in reversed(runs) if z.hi < 0),
    )


def infer_model(obs: ObservationSet, l: int) -> UncertaintyModel:
    """Locate every discontinuity relative to reference l as far as possible.

    One rule builds every interval.  With c = C_i the largest observed
    cumulative count, discontinuity i lies in (c - 1, c) when two values
    were seen and in (c - 1, c + 1) when only one was, measured outward
    from the reference: right of l as is, left of l reflected to negative
    positions.  The model keeps only l and these intervals; everything
    else it reports is read from them.
    """
    m = obs.m
    if not (0 <= l <= m):
        raise IndexError(f"reference index {l} outside 0..{m}")
    G: list[tuple[int, int]] = [(0, 0)] * (m + 1)
    for i in range(m + 1):
        if i == l:
            continue
        vals = cumulative_values(obs, l, i)
        c = max(vals)
        assert c - 1 >= 0, "interval must lie on the reference's correct side"
        lo, hi = c - 1, c + (len(vals) == 1)   # right of l; the left side is its reflection
        G[i] = (-hi, -lo) if i < l else (lo, hi)
    return UncertaintyModel(l=l, G=tuple(G))


@dataclass(frozen=True)
class FeasibleBox:
    """Open intervals per unknown discontinuity plus coupling structure;
    ``zones`` are the stretches with members, in order."""

    l: int
    G: tuple[tuple[int, int], ...]
    zones: tuple[Zone, ...]

    @property
    def m(self) -> int:
        return len(self.G) - 1

    @cached_property
    def stretches(self) -> tuple[Zone, ...]:
        """The one tiling of [G[0].lo, G[m].hi], in order: every zone, and a
        member-less zone ``(i,)`` on [G[i-1].hi, G[i].lo] for each region i
        that no zone holds inside, kept when degenerate (lo == hi) because
        it still fixes the value at its grid point."""
        stretches, first = [], 1   # first: the region the previous zone ends in
        for zone in (*self.zones, None):
            for i in range(first, zone.regions[0] + 1 if zone else self.m + 1):
                lo, hi = self.G[i - 1][1], self.G[i][0]
                if lo > hi:   # raised, not asserted, so that it holds under python -O
                    raise AssertionError(f"forced span for region {i} is inverted")
                stretches.append(Zone(regions=(i,), lo=lo, hi=hi))
            if zone:
                stretches.append(zone)
                first = zone.regions[-1]
        ends = [self.G[0][0], *(z.hi for z in stretches)]   # each stretch starts where the one before ends
        if ends != [*(z.lo for z in stretches), self.G[-1][1]]:
            raise AssertionError("zones and forced spans must tile the span")
        return tuple(stretches)


def feasible_box(model: UncertaintyModel) -> FeasibleBox:
    """Search geometry implied by an uncertainty model: the model's chains
    plus one isolated interval for every other non-reference index."""
    chains = model.chains.plus + model.chains.minus
    coupled = {i for zone in chains for i in zone.members}
    zones = [
        Zone(regions=(i, i + 1), lo=lo, hi=hi)
        for i, (lo, hi) in enumerate(model.G)
        if i != model.l and i not in coupled
    ]
    zones += chains
    zones.sort(key=lambda z: z.lo)
    return FeasibleBox(l=model.l, G=model.G, zones=tuple(zones))
