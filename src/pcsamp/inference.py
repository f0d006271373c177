"""Recover discontinuity-location knowledge from observed count patterns.

Given a set of count patterns and a reference discontinuity l, each other
discontinuity i is located through the cumulative count of samples between
it and the reference.  Observing both achievable values of that count pins
the discontinuity to an open interval of width one grid step; observing a
single value only pins it to width two.  Every such count is read from one
table per observation set, the rank of each index among the patterns'
prefix counts (``ObservationSet._ranks``).  Building it decides once, for
every reference, whether the patterns can come from one signal, and each
reference then reads its intervals from two ints per index.  Coupling is
read from the intervals: a run of overlapping consecutive intervals is a
chain, and :func:`chain_analysis` builds each chain once, as a coupled
:class:`Zone`.

:func:`feasible_box` turns a model into the one tiling of the estimate span
that the estimator fills and the oracle searches, ``FeasibleBox.stretches``.
Every stretch is a :class:`Zone` that lists the amplitudes the truth can
take on it: the model's chains, one isolated interval per other
discontinuity, and, between them, the forced spans, member-less zones of
one region each.  ``Zone.cells`` splits a stretch into the cells that the
estimator fills and the oracle's probes walk, with the regions each meets.

The module works purely from patterns and known amplitudes; it never needs
the generating signal, so it solves the inverse problem as stated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain as chained
from operator import le, sub
from typing import Iterable, NamedTuple, Sequence

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
    ``_ranks``: the first pattern's prefix counts S_0 and, for each index
    i, the rank r_i of the key (S_p(i) - S_0(i)) over the patterns p.
    Building it gives the verdict on the whole set, so a set is consistent,
    or raises :class:`InconsistentObservations`, at every reference alike.
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
    def _prefix(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """S_0, the first pattern's counts of samples in regions 1..i for
        i = 0..m, and for each index i its key, (S_p(i) - S_0(i)) over the
        patterns p; pattern p's count over regions a+1..b is
        S_0(b) - S_0(a) + key(b)_p - key(a)_p."""
        first = self.patterns[0].eta
        keys = zip(*(accumulate(map(sub, p.eta, first), initial=0) for p in self.patterns))
        return tuple(accumulate(first, initial=0)), tuple(keys)

    @cached_property
    def _ranks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """S_0 and each index's rank r_i among the distinct keys, ordered.

        The patterns can come from one signal exactly when every count over
        regions a+1..b takes one value or two consecutive ones, that is,
        when the distinct keys form a componentwise chain whose top and
        bottom differ by a 0/1 vector.  Otherwise this raises
        :class:`InconsistentObservations` for one offending pair of
        indices, in the words of :func:`cumulative_values`: two keys that
        are not ordered, or the chain's bottom and top.
        """
        S0, keys = self._prefix
        chain = sorted(dict.fromkeys(keys), key=sum)
        for low, high in zip(chain, chain[1:]):
            if not all(map(le, low, high)):   # between them one pattern gains and another loses: raises
                _span_values(self, *sorted((keys.index(low), keys.index(high))))
        if max(map(sub, chain[-1], chain[0])) > 1:   # a pattern gains two or more: raises
            _span_values(self, *sorted((keys.index(chain[0]), keys.index(chain[-1]))))
        rank = {key: r for r, key in enumerate(chain)}
        return S0, tuple(map(rank.__getitem__, keys))


class Zone(NamedTuple):
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

    @property
    def cells(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The stretch's cells in order, as (lo, hi, regions met): the
        amplitudes the truth can take on each.  A coupled run of k members
        holds k + 1 unit cells, unit cell j meeting ``regions[j-1:j+2]``
        (two regions at either end); any other stretch is one cell meeting
        all of its regions."""
        lo, regions = self.lo, self.regions
        if not self.coupled:
            return ((lo, self.hi, regions),)
        if self.hi - lo != len(regions):
            raise ValueError(f"coupled zone {self.members} on ({lo}, {self.hi}) needs one unit cell per region")
        return tuple((lo + j, lo + j + 1, regions[max(j - 1, 0):j + 2]) for j in range(len(regions)))


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
    width 0; any other G raises ``ValueError``.  The rest is read from G:
    ``C[i]`` is the interval's anchor integer, the larger observed
    cumulative count (``C[l] == 0``), ``U`` the indices known only to
    width two, ``chains`` the runs of overlapping intervals
    (:func:`chain_analysis`), and ``_box`` the feasible box that
    :func:`feasible_box` returns, built once per model.
    """

    l: int
    G: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 0 <= self.l < len(self.G) or self.G[self.l] != (0, 0):
            raise ValueError(f"the reference's interval G[{self.l}] must be (0, 0)")
        for i, (lo, hi) in enumerate(self.G):
            if i != self.l and hi - lo not in (1, 2):
                raise ValueError(f"interval G[{i}] = ({lo}, {hi}) has width {hi - lo}, not 1 or 2")

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

    @cached_property
    def _box(self) -> FeasibleBox:
        chains = self.chains.plus + self.chains.minus
        coupled = {i for zone in chains for i in zone.members}
        zones = [
            Zone((i, i + 1), lo, hi)
            for i, (lo, hi) in enumerate(self.G)
            if i != self.l and i not in coupled
        ]
        zones += chains
        zones.sort(key=lambda z: z.lo)
        return FeasibleBox(l=self.l, G=self.G, zones=tuple(zones))


def cumulative_values(obs: ObservationSet, l: int, i: int) -> set[int]:
    """Observed values of the sample count between discontinuities i and l.

    For i > l this is eta_{l+1} + ... + eta_i, for i < l it is
    eta_{i+1} + ... + eta_l.  Consistent observations yield one value or
    two consecutive values; anything else is rejected.  Only this pair is
    checked, so a pair of an inconsistent set may still return.  The
    values are read from the set's prefix table, one per pattern.
    """
    m = obs.m
    if not (0 <= i <= m and 0 <= l <= m):
        raise IndexError(f"indices i={i}, l={l} outside 0..{m}")
    if i == l:
        raise ValueError("the reference discontinuity has no cumulative count")
    return _span_values(obs, min(i, l), max(i, l))


def _span_values(obs: ObservationSet, a: int, b: int) -> set[int]:
    """The patterns' counts of samples in regions a+1..b (a < b), raising
    unless they are one value or two consecutive ones."""
    S0, keys = obs._prefix
    base = S0[b] - S0[a]
    vals = {base + y - x for x, y in zip(keys[a], keys[b])}
    if max(vals) - min(vals) > 1:
        raise InconsistentObservations(
            f"cumulative counts over regions {a + 1}..{b} take values {sorted(vals)}; "
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
                runs.append(Zone(tuple(range(a, b + 2)), G[a][0], G[b][1]))
            a = b + 1
    # each side outward from the reference
    return ChainStructure(
        plus=tuple(z for z in runs if z.lo > 0),
        minus=tuple(z for z in reversed(runs) if z.hi < 0),
    )


def infer_model(obs: ObservationSet, l: int) -> UncertaintyModel:
    """Locate every discontinuity relative to reference l as far as possible.

    One rule builds every interval from the set's rank table
    (``ObservationSet._ranks``), with no per-pair count: right of l,
    c = S_0(i) - S_0(l) + [r_i > r_l] is the largest observed cumulative
    count, and discontinuity i lies in (c - 1, c) when two values were
    seen (r_i != r_l) and in (c - 1, c + 1) when only one was
    (r_i == r_l).  Left of l the same rule is reflected to negative
    positions.  A set that no signal can produce raises
    :class:`InconsistentObservations` at every reference.  The model
    keeps only l and these intervals; everything else it reports is read
    from them.
    """
    m = obs.m
    if not (0 <= l <= m):
        raise IndexError(f"reference index {l} outside 0..{m}")
    S0, r = obs._ranks
    s, rl = S0[l], r[l]
    G: list[tuple[int, int]] = [(0, 0)] * (m + 1)
    for i in range(l + 1, m + 1):
        c = S0[i] - s + (r[i] > rl)
        G[i] = (c - 1, c + (r[i] == rl))
    for i in range(l):   # the reflection of (c - 1, c + [r_i == r_l])
        c = s - S0[i] + (rl > r[i])
        G[i] = (-c - (r[i] == rl), 1 - c)
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
                stretches.append(Zone((i,), lo, hi))
            if zone:
                stretches.append(zone)
                first = zone.regions[-1]
        ends = [self.G[0][0], *(z.hi for z in stretches)]   # each stretch starts where the one before ends
        if ends != [*(z.lo for z in stretches), self.G[-1][1]]:
            raise AssertionError("zones and forced spans must tile the span")
        return tuple(stretches)


def feasible_box(model: UncertaintyModel) -> FeasibleBox:
    """Search geometry implied by an uncertainty model: the model's chains
    plus one isolated interval for every other non-reference index.  The
    model builds it once, so the estimator and every search of its
    estimate share one box and one tiling."""
    return model._box
