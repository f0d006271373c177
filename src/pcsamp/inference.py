"""Recover discontinuity-location knowledge from observed count patterns.

Given a set of count patterns and a reference discontinuity l, each other
discontinuity i is located through the cumulative count of samples between
it and the reference.  Observing both achievable values of that count pins
the discontinuity to an open interval of width one grid step; observing a
single value only pins it to width two.  Runs of width-two discontinuities
coupled through regions that always show exactly one sample form chains;
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
from itertools import accumulate, groupby
from operator import sub
from typing import Iterable, Sequence

from .sampler import PatternAtlas, SamplingPattern
from .signal_core import RationalLike, as_rational


class InconsistentObservations(ValueError):
    """The observed patterns cannot all come from one signal."""


@dataclass(frozen=True)
class ObservationSet:
    """Distinct observed count patterns plus the known region amplitudes."""

    patterns: tuple[SamplingPattern, ...]
    amplitudes: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("at least one observed pattern is required")
        m = len(self.amplitudes)
        for p in self.patterns:
            if p.m != m:
                raise ValueError(f"pattern {p.eta} has {p.m} regions, expected {m}")
            if any(e < 1 for e in p.eta):
                raise ValueError(f"pattern {p.eta} has a non-positive count; every region holds a sample")

    @classmethod
    def of(
        cls,
        patterns: Iterable[Sequence[int] | SamplingPattern],
        amplitudes: Sequence[RationalLike],
    ) -> "ObservationSet":
        canonical = {
            p if isinstance(p, SamplingPattern) else SamplingPattern(tuple(int(e) for e in p))
            for p in patterns
        }
        return cls(
            patterns=tuple(sorted(canonical)),
            amplitudes=tuple(as_rational(a) for a in amplitudes),
        )

    @classmethod
    def from_atlas(cls, atlas: PatternAtlas, amplitudes: Sequence[RationalLike]) -> "ObservationSet":
        return cls.of(atlas.patterns, amplitudes)

    @property
    def m(self) -> int:
        return len(self.amplitudes)

    @cached_property
    def _prefix_counts(self) -> tuple[tuple[int, ...], ...]:
        """Entry [i][p]: samples of pattern p in regions 1..i (row 0 is zeros)."""
        return tuple(zip(*(accumulate(p.eta, initial=0) for p in self.patterns)))

    @cached_property
    def _always_one(self) -> tuple[bool, ...]:
        """Entry [r]: every pattern holds exactly one sample in region r+1."""
        return tuple(all(p.eta[r] == 1 for p in self.patterns) for r in range(self.m))


@dataclass(frozen=True)
class Zone:
    """One stretch of the estimate span and the amplitudes the truth can take on it.

    ``regions`` are consecutive amplitude indices and ``members`` the
    discontinuities between them: ``(i,)`` is a forced span of region i,
    with no members; ``(i, i+1)`` the isolated interval of discontinuity
    i; ``(a, ..., b+1)`` a chain, a coupled run of width-two
    discontinuities a..b whose spacing the always-one-sample regions
    between them tie.  ``lo`` and ``hi`` bound the stretch in grid units.
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
    width 0.  ``C[i]`` is the interval's anchor integer, the larger
    observed cumulative count (``C[l] == 0``), and ``U`` the indices
    known only to width two.
    """

    l: int
    C: tuple[int, ...]
    U: frozenset[int]
    G: tuple[tuple[int, int], ...]
    chains: ChainStructure

    @property
    def m(self) -> int:
        return len(self.C) - 1

    def width(self, i: int) -> int:
        lo, hi = self.G[i]
        return hi - lo


def cumulative_values(obs: ObservationSet, l: int, i: int) -> set[int]:
    """Observed values of the sample count between discontinuities i and l.

    For i > l this is eta_{l+1} + ... + eta_i, for i < l it is
    eta_{i+1} + ... + eta_l.  Consistent observations yield one value or
    two consecutive values; anything else is rejected.  Each value is a
    difference of two rows of ``obs._prefix_counts``, so a call costs one
    step per observed pattern.
    """
    m = obs.m
    if not (0 <= i <= m and 0 <= l <= m):
        raise IndexError(f"indices i={i}, l={l} outside 0..{m}")
    if i == l:
        raise ValueError("the reference discontinuity has no cumulative count")
    if i > l:
        lo_r, hi_r = l + 1, i
    else:
        lo_r, hi_r = i + 1, l
    prefix = obs._prefix_counts
    vals = set(map(sub, prefix[hi_r], prefix[lo_r - 1]))
    if len(vals) > 2 or (len(vals) == 2 and max(vals) - min(vals) != 1):
        raise InconsistentObservations(
            f"cumulative counts over regions {lo_r}..{hi_r} take values {sorted(vals)}; "
            "a single signal allows only one value or two consecutive ones"
        )
    return vals


def chain_analysis(
    obs: ObservationSet,
    l: int,
    U: frozenset[int],
    G: Sequence[tuple[int, int]],
) -> ChainStructure:
    """Group width-two discontinuities into coupled runs.

    Regions a+1 .. b (a < b) that every observation fills with exactly one
    sample form a maximal run with members a .. b.  A run that lies wholly
    on one side of the reference (a > l or b < l) is a chain when its two
    members nearest the reference are both width two: (a, a+1) on the
    right, (b-1, b) on the left.  The rule is the same on either side,
    reflected; a chain whose other members are not all width two is
    inconsistent.  Each chain is returned as a coupled :class:`Zone` from
    G[a].lo to G[b].hi.
    """
    runs: list[tuple[int, int]] = []
    a = 0
    for one, group in groupby(obs._always_one):
        b = a + len(list(group))
        if one and (a > l or b < l):
            runs.append((a, b))
        a = b
    # right side first, each side outward from the reference
    runs.sort(key=lambda run: (run[0] < l, abs(run[0] - l)))

    plus: list[Zone] = []
    minus: list[Zone] = []
    for a, b in runs:
        near, side = ({a, a + 1}, plus) if a > l else ({b - 1, b}, minus)
        if not near <= U:
            continue
        members = tuple(range(a, b + 1))
        if not set(members) <= U:
            raise InconsistentObservations(
                f"coupled run {members} crosses a width-one discontinuity"
            )
        assert G[b][1] - G[a][0] == b - a + 2, "chain span must hold exactly length+2 unit cells"
        side.append(Zone(regions=(*members, b + 1), lo=G[a][0], hi=G[b][1]))
    return ChainStructure(plus=tuple(plus), minus=tuple(minus))


def infer_model(obs: ObservationSet, l: int) -> UncertaintyModel:
    """Locate every discontinuity relative to reference l as far as possible.

    One rule builds every interval.  With c = C_i the largest observed
    cumulative count, discontinuity i lies in (c - 1, c) when two values
    were seen and in (c - 1, c + 1) when only one was, measured outward
    from the reference: right of l as is, left of l reflected to negative
    positions.  The chain structure of the width-two indices is computed
    alongside.
    """
    m = obs.m
    if not (0 <= l <= m):
        raise IndexError(f"reference index {l} outside 0..{m}")
    C = [0] * (m + 1)
    G: list[tuple[int, int]] = [(0, 0)] * (m + 1)
    U: set[int] = set()
    for i in range(m + 1):
        if i == l:
            continue
        vals = cumulative_values(obs, l, i)
        c = C[i] = max(vals)
        assert c - 1 >= 0, "interval must lie on the reference's correct side"
        if len(vals) == 1:
            U.add(i)
        lo, hi = c - 1, c + (len(vals) == 1)   # right of l; the left side is its reflection
        G[i] = (-hi, -lo) if i < l else (lo, hi)
    U_frozen = frozenset(U)
    chains = chain_analysis(obs, l, U_frozen, G)
    return UncertaintyModel(l=l, C=tuple(C), U=U_frozen, G=tuple(G), chains=chains)


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
                assert lo <= hi, f"forced span for region {i} is inverted"
                stretches.append(Zone(regions=(i,), lo=lo, hi=hi))
            if zone:
                stretches.append(zone)
                first = zone.regions[-1]
        ends = [self.G[0][0], *(z.hi for z in stretches)]   # each stretch starts where the one before ends
        assert ends == [*(z.lo for z in stretches), self.G[-1][1]], "zones and forced spans must tile the span"
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
