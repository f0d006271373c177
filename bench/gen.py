"""Seeded signal generator and exact reference arithmetic for the benchmark.

Nothing here imports pcsamp: the generator produces plain integer columns,
and the reference functions recompute counts, atlases and energies with
integer arithmetic so that every output of the program can be checked
independently of the code under test.

A generated signal keeps its fractional parts as numerators over one prime
denominator ``D``.  The generator draws m distinct nonzero prefix residues
r_1..r_m modulo D (r_0 = 0) and sets f_k = ((r_k - r_{k-1}) mod D) / D.  A
run f_i + ... + f_j is then congruent to (r_j - r_{i-1}) / D modulo 1, which
is never an integer, so every draw is valid and nothing is redrawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

AMP_BOUND = 6  # amplitudes lie in [-AMP_BOUND, AMP_BOUND], as in pcsamp.random_spec


def next_prime(k: int) -> int:
    """Smallest prime strictly greater than k."""
    p = k + 1
    while p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        p += 1
    return p


@dataclass(frozen=True)
class Signal:
    """One generated signal: amplitudes g, integer parts n, f = a / D."""

    g: tuple[int, ...]
    n: tuple[int, ...]
    a: tuple[int, ...]
    D: int

    @property
    def m(self) -> int:
        return len(self.g)

    @property
    def f(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(ai, self.D) for ai in self.a)

    def breakpoints_num(self) -> tuple[int, ...]:
        """D * P_k for k = 0..m, where P_k is the k-th discontinuity position."""
        pts = [0]
        for ni, ai in zip(self.n, self.a):
            pts.append(pts[-1] + ni * self.D - ai)
        return tuple(pts)

    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.D) for p in self.breakpoints_num())

    def columns(self) -> dict:
        """Keyword arguments for ``SignalSpec.from_columns``."""
        return {"g": self.g, "n": self.n, "f": self.f}

    def scenario(self) -> dict:
        """A scenario-file object observing the full atlas."""
        return {
            "T": "1",
            "regions": [
                {"g": str(gi), "n": ni, "f": f"{ai}/{self.D}"}
                for gi, ni, ai in zip(self.g, self.n, self.a)
            ],
            "observations": "all",
        }


def random_signal(rng: random.Random, m: int, n_choices) -> Signal:
    """Draw a valid signal with m regions.

    ``n_choices`` is called with ``rng`` once per region and returns its
    integer part.  Amplitudes are integers in [-AMP_BOUND, AMP_BOUND],
    nonzero at both ends and distinct from their neighbours.
    """
    D = next_prime(max(m, 96))
    residues = rng.sample(range(1, D), m)
    prev, a = 0, []
    for r in residues:
        a.append((r - prev) % D)
        prev = r
    n = [n_choices(rng) for _ in range(m)]
    g: list[int] = []
    for i in range(m):
        while True:
            cand = rng.randint(-AMP_BOUND, AMP_BOUND)
            if cand == 0 and i in (0, m - 1):
                continue
            if g and cand == g[-1]:
                continue
            break
        g.append(cand)
    return Signal(g=tuple(g), n=tuple(n), a=tuple(a), D=D)


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def region_counts(sig: Signal, p: int, q: int) -> tuple[int, ...]:
    """Samples per region for the grid offset delta = p / q.

    Region i holds the integers k >= 0 with P_{i-1} <= delta + k < P_i, so
    its count is ceil(P_i - delta) - ceil(P_{i-1} - delta).
    """
    scale = sig.D * q
    offset = p * sig.D
    ceils = [_ceil_div(b * q - offset, scale) for b in sig.breakpoints_num()]
    return tuple(hi - lo for lo, hi in zip(ceils, ceils[1:]))


def first_offsets(sig: Signal, p: int, q: int) -> tuple[Fraction, ...]:
    """Offset of the first sample inside each region for delta_1 = p / q:
    (delta_1 + f_1 + ... + f_{i-1}) mod 1."""
    scale, acc, out = q * sig.D, p * sig.D, []
    for ai in sig.a:
        out.append(Fraction(acc % scale, scale))
        acc += q * ai
    return tuple(out)


def atlas(sig: Signal) -> list[tuple[Fraction, Fraction, tuple[int, ...]]]:
    """Every offset cell [lo, hi) of [0, 1) with its count pattern.

    Counts change only where the offset crosses the fractional part of a
    discontinuity position, so the cells are bounded by the sorted
    fractional parts of P_1..P_m and each pattern is read at the midpoint.
    """
    edges = sorted({b % sig.D for b in sig.breakpoints_num()[1:]} | {0}) + [sig.D]
    return [
        (Fraction(lo, sig.D), Fraction(hi, sig.D), region_counts(sig, lo + hi, 2 * sig.D))
        for lo, hi in zip(edges, edges[1:])
    ]


def amp(g, i: int) -> int:
    """g_i with the zero padding g_0 = g_{m+1} = 0."""
    return g[i - 1] if 1 <= i <= len(g) else 0


def full_set_energy(g, l: int) -> Fraction:
    """Worst-case energy of the full-atlas estimate for reference l:
    the sum over i != l of ((g_i - g_{i+1}) / 2)^2."""
    return Fraction(
        sum((amp(g, i) - amp(g, i + 1)) ** 2 for i in range(len(g) + 1) if i != l), 4
    )


def largest_jump(g) -> int:
    """Index k in 0..m of the largest |g_k - g_{k+1}|, ties to the smallest k."""
    jumps = [abs(amp(g, k) - amp(g, k + 1)) for k in range(len(g) + 1)]
    return jumps.index(max(jumps))


def intervals(patterns, m: int, l: int) -> list[tuple[int, int]]:
    """Open interval, in grid steps relative to discontinuity l, that must
    hold each discontinuity given the observed patterns.

    Two observed cumulative counts c-1, c between l and i pin i to width
    one; a single observed count s leaves width two.
    """
    G = [(0, 0)] * (m + 1)
    for i in range(m + 1):
        if i == l:
            continue
        lo_r, hi_r = (l + 1, i) if i > l else (i + 1, l)
        vals = {sum(p[lo_r - 1 : hi_r]) for p in patterns}
        c = max(vals)
        if len(vals) == 2:
            G[i] = (c - 1, c) if i > l else (-c, -(c - 1))
        else:
            G[i] = (c - 1, c + 1) if i > l else (-(c + 1), -(c - 1))
    return G


def energy_at(g, positions, cells) -> Fraction:
    """Exact integral of (truth - estimate)^2 over the line.

    The truth has discontinuities at ``positions`` (m + 1 increasing
    values) and amplitude g_i between the i-th pair; ``cells`` lists the
    estimate as (lo, hi, value) pieces.  Both are zero elsewhere.
    """

    def value(pieces, t):
        for lo, hi, v in pieces:
            if lo <= t < hi:
                return v
        return 0

    truth = [(positions[i], positions[i + 1], g[i]) for i in range(len(g))]
    cuts = sorted({x for lo, hi, _ in truth + list(cells) for x in (lo, hi)})
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        diff = value(truth, mid) - value(cells, mid)
        total += diff * diff * (hi - lo)
    return total


def hits_inverted_span_defect(patterns, m: int, l: int) -> bool:
    """Whether pcsamp's partial estimate is known to fail on this input.

    The estimate copies the signal on the span between discontinuities
    i-1 and i when neither is an inner member of a coupled run (i-1 may
    end a run, i may start one).  When intervals G_{i-1} and G_i overlap,
    that span is inverted and ``estimate_partial`` raises an
    AssertionError.  This holds for about 3 % of free chains draws.
    """
    G = intervals(patterns, m, l)
    runs = chains(patterns, m, l)
    outside = set(range(m + 1)) - {i for run in runs for i in run}
    left_ok = outside | {run[-1] for run in runs}
    right_ok = outside | {run[0] for run in runs}
    return any(
        i - 1 in left_ok and i in right_ok and G[i - 1][1] > G[i][0] for i in range(1, m + 1)
    )


def chains(patterns, m: int, l: int) -> list[tuple[int, ...]]:
    """Members of every coupled run of width-two discontinuities.

    A run starts at a width-two discontinuity t on the far side of t's
    region from l, where that region is not always one sample, and
    extends over the following regions that hold exactly one sample in
    every observed pattern.
    """
    G = intervals(patterns, m, l)
    wide = {i for i in range(m + 1) if i != l and G[i][1] - G[i][0] == 2}
    one = [False] + [all(p[r - 1] == 1 for p in patterns) for r in range(1, m + 1)] + [False]
    runs, claimed = [], set()
    for t in range(l + 1, m):  # rightward of the reference
        if t not in claimed and {t, t + 1} <= wide and not one[t] and one[t + 1]:
            end = t + 1
            while one[end + 1]:
                end += 1
            runs.append(tuple(range(t, end + 1)))
            claimed.update(runs[-1])
    for t in range(l - 1, 0, -1):  # leftward of the reference
        if t not in claimed and {t, t - 1} <= wide and not one[t + 1] and one[t]:
            start = t - 1
            while start >= 1 and one[start]:
                start -= 1
            runs.append(tuple(range(start, t + 1)))
            claimed.update(runs[-1])
    return runs
