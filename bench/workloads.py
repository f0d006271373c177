"""The benchmark's four workloads.

Each workload turns a seed into a list of items, runs one item through
pcsamp's public API (``run``, the timed part) and checks the outputs
exactly against the reference arithmetic in :mod:`gen` (``check``, not
timed).  Item sizes follow a fixed schedule that repeats every ``period``
items; the seed draws the signals' values.  A run stops only at the end of
a period, so every run sees the same mix of sizes.  ``chains``, the one
workload with failing items, runs a fixed number of items, so that every
run attempts and fails the same number.

``run`` calls pcsamp through the package or module object passed in, never
through names bound here, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import gen


class CheckFailure(Exception):
    """An output of the program differs from the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


@dataclass(frozen=True)
class Item:
    sig: gen.Signal
    g: tuple[Fraction, ...]
    args: Any


@dataclass(frozen=True)
class Workload:
    name: str
    period: int
    size: int            # items generated per seed; the timed run cycles them
    trace_items: int     # leading items replayed by the traced run
    make_items: Callable[[int, Path, int], list]   # (seed, workdir, size)
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any], None]
    # when set, the timed run attempts a fixed pace * seconds items (rounded
    # up to whole periods) instead of stopping on the clock
    pace: float | None = None


def _item(sig: gen.Signal, args) -> Item:
    return Item(sig=sig, g=tuple(Fraction(x) for x in sig.g), args=args)


def _short_or_long(rng: random.Random) -> int:
    # mostly short regions with some long ones, so samples per call vary ~10x
    return rng.randint(2, 5) if rng.random() < 0.75 else rng.randint(6, 60)


# ---------------------------------------------------------------------------
# count: validation, atlas and every counting route on a dense offset grid
# ---------------------------------------------------------------------------

# five equally common sizes put p50 and p90 mid-way through a size's items,
# away from the jump in cost between two sizes
COUNT_M = (4, 11, 18, 25, 32)
COUNT_OFFSETS = 20
_DELTAS = tuple(Fraction(j, COUNT_OFFSETS) for j in range(COUNT_OFFSETS))


def count_items(seed: int, workdir: Path, size: int) -> list[Item]:
    rng = random.Random(f"count:{seed}")
    out = []
    for k in range(size):
        sig = gen.random_signal(rng, COUNT_M[k % len(COUNT_M)], _short_or_long)
        out.append(Item(sig=sig, g=(), args=sig.columns()))
    return out


def count_run(pc, item: Item):
    spec = pc.validate_spec(pc.SignalSpec.from_columns(**item.args))
    atlas = pc.enumerate_atlas(spec)
    m = spec.m
    rows = []
    for delta in _DELTAS:
        pattern = pc.count_direct(spec, delta)
        offsets = pc.delta_chain(spec, delta)
        runs = [
            [pc.cumulative_count(spec, i, k, offsets[i - 1]) for k in range(m - i + 1)]
            for i in range(1, m + 1)
        ]
        rows.append((pattern.eta, offsets, runs))
    return atlas, rows


def count_check(item: Item, out) -> None:
    atlas, rows = out
    sig = item.sig
    cells = [(c.delta_lo, c.delta_hi, c.pattern.eta) for c in atlas.cells]
    require(cells == gen.atlas(sig), "atlas cells differ from the reference atlas")
    for j, (eta, offsets, runs) in enumerate(rows):
        counts = gen.region_counts(sig, j, COUNT_OFFSETS)
        require(tuple(eta) == counts, f"offset {j}/{COUNT_OFFSETS}: count_direct {eta} != {counts}")
        require(
            tuple(offsets) == gen.first_offsets(sig, j, COUNT_OFFSETS),
            f"offset {j}/{COUNT_OFFSETS}: delta_chain differs",
        )
        prefix = [0]
        for c in counts:
            prefix.append(prefix[-1] + c)
        for i, row in enumerate(runs, start=1):
            for k, value in enumerate(row):
                require(
                    value == prefix[i + k] - prefix[i - 1],
                    f"offset {j}/{COUNT_OFFSETS}: cumulative_count(i={i}, K={k}) = {value}",
                )


# ---------------------------------------------------------------------------
# minimax: full-atlas inference, estimate, oracle worst case and probes
# ---------------------------------------------------------------------------

MINIMAX_RESOLUTION = 12


def minimax_items(seed: int, workdir: Path, size: int) -> list[Item]:
    rng = random.Random(f"minimax:{seed}")
    out = []
    for k in range(size):
        m = 2 + k % MINIMAX.period
        sig = gen.random_signal(rng, m, lambda r: r.randint(2, 5))
        patterns = [eta for _, _, eta in gen.atlas(sig)]
        out.append(_item(sig, (patterns, rng.randint(0, m))))
    return out


def minimax_run(pc, item: Item):
    patterns, l = item.args
    g = item.g
    model = pc.infer_model(pc.ObservationSet.of(patterns, g), l)
    est = pc.estimate_full(model, g)
    box = pc.feasible_box(model)
    closed = pc.closed_form_energy(model, g)
    worst = pc.worst_case_energy(est, g, box, MINIMAX_RESOLUTION)
    report = pc.perturbation_minimax_check(est, g, box, resolution=MINIMAX_RESOLUTION)
    return model, closed, worst, report


def minimax_check(item: Item, out) -> None:
    patterns, l = item.args
    model, closed, worst, report = out
    sig = item.sig
    require(list(model.G) == gen.intervals(patterns, sig.m, l), "intervals differ from the reference")
    expected = gen.full_set_energy(sig.g, l)
    require(closed == expected, f"closed form {closed} != {expected}")
    require(worst.value == expected, f"oracle worst case {worst.value} != {expected}")
    require(report.baseline == expected, f"probe baseline {report.baseline} != {expected}")
    for zone in worst.zones:
        require(zone.max_energy == zone.min_energy, f"zone {zone.members} energy depends on placement")
    require(report.probes and report.all_strict, "a perturbation probe did not strictly increase the worst case")


# ---------------------------------------------------------------------------
# chains: partial observations, chain inference and coupled-zone sweeps
# ---------------------------------------------------------------------------

CHAINS_RESOLUTION = 50
# coupled member pairs per item, one entry per item of a period.  An
# item's cost grows about linearly with its pairs (each pair is one O(R^2)
# sweep step), so fixing the mix per period keeps runs comparable across
# seeds.  The unconstrained draw gives 39 % none, 32 % one, 19 % two, 8 %
# three and 2 % more; this mix stays close to it while keeping p50 and p90
# inside a group rather than on the cost jump between two.  The last slot
# (DEFECT) holds an input that hits the known estimate_partial defect
# (gen.hits_inverted_span_defect), with any number of pairs, and no other
# slot does: 3 % of free draws hit it, and one fixed slot per period makes
# every run attempt and fail the same number of items.
DEFECT = None
CHAINS_SLOTS = (0,) * 10 + (1,) * 7 + (2,) * 6 + (3,) + (DEFECT,)


def chains_items(seed: int, workdir: Path, size: int) -> list[Item]:
    rng = random.Random(f"chains:{seed}")
    out = []
    for k in range(size):
        target = CHAINS_SLOTS[k % len(CHAINS_SLOTS)]
        while True:
            m = rng.randint(2, 10)
            sig = gen.random_signal(rng, m, lambda r: r.randint(2, 3))
            patterns = [eta for _, _, eta in gen.atlas(sig)]
            j = rng.randrange(2 * m + 1)  # a single pattern or an adjacent pair
            observed = [patterns[j]] if j <= m else patterns[j - m - 1 : j - m + 1]
            l = rng.choice((0, m))
            if gen.hits_inverted_span_defect(observed, m, l) != (target is DEFECT):
                continue
            if target is DEFECT or sum(len(c) - 1 for c in gen.chains(observed, m, l)) == target:
                break
        out.append(_item(sig, (observed, l)))
    return out


def chains_run(pc, item: Item):
    patterns, l = item.args
    g = item.g
    model = pc.infer_model(pc.ObservationSet.of(patterns, g), l)
    est = pc.estimate_partial(model, g)
    worst = pc.worst_case_energy(est, g, pc.feasible_box(model), CHAINS_RESOLUTION)
    return model, est, worst


def chains_check(item: Item, out) -> None:
    patterns, l = item.args
    model, est, worst = out
    sig = item.sig
    m = sig.m
    G = gen.intervals(patterns, m, l)
    require(list(model.G) == G, "intervals differ from the reference")
    P = sig.breakpoints()
    w = worst.witness
    require(sorted(w) == list(range(m + 1)) and w[l] == 0, "witness does not place every discontinuity")
    for i in range(m + 1):
        if i != l:
            require(G[i][0] < P[i] - P[l] < G[i][1], f"truth D_{i} outside its interval")
            require(G[i][0] < w[i] < G[i][1], f"witness D_{i} = {w[i]} outside {G[i]}")
    members = sorted(c.members for c in model.chains.plus + model.chains.minus)
    require(members == sorted(gen.chains(patterns, m, l)), f"chains {members} differ from the reference")
    for chain in members:
        for a, b in zip(chain, chain[1:]):
            require(1 <= w[b] - w[a] < 2, f"witness spacing D_{b} - D_{a} = {w[b] - w[a]} outside [1, 2)")
    cells = [(c.lo, c.hi, c.value) for c in est.cells if c.lo < c.hi]
    energy = gen.energy_at(sig.g, [w[i] for i in range(m + 1)], cells)
    require(energy == worst.value, f"energy at the witness {energy} != reported {worst.value}")


# ---------------------------------------------------------------------------
# cli: in-process command-line calls on scenario files written at set-up
# ---------------------------------------------------------------------------

CLI_M = (4, 8, 16, 24, 32, 48, 64, 96)


def cli_items(seed: int, workdir: Path, size: int) -> list[Item]:
    rng = random.Random(f"cli:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for m in CLI_M:
        if len(out) >= size:
            break
        sig = gen.random_signal(rng, m, lambda r: r.randint(2, 5))
        path = workdir / f"m{m}.json"
        path.write_text(json.dumps(sig.scenario()), encoding="utf-8")
        l = str(rng.randint(0, m))
        for argv in (
            ["validate", str(path)],
            ["patterns", str(path)],
            ["infer", str(path), "--ref", l],
            ["estimate", str(path), "--ref", l],
            ["estimate", str(path), "--sweep"],
        ):
            out.append(_item(sig, argv + ["--format", "json"]))
    return out[:size]


def cli_run(pc, item: Item):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pc.cli.main(item.args)
    return code, buf.getvalue()


def cli_check(item: Item, out) -> None:
    code, text = out
    sig, argv = item.sig, item.args
    m = sig.m
    require(code == 0, f"{argv[0]} exited {code}")
    command = argv[0]
    if command == "validate":
        require(text.startswith(f"OK: {m} region(s), T = 1\n"), "validate output differs")
        return
    data = json.loads(text)
    if command == "patterns":
        cells = [(Fraction(c["delta_lo"]), Fraction(c["delta_hi"]), tuple(c["eta"])) for c in data["cells"]]
        require(cells == gen.atlas(sig), "patterns differ from the reference atlas")
        return
    if "--sweep" in argv:
        energies = [gen.full_set_energy(sig.g, l) for l in range(m + 1)]
        argmin = energies.index(min(energies))
        got = [(e["l"], Fraction(e["energy"])) for e in data["energies"]]
        require(got == list(enumerate(energies)), "sweep energies differ from the reference")
        require(data["argmin"] == argmin, f"argmin {data['argmin']} != {argmin}")
        require(data["best_reference"] == gen.largest_jump(sig.g), "best reference differs")
        require(data["agrees"] == (argmin == gen.largest_jump(sig.g)), "agreement flag differs")
        return
    l = int(argv[argv.index("--ref") + 1])
    require(data["l"] == l, "reference index differs")
    if command == "infer":
        patterns = [eta for _, _, eta in gen.atlas(sig)]
        G = gen.intervals(patterns, m, l)
        P = sig.breakpoints()
        got = [(iv["lo"], iv["hi"]) for iv in data["intervals"]]
        require(got == G, "intervals differ from the reference")
        require(all(G[i][0] < P[i] - P[l] < G[i][1] for i in range(m + 1) if i != l), "truth outside an interval")
        require(data["U"] == [] and data["chains"] == [], "full atlas left width-two uncertainty")
        return
    expected = gen.full_set_energy(sig.g, l)
    require(Fraction(data["closed_form_energy"]) == expected, f"closed form {data['closed_form_energy']} != {expected}")


COUNT = Workload("count", len(COUNT_M), 250, 50, count_items, count_run, count_check)
MINIMAX = Workload("minimax", 15, 300, 60, minimax_items, minimax_run, minimax_check)
CHAINS = Workload("chains", len(CHAINS_SLOTS), 200, 50, chains_items, chains_run, chains_check, pace=6.0)
CLI = Workload("cli", 5 * len(CLI_M), 5 * len(CLI_M), 5 * len(CLI_M), cli_items, cli_run, cli_check)

WORKLOADS = {w.name: w for w in (COUNT, MINIMAX, CHAINS, CLI)}
