"""Runtime spans around pcsamp's public functions, for the per-layer run.

The tracer replaces each function listed in ``LAYERS`` by a wrapper in
every pcsamp namespace that binds it (``pcsamp.<module>`` itself, the
package, and every importer such as ``pcsamp.oracle``), so nested calls
nest as spans.  The source is not edited, and ``restore`` puts every
original back.

A span records its function, parent span, item id, start and end.  Spans
are kept in flat arrays and written out when the run ends.  A function's
self time is its spans' durations minus the time their child spans cover.
Some functions also carry counts computed from their inputs and outputs.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = {
    "signal_core": ("validate_spec",),
    "sampler": ("enumerate_atlas", "count_direct", "delta_chain", "cumulative_count"),
    "inference": ("infer_model", "cumulative_values", "chain_analysis"),
    "estimator": ("estimate_full", "estimate_partial", "closed_form_energy", "best_reference"),
    "oracle": ("feasible_box", "worst_case_energy", "perturbation_minimax_check"),
    "cli": ("main", "load_scenario"),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)


def _grid_size(interval, resolution: int) -> int:
    lo, hi = interval
    return (hi - lo) * resolution - 1


def _feasible_pairs(left, right, resolution: int) -> int:
    """Grid pairs p < q inside two member intervals with 1 <= q - p < 2.

    p = left_lo + a / r and q = right_lo + b / r for a, b >= 1 strictly
    inside their intervals, so the condition is r <= s + b - a < 2r with
    s = (right_lo - left_lo) * r.
    """
    r = resolution
    s = (right[0] - left[0]) * r
    b_max = _grid_size(right, r)
    total = 0
    for a in range(1, _grid_size(left, r) + 1):
        lo, hi = max(1, r - s + a), min(b_max, 2 * r - s + a - 1)
        total += max(0, hi - lo + 1)
    return total


def _worst_case_counts(bound) -> tuple[int, int, int]:
    box, r = bound.arguments["box"], bound.arguments["resolution"]
    points = examined = feasible = 0
    for zone in box.zones:
        points += sum(_grid_size(box.G[i], r) for i in zone.members)
        for a, b in zip(zone.members, zone.members[1:]):
            examined += _grid_size(box.G[a], r) * _grid_size(box.G[b], r)
            feasible += _feasible_pairs(box.G[a], box.G[b], r)
    return points, examined, feasible


# counts computed from each call's bound arguments and result, labelled
# "computed" in the benchmark's documentation: function -> (names, counter)
COUNTERS = {
    "sampler.count_direct": (("samples_placed",), lambda bound, out: (sum(out.eta),)),
    "inference.chain_analysis": (
        ("chains", "chain_members"),
        lambda bound, out: (len(out.plus + out.minus), sum(len(c.members) for c in out.plus + out.minus)),
    ),
    "estimator.estimate_partial": (("cells",), lambda bound, out: (len(out.cells),)),
    "estimator.closed_form_energy": (("unavailable",), lambda bound, out: (int(out is None),)),
    "oracle.feasible_box": (
        ("zones", "coupled_zones"),
        lambda bound, out: (len(out.zones), sum(z.coupled for z in out.zones)),
    ),
    "oracle.worst_case_energy": (
        ("lattice_points", "pairs_examined", "pairs_feasible"),
        lambda bound, out: _worst_case_counts(bound),
    ),
    "oracle.perturbation_minimax_check": (("probes",), lambda bound, out: (len(out.probes),)),
}
COUNT_NAMES = tuple(f"{fn}.{key}" for fn, (keys, _) in COUNTERS.items() for key in keys)


class Tracer:
    """Patch pcsamp's public functions with span-recording wrappers.

    Use as a context manager around the traced pass; set ``item`` to the
    current item id before each item.
    """

    def __init__(self) -> None:
        self.item = -1
        self.name = array("H")
        self.parent = array("l")
        self.items = array("l")
        self.start = array("q")
        self.end = array("q")
        self.hook_ns = array("q")  # counter time inside a span, excluded from its self time
        self.counts: Counter = Counter()
        self._stack = [-1]
        self.patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items()) if key == "pcsamp" or key.startswith("pcsamp.")]
        for idx, qualname in enumerate(FUNCTIONS):
            module, name = qualname.split(".")
            original = getattr(sys.modules[f"pcsamp.{module}"], name)
            wrapper = self._wrap(idx, qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def _wrap(self, idx: int, qualname: str, fn):
        keys, counter = COUNTERS.get(qualname, ((), None))
        names_out = [f"{qualname}.{key}" for key in keys]
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter_ns
        stack, counts = self._stack, self.counts
        names, parents, items, starts, ends, hooks = (
            self.name, self.parent, self.items, self.start, self.end, self.hook_ns,
        )

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            items.append(self.item)
            ends.append(0)
            hooks.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                t0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in zip(names_out, counter(bound, out)):
                    counts[key] += value
                if stack[-1] >= 0:
                    hooks[stack[-1]] += clock() - t0
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self, scales=None) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, plus the computed counts.

        ``scales`` optionally maps each item id to a factor applied to the
        self time of that item's spans.
        """
        n = len(self.start)
        covered = [0] * n
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                covered[p] += self.end[s] - self.start[s]
        calls = [0] * len(FUNCTIONS)
        self_ns = [0.0] * len(FUNCTIONS)
        for s in range(n):
            own = self.end[s] - self.start[s] - covered[s] - self.hook_ns[s]
            calls[self.name[s]] += 1
            self_ns[self.name[s]] += own * scales[self.items[s]] if scales else own
        out: dict[str, tuple[float, str]] = {}
        for idx, qualname in enumerate(FUNCTIONS):
            out[f"{qualname}.calls"] = (calls[idx], "count")
            out[f"{qualname}.self_s"] = (self_ns[idx] / 1e9, "s")
        for key in COUNT_NAMES:
            out[key] = (self.counts[key], "count")
        examined = self.counts["oracle.worst_case_energy.pairs_examined"]
        feasible = self.counts["oracle.worst_case_energy.pairs_feasible"]
        out["oracle.worst_case_energy.feasible_pair_ratio"] = (feasible / examined if examined else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV: id, parent, item, function, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span,parent,item,function,start_ns,end_ns\n")
            for s in range(len(self.start)):
                handle.write(
                    f"{s},{self.parent[s]},{self.items[s]},{FUNCTIONS[self.name[s]]},"
                    f"{self.start[s] - t0},{self.end[s] - t0}\n"
                )
