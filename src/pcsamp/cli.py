"""Command-line front end.

One scenario JSON file per invocation; subcommands cover each pipeline
stage.  All numeric output is exact rational text unless --float asks for
12-significant-digit decimals.  Each subcommand builds its result once, a
JSON payload plus table rows, and :func:`_render` prints it as JSON, CSV
or an aligned table.  JSON output keeps the layout of ``json.dumps``
with ``indent=2``, one value per line, so it reads in a terminal and
diffs line by line; :func:`_json_text` writes that text in one pass.

Exit codes: 0 success, 1 verification failure, 2 invalid scenario,
3 inconsistent observations.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

from .estimator import best_reference, closed_form_energies, closed_form_energy, estimate_partial
from .inference import InconsistentObservations, ObservationSet, infer_model
from .oracle import exhaustive_consistency_sweep, verify_scenario
from .sampler import SamplingPattern, enumerate_atlas
from .signal_core import SignalSpec, SpecViolation, as_rational, validate_spec

DEFAULT_SEED = 0
# ceiling on `verify`, refused up front: the random sweep's work grows with --trials
MAX_TRIALS = 10_000


class ScenarioError(ValueError):
    """The scenario or observations file does not match the schema."""


# ---------------------------------------------------------------------------
# scenario and observations ingestion
# ---------------------------------------------------------------------------

def _exact_field(raw, where: str) -> Fraction:
    if isinstance(raw, float):
        raise ScenarioError(f"{where}: floats are not exact; write rationals as strings like \"1/4\"")
    try:
        return as_rational(raw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, over-long integers, over-deep nesting
        raise ScenarioError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_scenario(path: str) -> tuple[SignalSpec, Union[str, tuple[tuple[int, ...], ...]]]:
    """Parse and validate a scenario file.

    Returns the validated signal plus either the keyword "all" or the
    explicit observation vectors.
    """
    data = _read_json(path, "scenario")
    if not isinstance(data, dict) or "regions" not in data:
        raise ScenarioError("scenario must be an object with a \"regions\" list")

    T = _exact_field(data.get("T", 1), "T")
    regions = data["regions"]
    if not isinstance(regions, list) or not regions:
        raise ScenarioError("\"regions\" must be a non-empty list")
    g, n, f = [], [], []
    for idx, region in enumerate(regions, start=1):
        if not isinstance(region, dict) or not {"g", "n", "f"} <= set(region):
            raise ScenarioError(f"region {idx} must be an object with g, n, f")
        g.append(_exact_field(region["g"], f"region {idx} g"))
        n.append(region["n"])   # validate_spec checks its type
        f.append(_exact_field(region["f"], f"region {idx} f"))
    spec = validate_spec(SignalSpec.from_columns(g=g, n=n, f=f, T=T))

    observations = data.get("observations", "all")
    if observations == "all":
        return spec, "all"
    vectors = _as_vectors(observations, spec.m, "scenario observations")
    return spec, vectors


def _as_vectors(raw, m: int, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{where}: expected a non-empty list of integer vectors")
    vectors = []
    for idx, row in enumerate(raw):
        if isinstance(row, dict) and "eta" in row:
            row = row["eta"]
        if not isinstance(row, list) or len(row) != m:
            raise ScenarioError(f"{where}: entry {idx} must be a length-{m} integer vector")
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in row):
            raise ScenarioError(f"{where}: entry {idx} contains non-integers")
        vectors.append(tuple(row))
    if len(set(vectors)) != len(vectors):
        raise ScenarioError(f"{where}: observation vectors must be distinct")
    return tuple(vectors)


def load_observations_file(path: str, m: int) -> tuple[tuple[int, ...], ...]:
    """Read observation vectors from a JSON or CSV file.

    JSON accepts a bare list of vectors, {"observations": [...]}, or a
    patterns dump {"cells": [{"eta": [...]}, ...]}.  CSV accepts either
    eta_1..eta_m columns or plain integer rows.
    """
    if path.endswith(".csv"):
        try:
            with open(path, "r", encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ScenarioError(f"cannot read observations {path}: {exc}") from exc
        if not rows:
            raise ScenarioError(f"observations {path} is empty")
        header = rows[0]
        try:
            if "eta_1" in header:
                cols = [header.index(f"eta_{j}") for j in range(1, m + 1)]
                data = [[int(row[c]) for c in cols] for row in rows[1:]]
            else:
                data = [[int(x) for x in row] for row in rows]
        except (ValueError, IndexError) as exc:
            raise ScenarioError(f"observations {path} is not an integer table: {exc}") from exc
        return _as_vectors(data, m, f"observations {path}")
    data = _read_json(path, "observations")
    if isinstance(data, dict):
        data = data.get("observations", data.get("cells"))
    return _as_vectors(data, m, f"observations {path}")


def _resolve_observations(spec: SignalSpec, scenario_obs, flag: Optional[str]) -> ObservationSet:
    """Build the observation set, cross-checking membership in the atlas."""
    atlas = enumerate_atlas(spec)
    if flag is None:
        chosen = scenario_obs
    elif flag == "all":
        chosen = "all"
    else:
        chosen = load_observations_file(flag, spec.m)
    if chosen == "all":
        return ObservationSet.from_atlas(atlas, spec.g)
    achievable = set(atlas.patterns)
    for vec in chosen:
        if SamplingPattern(vec) not in achievable:
            raise InconsistentObservations(
                f"observed pattern {list(vec)} is not achievable for this signal"
            )
    return ObservationSet.of(chosen, spec.g)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{value} lies beyond float range; drop --float for exact output") from None


def _fmt(value, as_float: bool) -> str:
    if isinstance(value, Fraction):
        return f"{_float(value):.12g}" if as_float else str(value)
    return str(value)


def _json_text(value, default, pad: str = "\n") -> str:
    """The text of ``json.dumps`` with ``indent=2`` and ``default``, in one pass.

    ``json.dumps`` with ``indent`` set always runs the pure-Python encoder.
    Dicts (with str keys) and lists recurse; strings go through the
    escaper that ``json.dumps`` itself uses, ints through ``int.__repr__``
    (a list of ints, such as a pattern, in one ``map``), floats, bools and
    None through the stdlib, and anything else through ``default`` first.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple, dict)):
        if not value:
            return "[]" if isinstance(value, (list, tuple)) else "{}"
        inner = pad + "  "
        sep = "," + inner
        if isinstance(value, dict):
            body = sep.join(f"{encode_basestring_ascii(k)}: {_json_text(v, default, inner)}"
                            for k, v in value.items())
            return f"{{{inner}{body}{pad}}}"
        if set(map(type, value)) == {int}:
            body = sep.join(map(int.__repr__, value))
        else:
            body = sep.join(_json_text(v, default, inner) for v in value)
        return f"[{inner}{body}{pad}]"
    if type(value) is int:
        return int.__repr__(value)
    if value is None or isinstance(value, (int, float)):   # bools are ints
        return json.dumps(value)
    return _json_text(default(value), default, pad)


def _render(args, payload: dict, headers: list[str], rows: list[list], notes: Sequence[str] = ()) -> None:
    """Print one result as ``args.format`` asks.

    JSON prints ``payload``; CSV prints ``headers`` and ``rows``; the
    aligned table prints them too, followed by the table-only ``notes``.
    """
    if args.format == "json":
        # default is called on each Fraction, the one type JSON cannot encode
        print(_json_text(payload, _float if args.float else str))
        return
    cells = [[_fmt(v, args.float) for v in row] for row in rows]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return
    widths = [max(len(h), *(len(r[j]) for r in cells)) if cells else len(h) for j, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in cells:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    for note in notes:
        print(note)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    spec, observations = load_scenario(args.scenario)
    print(f"OK: {spec.m} region(s), T = {spec.T}")
    print(f"region lengths (units of T): {', '.join(str(r) for r in spec.lengths)}")
    if observations != "all":
        print(f"observations: {len(observations)} pattern(s)")
    return 0


def cmd_patterns(args) -> int:
    spec, _ = load_scenario(args.scenario)
    cells = enumerate_atlas(spec).cells
    payload = {
        "m": spec.m,
        "T": spec.T,
        "cells": [
            {"delta_lo": c.delta_lo, "delta_hi": c.delta_hi, "eta": list(c.pattern.eta)} for c in cells
        ],
    }
    headers = ["delta_lo", "delta_hi"] + [f"eta_{j}" for j in range(1, spec.m + 1)]
    _render(args, payload, headers, [[c.delta_lo, c.delta_hi, *c.pattern.eta] for c in cells])
    return 0


def _knowledge(model, i: int) -> str:
    if i == model.l:
        return "reference"
    return "2T" if i in model.U else "T"


def cmd_infer(args) -> int:
    spec, scenario_obs = load_scenario(args.scenario)
    if not (0 <= args.ref <= spec.m):
        raise ScenarioError(f"--ref must lie in 0..{spec.m}")
    obs = _resolve_observations(spec, scenario_obs, args.observations)
    model = infer_model(obs, args.ref)
    # a chain's anchor is its member nearest the reference
    chains = [
        (side, zone.members[0] if side == "plus" else zone.members[-1], zone)
        for side, zones in (("plus", model.chains.plus), ("minus", model.chains.minus))
        for zone in zones
    ]
    chain_role = {i: f"chain@{anchor}" for _, anchor, zone in chains for i in zone.members}
    payload = {
        "l": model.l,
        "C": list(model.C),
        "U": sorted(model.U),
        "intervals": [
            {"i": i, "lo": model.G[i][0], "hi": model.G[i][1], "knowledge": _knowledge(model, i)}
            for i in range(model.m + 1)
        ],
        "chains": [
            {"side": side, "anchor": anchor, "length": len(zone.members) - 1, "members": list(zone.members)}
            for side, anchor, zone in chains
        ],
    }
    headers = ["i", "c", "g_lo", "g_hi", "width", "knowledge", "chain"]
    rows = [
        [i, model.C[i], model.G[i][0], model.G[i][1], model.width(i), _knowledge(model, i), chain_role.get(i, "")]
        for i in range(model.m + 1)
    ]
    _render(args, payload, headers, rows)
    return 0


def _energy_note(spec: SignalSpec, energy: Optional[Fraction], as_float: bool) -> str:
    if energy is None:
        return "closed-form energy: unavailable: chains present"
    return (f"closed-form energy: {_fmt(energy, as_float)} (units g^2*T)"
            f" = {_fmt(energy * spec.T, as_float)} physical")


def cmd_estimate(args) -> int:
    spec, scenario_obs = load_scenario(args.scenario)
    obs = _resolve_observations(spec, scenario_obs, args.observations)
    if args.sweep:
        energies = dict(enumerate(closed_form_energies(obs, spec.g)))
        available = {l: e for l, e in energies.items() if e is not None}
        arg_min = min(available, key=lambda l: (available[l], l)) if available else None
        law = best_reference(spec.g)
        shown = {l: e if e is not None else "unavailable" for l, e in energies.items()}
        payload = {
            "energies": [{"l": l, "energy": e} for l, e in shown.items()],
            "argmin": arg_min,
            "best_reference": law,
            "agrees": arg_min == law,
        }
        rows = [[l, e, "*" if l == arg_min else ""] for l, e in shown.items()]
        note = (f"argmin l = {arg_min}; largest-jump reference l = {law}; "
                f"{'agree' if arg_min == law else 'DISAGREE'}")
        _render(args, payload, ["l", "energy", "argmin"], rows, [note])
        return 0

    if args.ref is None:
        raise ScenarioError("estimate needs --ref L or --sweep")
    if not (0 <= args.ref <= spec.m):
        raise ScenarioError(f"--ref must lie in 0..{spec.m}")
    model = infer_model(obs, args.ref)
    est = estimate_partial(model, spec.g)
    energy = closed_form_energy(model, spec.g)
    T = spec.T
    payload = {
        "l": model.l,
        "T": T,
        "cells": [
            {
                "cell_lo": c.lo, "cell_hi": c.hi, "x_lo": c.lo * T, "x_hi": c.hi * T,
                "value": c.value, "provenance": c.tag, "indices": list(c.indices),
            }
            for c in est.cells
        ],
        "closed_form_energy": energy if energy is not None else "unavailable",
        "closed_form_energy_physical": energy * T if energy is not None else "unavailable",
    }
    headers = ["cell_lo", "cell_hi", "value", "provenance"]
    rows = [[c.lo, c.hi, c.value, c.tag] for c in est.cells]
    if args.format == "table" and T != 1:   # physical positions: a table-only aid, CSV columns stay fixed
        headers[2:2] = ["x_lo", "x_hi"]
        for row in rows:
            row[2:2] = [row[0] * T, row[1] * T]
    notes = ["outside the listed cells the estimate is 0", _energy_note(spec, energy, args.float)]
    _render(args, payload, headers, rows, notes)
    return 0


def _verify_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("PCSAMP_SEED", str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"PCSAMP_SEED must be an integer, got {raw!r}") from None


def cmd_verify(args) -> int:
    spec, scenario_obs = load_scenario(args.scenario)
    if args.trials < 1:
        raise ScenarioError("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise ScenarioError(f"--trials must be at most {MAX_TRIALS}")
    seed = _verify_seed(args)
    # the full atlas is checked at every reference already; explicit observations add a row
    obs = None if scenario_obs == "all" else _resolve_observations(spec, scenario_obs, None)
    results = [*verify_scenario(spec, obs), exhaustive_consistency_sweep(args.trials, seed=seed)]
    rows = [[r.name, "pass" if r.passed else "FAIL", r.detail] for r in results]
    passed = all(r.passed for r in results)
    payload = {"checks": [{"name": r[0], "status": r[1], "detail": r[2]} for r in rows], "passed": passed}
    _render(args, payload, ["check", "status", "detail"], rows)
    return 0 if passed else 1


EXAMPLE6 = {
    "g": ("4", "2", "1"),
    "n": (3, 3, 2),
    "f": ("1/4", "1/3", "1/5"),
    "observations": ((3, 3, 2), (3, 3, 1)),
}


def cmd_demo(args) -> int:
    if args.name != "example6":
        raise ScenarioError(f"unknown demo {args.name!r}; available: example6")
    spec = validate_spec(
        SignalSpec.from_columns(g=EXAMPLE6["g"], n=EXAMPLE6["n"], f=EXAMPLE6["f"])
    )
    obs = ObservationSet.of(EXAMPLE6["observations"], spec.g)
    print("Two observed patterns that differ only in the last region's count:")
    for p in obs.patterns:
        print(f"  {list(p.eta)}")
    print()
    for l in (0, spec.m):
        model = infer_model(obs, l)
        widths = ", ".join(
            f"D_{i}: {model.width(i)}T" if model.width(i) != 1 else f"D_{i}: T"
            for i in range(spec.m + 1) if i != l
        )
        energy = closed_form_energy(model, spec.g)
        print(f"reference l={l}: uncertainty widths {widths}")
        print(f"  worst-case energy of the optimal estimate: {energy} g^2*T")
    print()
    print("Counting from the left leaves two discontinuities twice as uncertain")
    print("as counting from the right: accuracy depends on the reference point.")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("scenario", help="scenario JSON file")
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub.add_argument("--float", action="store_true",
                     help="render rationals as 12-significant-digit decimals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsamp",
        description="Exact grid-sampling analysis of piecewise constant signals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("validate", help="check a scenario file")
    _add_common(sub)
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("patterns", help="list every achievable count pattern")
    _add_common(sub)
    sub.set_defaults(func=cmd_patterns)

    sub = subs.add_parser("infer", help="locate discontinuities from observed patterns")
    _add_common(sub)
    sub.add_argument("--ref", type=int, required=True, help="reference discontinuity index")
    sub.add_argument("--observations", help='"all" or a JSON/CSV observations file')
    sub.set_defaults(func=cmd_infer)

    sub = subs.add_parser("estimate", help="build the piecewise constant estimate")
    _add_common(sub)
    ref_or_sweep = sub.add_mutually_exclusive_group()
    ref_or_sweep.add_argument("--ref", type=int, help="reference discontinuity index")
    ref_or_sweep.add_argument("--sweep", action="store_true", help="tabulate energies for every reference")
    sub.add_argument("--observations", help='"all" or a JSON/CSV observations file')
    sub.set_defaults(func=cmd_estimate)

    sub = subs.add_parser("sweep-ref", help="alias for estimate --sweep")
    _add_common(sub)
    sub.add_argument("--observations", help='"all" or a JSON/CSV observations file')
    sub.set_defaults(func=cmd_estimate, sweep=True, ref=None)

    sub = subs.add_parser("verify", help="run the property suite against a scenario")
    _add_common(sub)
    sub.add_argument("--trials", type=int, default=25,
                     help=f"random signals in the sweep (1..{MAX_TRIALS})")
    sub.add_argument("--seed", type=int, help="sweep seed (falls back to PCSAMP_SEED)")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("demo", help="built-in worked demonstrations")
    sub.add_argument("name", help="demo name (example6)")
    sub.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, SpecViolation) as exc:
        print(f"{type(exc).__name__} {exc}", file=sys.stderr)
        return 2
    except InconsistentObservations as exc:
        print(f"InconsistentObservations: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
