#!/usr/bin/env python3
"""What does a full set of count patterns reveal about the jump locations?

Observing every achievable pattern pins each discontinuity, relative to a
chosen reference discontinuity, to an open interval exactly one grid step
wide, and the true location always falls strictly inside.  The choice of
reference moves the intervals around.
"""

from pcsamp import (
    ObservationSet,
    SignalSpec,
    enumerate_atlas,
    infer_model,
    translate,
    validate_spec,
)

spec = validate_spec(SignalSpec.from_columns(g=[4, 2], n=[2, 3], f=["1/4", "1/2"]))
atlas = enumerate_atlas(spec)
obs = ObservationSet.from_atlas(atlas, spec.g)
print(f"observed patterns: {[list(p.eta) for p in obs.patterns]}")
print()

for l in range(spec.m + 1):
    model = infer_model(obs, l)
    truth = translate(spec, l)
    print(f"reference discontinuity l = {l} (pinned to 0):")
    for i in range(spec.m + 1):
        if i == l:
            continue
        lo, hi = model.G[i]
        inside = lo < truth[i] < hi
        print(f"  D_{i} in ({lo}, {hi})   truth {truth[i]}   strictly inside: {inside}")
        assert inside
    print()

print("every interval has width exactly one grid step, whatever the reference;")
print("fewer observed patterns would widen some of them to two (see demo 05).")
