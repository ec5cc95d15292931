"""The constant-curvature classifier across every family, plus a negative control.

The decision tree: non-constant curvature is reported as such; constant zero
walks the degeneracy evidence (vanishing slope -> right cylinder, vanishing
rate -> translation surface, pairwise-equal rates -> rotational) before the
branch constant kappa splits cone/cylinder/power; constant nonzero curvature
must be rotational, anything else would raise a falsification sentinel.
"""

import json

import numpy as np

from sepsurf import Func1D, SeparableSurface
from sepsurf.verify import classify, collect_samples, random_family

rng = np.random.default_rng(2024)

print("== one random instance per family ==")
for tag in ("right-cylinder", "translation", "rotational-parabolic",
            "generalized-cone", "exp-cylinder", "conical-power", "rotational-cgc"):
    spec, surf, box = random_family(tag, rng)
    pts = collect_samples(surf, box, 260, seed=7)
    res = classify(surf, pts)
    params = {k: round(v, 6) for k, v in res.parameters.items()}
    print(f"{tag:22s} -> {res.label:18s} {params}")

print("\n== negative control: a minimal surface is not constant-curvature ==")
catenoid = SeparableSurface(
    Func1D.parse("x^2"), Func1D.parse("y^2", "y"), Func1D.parse("-cosh(z)^2", "z"),
    name="catenoid")
pts = collect_samples(catenoid, (-1.4, 1.4, -1.4, 1.4, -1.0, 1.0), 260, seed=7)
res = classify(catenoid, pts)
print("catenoid ->", res.label)
print("constancy report:", json.dumps(res.report.to_json(), indent=2))
