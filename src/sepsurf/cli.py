"""Command-line front end.

Subcommands:

* ``family``    build a family spec (JSON or preset), mesh it, write OBJ + report
* ``curvature`` sample a surface given per-axis expressions, report K statistics
* ``classify``  run the constant-curvature classifier on a spec or expressions
* ``verify``    run the numerical test suites and report pass/fail

Exit codes: 0 success, 1 runtime/domain error, 2 classifier contradiction
sentinel, 64 usage error.  Identical invocations (flags and seed) produce
byte-identical outputs; reports go to stdout when the path is ``-``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import families as fam
from . import verify as ver
from .expr import EvalDomainError, ExprError, Func1D
from .geometry import SeparableSurface, SingularPointError
from .sampler import GridSpec, export_obj, export_report, marching_cubes

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _parse_box(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError("--box needs six comma-separated numbers: x0,x1,y0,y1,z0,z1")
    box = tuple(float(p) for p in parts)
    return box


def _write_report(doc: dict, path: str) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _load_spec(arg: str) -> fam.FamilySpec:
    text = arg
    if not arg.lstrip().startswith("{"):
        with open(arg) as fh:
            text = fh.read()
    return fam.family_from_json(json.loads(text))


def _surface_from_args(args) -> tuple[SeparableSurface, tuple, dict]:
    """Surface, box and a JSON description from --spec/--preset or --f/--g/--h."""
    if getattr(args, "preset", None):
        spec = fam.PRESETS[args.preset] if args.preset in fam.PRESETS else None
        if spec is None:
            raise fam.InvalidFamilyError(
                f"unknown preset {args.preset!r}; choose from {sorted(fam.PRESETS)}")
        surface = fam.build_surface(spec)
        box = args.box or fam.preset_box(args.preset)
        desc = {"preset": args.preset, "spec": fam.family_to_json(spec)}
        return surface, box, desc
    if getattr(args, "spec", None):
        spec = _load_spec(args.spec)
        surface = fam.build_surface(spec)
        box = args.box or fam.admissible_box(spec)
        return surface, box, fam.family_to_json(spec)
    if getattr(args, "f", None):
        if not (args.f and args.g and args.h):
            raise fam.InvalidFamilyError("--f, --g and --h must be given together")
        surface = SeparableSurface(
            Func1D.parse(args.f, "x"),
            Func1D.parse(args.g, "y"),
            Func1D.parse(args.h, "z"),
        )
        box = args.box or (-1.0, 1.0, -1.0, 1.0, -1.0, 1.0)
        desc = {"f": args.f, "g": args.g, "h": args.h}
        return surface, box, desc
    raise fam.InvalidFamilyError("one of --preset, --spec or --f/--g/--h is required")


def cmd_family(args) -> int:
    surface, box, desc = _surface_from_args(args)
    grid = GridSpec(box=tuple(box), nx=args.res, ny=args.res, nz=args.res,
                    seed=args.seed)
    mesh = marching_cubes(surface, grid)
    if args.mesh:
        export_obj(mesh, args.mesh)
    if args.report:
        if args.report == "-":
            export_report(mesh, sys.stdout)
        else:
            export_report(mesh, args.report)
    sys.stderr.write(
        f"meshed {desc.get('preset', surface.name or 'surface')}: "
        f"{len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles, "
        f"{mesh.skipped_cells} skipped cells\n")
    return 0


def _collect(surface, box, n, seed) -> "np.ndarray":
    axis = getattr(surface, "preferred_axis", 2)
    return ver.collect_samples(surface, box, n, seed=seed, axis=axis)


def cmd_curvature(args) -> int:
    import numpy as np

    surface, box, desc = _surface_from_args(args)
    pts = _collect(surface, box, args.n, args.seed)
    K = ver.curvature_batch(surface, pts)
    K = K[np.isfinite(K)]
    doc = {
        "surface": desc,
        "box": list(box),
        "seed": args.seed,
        "n_samples": int(K.size),
        "K_mean": float(np.mean(K)),
        "K_min": float(np.min(K)),
        "K_max": float(np.max(K)),
        "K_max_abs": float(np.max(np.abs(K))),
        "K_max_dev": float(np.max(np.abs(K - np.mean(K)))),
    }
    _write_report(doc, args.report)
    return 0


def cmd_classify(args) -> int:
    surface, box, desc = _surface_from_args(args)
    pts = _collect(surface, box, args.n, args.seed)
    tols = ver.DEFAULT_TOLERANCES
    result = ver.classify(surface, pts, tols)
    doc = {
        "surface": desc,
        "constancy": result.report.to_json(),
        "evidence": None if result.evidence is None else result.evidence.to_json(),
        "label": result.label,
        "params": result.parameters,
        "tolerances": tols.to_json(),
    }
    _write_report(doc, args.report)
    return 2 if result.label == "contradiction-with-theorem-2" else 0


def cmd_verify(args) -> int:
    report = ver.run_theorem_suite(args.suite, seed=args.seed)
    _write_report(report.to_json(), args.report)
    for chk in report.checks:
        status = "PASS" if chk.passed else "FAIL"
        sys.stderr.write(
            f"{status} {chk.name} worst={chk.worst:.3e} tol={chk.tol:g} n={chk.count}\n")
    return 0 if report.passed else 1


def build_parser() -> _Parser:
    parser = _Parser(
        prog="sepsurf",
        description="Separable implicit surfaces: construction, meshing, "
                    "curvature, and constant-curvature classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fam = sub.add_parser("family", parents=[], help="build and mesh a family spec")
    p_fam.add_argument("--spec", help="family spec JSON (inline text or a file path)")
    p_fam.add_argument("--preset", help=f"named preset: {', '.join(sorted(fam.PRESETS))}")
    p_fam.add_argument("--mesh", help="output OBJ path")
    p_fam.add_argument("--report", help="output JSON sidecar path ('-' for stdout)")
    p_fam.add_argument("--res", type=int, default=48, help="grid resolution per axis")
    p_fam.add_argument("--box", type=_parse_box,
                       help="x0,x1,y0,y1,z0,z1 (default: preset/admissible box)")
    p_fam.add_argument("--seed", type=int, default=42)
    p_fam.set_defaults(func=cmd_family)

    for name, func, n_default in (("curvature", cmd_curvature, 1000),
                                  ("classify", cmd_classify, 400)):
        p = sub.add_parser(name, help=f"{name} from expressions, a spec, or a preset")
        p.add_argument("--f", help="expression in x for the first component")
        p.add_argument("--g", help="expression in y for the second component")
        p.add_argument("--h", help="expression in z for the third component")
        p.add_argument("--spec", help="family spec JSON (inline text or a file path)")
        p.add_argument("--preset", help=f"named preset: {', '.join(sorted(fam.PRESETS))}")
        p.add_argument("--box", type=_parse_box,
                       help="x0,x1,y0,y1,z0,z1 sampling box")
        p.add_argument("--n", type=int, default=n_default, help="sample count")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--report", default="-", help="report path ('-' for stdout)")
        p.set_defaults(func=func)

    p_ver = sub.add_parser("verify", help="run the numerical test suites")
    p_ver.add_argument("--suite", default="all",
                       choices=("all", "geometry", "families", "classifier"))
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--report", default="-", help="report path ('-' for stdout)")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ExprError, EvalDomainError, SingularPointError, fam.InvalidFamilyError,
            ver.TooFewPointsError, OSError, ValueError) as exc:
        sys.stderr.write(f"sepsurf: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
