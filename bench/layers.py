"""Layer attribution for the traced run: which sepsurf function feeds which
per-layer metric.  Public functions not listed in PROBES land in
``<module>.other``; ``*.self_s`` is a layer's time minus the wrapped calls
it made, and ``<module>.self_s`` the sum over a module's layers.  A layer
that a workload never reaches reads exactly 0 s there, so BENCHMARK.json
declares only the times that every benchmarked workload makes nonzero; the
run prints and records all of them.

What each layer's metrics should move, and where (written before measuring):

=================  ===========================================  ====================
layer              end-to-end metrics it should move            workloads
=================  ===========================================  ====================
expr (vec)         job_p50_ms, points_per_s                     classify-stream,
                                                                sample-dense
expr (scalar)      job_p50_ms, triangles_per_s                  mesh-gallery
families           job_p50_ms, job_tail_ms                      classify-stream,
                                                                verify-suite; tab
                                                                scalar on
                                                                mesh-gallery
sampler (solve)    points_per_s, job_p50_ms, peak_rss_mb        sample-dense; no
                                                                change expected on
                                                                classify-stream
sampler (mc)       triangles_per_s, job_p50_ms                  mesh-gallery only
sampler (export)   triangles_per_s                              mesh-gallery
geometry           job_p50_ms                                   batch: sample-dense;
                                                                scalar: verify-suite
verify             points_per_s, job_p50_ms                     sample-dense (the
                                                                first sampling pass
                                                                falls short and is
                                                                redone), verify-suite
cli                job_p50_ms                                   all
trace.overhead_s   none (traced minus untraced job time)        all
=================  ===========================================  ====================
"""

from __future__ import annotations

import os

from tracer import Probe


def _elems(counter):
    def hook(tracer, frame, args, result):
        xs = args[1] if len(args) > 1 else args[0]
        tracer.counts[counter] += getattr(xs, "size", 1)
    return hook


def _outer_len(counter, arg):
    def hook(tracer, frame, args, result):
        if frame.outer:
            tracer.counts[counter] += len(args[arg])
    return hook


def _solve(tracer, frame, args, result):
    if frame.outer:
        many = frame.name.endswith("solve_many")
        tracer.counts["sampler.solve_columns"] += len(args[1]) if many else 1
        tracer.counts["sampler.solve_points"] += len(result)


def _sample(tracer, frame, args, result):
    if frame.parent is not None and frame.parent.name == "verify:collect_samples":
        tracer.counts["verify.collect_attempts"] += 1
        tracer.counts["verify.collect_computed"] += len(result)


def _collect(tracer, frame, args, result):
    tracer.counts["verify.collect_points"] += len(result)


def _mc(tracer, frame, args, result):
    grid = args[1]
    tracer.counts["sampler.mc_cells"] += grid.nx * grid.ny * grid.nz
    tracer.counts["sampler.mc_skipped_cells"] += result.skipped_cells
    tracer.counts["sampler.mc_vertices"] += len(result.vertices)
    tracer.counts["sampler.mc_triangles"] += len(result.triangles)


def _export(tracer, frame, args, result):
    path = args[1]
    if isinstance(path, str):
        tracer.counts["sampler.export_bytes"] += os.path.getsize(path)


_PARSE = Probe("expr.parse")
_PARSE_CALL = Probe("expr.parse", count="expr.parse_calls")
_VEC = Probe("expr.vec", span=True, count="expr.vec_calls")
_SCALAR = Probe("expr.scalar", count="expr.scalar_calls")
_TAB_VEC = Probe("families.tab", span=True, hook=_elems("families.tab_vec_elems"))
_TAB_SCALAR = Probe("families.tab", count="families.tab_scalar_calls")
_BATCH = Probe("geometry.batch", span=True, count="geometry.batch_calls",
               hook=_outer_len("geometry.batch_points", 1))
_GEO_SCALAR = Probe("geometry.scalar", count="geometry.scalar_calls")
_CLASSIFY = Probe("verify.classify", span=True)
_CLI = Probe("cli", span=True)

PROBES = {
    "expr:parse_expr": _PARSE_CALL,
    "expr:Func1D.parse": _PARSE_CALL,
    "expr:differentiate": _PARSE,
    "expr:simplify": _PARSE,
    "expr:eval_array": Probe("expr.vec", span=True, count="expr.vec_calls",
                             hook=_elems("expr.vec_elems")),
    "expr:Func1D.value_array": _VEC,
    "expr:Func1D.jet3_array": _VEC,
    "expr:evaluate": _SCALAR,
    "expr:Func1D.value": _SCALAR,
    "expr:Func1D.jet3": _SCALAR,
    "expr:Func1D.deriv_value": _SCALAR,
    "expr:Func1D.contains": _SCALAR,
    "families:build_surface": Probe("families.build", span=True, count="families.build_calls"),
    "families:rotational_profile": Probe("families.profile", span=True,
                                         count="families.profile_calls"),
    "families:TabulatedFunc1D.jet3_array": _TAB_VEC,
    "families:TabulatedFunc1D.value_array": _TAB_VEC,
    "families:TabulatedFunc1D.value": _TAB_SCALAR,
    "families:TabulatedFunc1D.jet3": _TAB_SCALAR,
    "families:TabulatedFunc1D.contains": _TAB_SCALAR,
    "geometry:curvature_batch": _BATCH,
    "geometry:level_state_batch": _BATCH,
    "geometry:k2_residual_batch": _BATCH,
    "geometry:SeparableSurface.jet_arrays": _BATCH,
    "geometry:SeparableSurface.value_arrays": _BATCH,
    "geometry:SeparableSurface.value": _GEO_SCALAR,
    "geometry:SeparableSurface.jets": _GEO_SCALAR,
    "geometry:SeparableSurface.on_surface": _GEO_SCALAR,
    "geometry:implicit_jet": _GEO_SCALAR,
    "geometry:gauss_curvature_implicit": _GEO_SCALAR,
    "geometry:gauss_curvature_separable": _GEO_SCALAR,
    "geometry:level_state": _GEO_SCALAR,
    "geometry:k2_residual": _GEO_SCALAR,
    "geometry:transform_jet": _GEO_SCALAR,
    "geometry:shift_level": _GEO_SCALAR,
    "sampler:sample_points": Probe("sampler.sample", span=True, count="sampler.sample_calls",
                                   hook=_sample),
    "sampler:solve_many": Probe("sampler.solve", span=True, count="sampler.solve_calls",
                                hook=_solve),
    "sampler:solve_axis": Probe("sampler.solve", count="sampler.solve_calls", hook=_solve),
    "sampler:solve_z": Probe("sampler.solve", count="sampler.solve_calls", hook=_solve),
    "sampler:marching_cubes": Probe("sampler.mc", span=True, count="sampler.mc_calls", hook=_mc),
    "sampler:export_obj": Probe("sampler.export", span=True, count="sampler.export_calls",
                                hook=_export),
    "sampler:export_report": Probe("sampler.export", span=True, count="sampler.export_calls",
                                   hook=_export),
    "verify:collect_samples": Probe("verify.collect", span=True, count="verify.collect_calls",
                                    hook=_collect),
    "verify:classify": Probe("verify.classify", span=True, count="verify.classify_calls"),
    "verify:check_constant_K": _CLASSIFY,
    "verify:estimate_structure": _CLASSIFY,
    "verify:run_theorem_suite": Probe("verify.suite", span=True, count="verify.suite_calls"),
    "cli:main": Probe("cli", span=True, count="cli.jobs"),
    "cli:cmd_family": _CLI,
    "cli:cmd_curvature": _CLI,
    "cli:cmd_classify": _CLI,
    "cli:cmd_verify": _CLI,
    "cli:build_parser": _CLI,
}


def default_probe(module: str) -> Probe:
    return Probe("cli" if module == "cli" else f"{module}.other")


SELF_KEYS = (
    "expr.parse", "expr.vec", "expr.scalar", "expr.other",
    "families.build", "families.profile", "families.tab", "families.other",
    "sampler.sample", "sampler.solve", "sampler.mc", "sampler.export", "sampler.other",
    "geometry.batch", "geometry.scalar", "geometry.other",
    "verify.collect", "verify.classify", "verify.suite", "verify.other",
    "cli",
)
COUNTS = (
    "expr.parse_calls", "expr.vec_calls", "expr.vec_elems", "expr.scalar_calls",
    "families.build_calls", "families.profile_calls", "families.tab_vec_elems",
    "families.tab_scalar_calls",
    "sampler.sample_calls", "sampler.solve_calls", "sampler.solve_columns",
    "sampler.solve_points",
    "sampler.mc_calls", "sampler.mc_cells", "sampler.mc_skipped_cells", "sampler.mc_vertices",
    "sampler.mc_triangles", "sampler.export_calls",
    "geometry.batch_calls", "geometry.batch_points", "geometry.scalar_calls",
    "verify.collect_calls", "verify.collect_attempts", "verify.classify_calls",
    "verify.suite_calls", "cli.jobs",
)


def layer_metrics(tracer, report_bytes: int, overhead_s: float) -> dict:
    """Per-layer metric name -> (value, unit) for one traced pass."""
    c = tracer.counts
    out = {f"{key}.self_s": (tracer.self_s.get(key, 0.0), "s") for key in SELF_KEYS}
    for module in ("expr", "families", "sampler", "geometry", "verify"):
        out[f"{module}.self_s"] = (sum(tracer.self_s.get(key, 0.0) for key in SELF_KEYS
                                       if key.startswith(module + ".")), "s")
    out.update({name: (c.get(name, 0), "count") for name in COUNTS})
    cols = c.get("sampler.solve_columns", 0)
    out["sampler.points_per_column"] = (c.get("sampler.solve_points", 0) / cols if cols else 0.0,
                                        "ratio")
    computed = c.get("verify.collect_computed", 0)
    out["verify.collect_useful_ratio"] = (
        c.get("verify.collect_points", 0) / computed if computed else 0.0, "ratio")
    out["sampler.export_bytes"] = (c.get("sampler.export_bytes", 0), "bytes")
    out["cli.report_bytes"] = (report_bytes, "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
