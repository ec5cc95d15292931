"""Per-job correctness checks and output digests.

A job *fails* when any check below finds a problem; failures feed
``fail_ratio``.  Problems come in two kinds:

* ``protocol``: the job did not give a usable answer (an exception, a
  nonzero exit code, a report that is not strict JSON);
* ``wrong``: the job gave a well-formed answer that is false (wrong label,
  point off the surface, broken mesh, a verify suite that did not pass).

Only ``wrong`` problems make a run's ``correct`` false.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import VALID_LABELS

RESIDUAL_TOL = 1e-9
K_TOL = 1e-8  # relative agreement with a known constant curvature


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def mesh_defects(obj_text: str, box) -> dict:
    """Edge statistics of an OBJ triangle mesh clipped by ``box``.

    An edge shared by more than two triangles is non-manifold.  An edge of a
    single triangle is a boundary edge; it is allowed only when both of its
    ends lie on the same face of the box.
    """
    v_rows, f_rows = [], []
    for line in obj_text.splitlines():
        if line.startswith("v "):
            v_rows.append(line[2:])
        elif line.startswith("f "):
            f_rows.append(line[2:])
    verts = np.array(" ".join(v_rows).split(), dtype=float).reshape(-1, 3)
    tris = np.array(" ".join(f_rows).split(), dtype=np.int64).reshape(-1, 3) - 1
    out = {"vertices": len(verts), "triangles": len(tris),
           "non_manifold_edges": 0, "interior_boundary_edges": 0}
    if not len(tris):
        return out
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    edges.sort(axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    out["non_manifold_edges"] = int(np.count_nonzero(counts > 2))
    boundary = uniq[counts == 1]
    if len(boundary):
        a, b = verts[boundary[:, 0]], verts[boundary[:, 1]]
        on_face = np.zeros(len(boundary), dtype=bool)
        for axis in range(3):
            for bound in (box[2 * axis], box[2 * axis + 1]):
                tol = 1e-12 * (1.0 + abs(bound))
                on_face |= (np.abs(a[:, axis] - bound) <= tol) & (np.abs(b[:, axis] - bound) <= tol)
        out["interior_boundary_edges"] = int(np.count_nonzero(~on_face))
    return out


def check_job(job, result) -> list:
    """(kind, message) problems of one finished job; empty when it passed.

    ``result`` carries ``code``, ``stdout``, ``files`` (name -> text) and
    ``samples`` (the (surface, points) pairs the CLI's sampling returned);
    the check sets its ``points`` and ``triangles`` counts.
    """
    problems = []
    if result.error is not None:
        return [("protocol", f"raised {result.error}")]
    if result.code != 0:
        problems.append(("protocol", f"exit code {result.code}"))

    if job.kind == "family":
        if not {"mesh", "report"} <= set(result.files):
            return problems + [("protocol", "mesh or sidecar not written")]
        try:
            report = strict_loads(result.files["report"])
        except ValueError as exc:
            return problems + [("protocol", f"sidecar: {exc}")]
        box = report["grid"]["box"]
        stats = mesh_defects(result.files["mesh"], box)
        result.triangles = stats["triangles"]
        if stats["non_manifold_edges"]:
            problems.append(("wrong", f"{stats['non_manifold_edges']} non-manifold edges"))
        if stats["interior_boundary_edges"]:
            problems.append(("wrong", f"{stats['interior_boundary_edges']} boundary edges off the box faces"))
        if len(report["K"]) != stats["vertices"]:
            problems.append(("wrong", f"{len(report['K'])} K values for {stats['vertices']} vertices"))
        return problems

    try:
        doc = strict_loads(result.stdout)
    except ValueError as exc:
        return problems + [("protocol", f"report: {exc}")]

    if job.kind == "verify":
        if doc.get("passed") is not True:
            failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
            problems.append(("wrong", f"verify did not pass: {failed}"))
        return problems

    if job.kind == "classify":
        label = doc.get("label")
        if label not in VALID_LABELS:
            problems.append(("wrong", f"label {label!r}"))
        elif job.label is not None and label != job.label:
            problems.append(("wrong", f"label {label!r}, expected {job.label!r}"))
    elif job.K is not None:
        tol = K_TOL * (1.0 + abs(job.K))
        if abs(doc["K_mean"] - job.K) > tol or doc["K_max_dev"] > tol:
            problems.append(("wrong", f"K_mean {doc['K_mean']!r}, max dev {doc['K_max_dev']!r}, "
                                      f"expected {job.K!r}"))

    n_points = 0
    for surface, pts in result.samples:
        n_points += len(pts)
        res = np.abs(surface.value_arrays(pts)) if len(pts) else np.zeros(0)
        worst = float(np.max(res)) if res.size else 0.0
        if not (np.all(np.isfinite(res)) and worst <= RESIDUAL_TOL):
            problems.append(("wrong", f"on-surface residual {worst!r}"))
    if n_points < job.n:
        problems.append(("wrong", f"{n_points} points sampled, asked for {job.n}"))
    result.points = n_points
    return problems


def digest_update(h, index: int, result) -> None:
    """Fold one job's exit code, stdout, stderr and written files into h."""
    h.update(f"job {index} code {result.code}\n".encode())
    for part in (result.stdout, result.stderr, *(result.files[k] for k in sorted(result.files))):
        data = part.encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
