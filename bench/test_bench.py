"""Fast tests of the benchmark's own parts: python3 -m pytest -q bench"""

import re
import types

import pytest

from checks import mesh_defects, strict_loads
from tracer import Probe, Tracer
from workloads import WORKLOADS, make_probes, make_round


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = make_round(workload, 7, 0)
    assert make_round(workload, 7, 0) == first
    assert make_round(workload, 8, 0) != first
    assert make_round(workload, 7, 1) != first
    probes = make_probes(workload, 7)
    assert make_probes(workload, 7) == probes
    if probes:
        assert make_probes(workload, 8) != probes


def test_planes_are_probes_not_timed_classify_jobs():
    affine = r"-?[0-9.e-]+\*[xyz]\+\(-?[0-9.e-]+\)"
    for job in make_probes("classify-stream", 7):
        assert job.kind == "classify"
        assert re.search(affine, " ".join(job.argv))
    for index in range(20):
        for job in make_round("classify-stream", 7, index):
            text = " ".join(job.argv)
            if '"translation"' in text:
                assert not re.search(r'"g": "' + affine + '"', text)
            if '"right-cylinder"' in text:
                assert not (re.search(r'"f": "' + affine + '"', text)
                            and re.search(r'"g": "' + affine + '"', text))


def test_strict_json_rejects_non_finite_constants():
    assert strict_loads('{"a": 1.5, "b": null}') == {"a": 1.5, "b": None}
    for text in ('{"kappa_agreement": Infinity}', '[-Infinity]', '[NaN]'):
        with pytest.raises(ValueError):
            strict_loads(text)


def _obj(verts, tris):
    lines = [f"v {x} {y} {z}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in tris]
    return "\n".join(lines) + "\n"


BOX = (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)


def test_mesh_check_accepts_boundary_on_box_faces():
    # two triangles spanning the face z = 0: every boundary edge lies on it
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    stats = mesh_defects(_obj(verts, [(0, 1, 2), (0, 2, 3)]), BOX)
    assert stats["non_manifold_edges"] == 0
    assert stats["interior_boundary_edges"] == 0


def test_mesh_check_flags_interior_boundary_edge():
    verts = [(0.2, 0.2, 0.5), (0.8, 0.2, 0.5), (0.5, 0.8, 0.5)]
    stats = mesh_defects(_obj(verts, [(0, 1, 2)]), BOX)
    assert stats["interior_boundary_edges"] == 3


def test_mesh_check_flags_non_manifold_edge():
    # three triangles hinged on the edge (0, 1)
    verts = [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, 0, 1), (0.5, 1, 1)]
    stats = mesh_defects(_obj(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), BOX)
    assert stats["non_manifold_edges"] == 1


def _toy_module():
    mod = types.ModuleType("toy")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) + inner(x)\n"
        "class Thing:\n"
        "    def value(self, x):\n"
        "        return inner(x)\n"
        "    __call__ = value\n",
        mod.__dict__)
    return mod


def test_tracer_self_time_on_toy_nesting():
    mod = _toy_module()
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    probes = {"toy:outer": Probe("toy.outer", span=True, count="outer_calls"),
              "toy:inner": Probe("toy.inner", count="inner_calls")}
    tracer.install([mod], probes, lambda module: Probe(f"{module}.other", span=True))
    tracer.job = 3
    assert mod.outer(1) == 4
    # clock: outer starts 0, inner 1..2, inner 3..4, outer ends 5
    assert tracer.self_s["toy.outer"] == 5.0 - 2.0
    assert tracer.self_s["toy.inner"] == 2.0
    assert tracer.counts == {"outer_calls": 1, "inner_calls": 2}
    assert tracer.spans == [(3, 0, None, "toy:outer", 0.0, 5.0, 3.0)]

    # the alias __call__ goes through the same wrapper as value
    assert mod.Thing()(1) == 2
    assert tracer.counts["inner_calls"] == 3
    assert [s[3] for s in tracer.spans] == ["toy:outer", "toy:Thing.value"]
    assert tracer.spans[1][2] is None

    tracer.uninstall()
    before = dict(tracer.counts)
    mod.outer(1)
    assert tracer.counts == before
