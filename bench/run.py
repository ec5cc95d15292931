"""sepsurf benchmark: one workload, one run.

    python3 bench/run.py --workload sample-dense --seed 1 --seconds 45 --trace 0

The run drives the public CLI entry ``sepsurf.cli.main(argv)`` in this
process with one closed-loop client: each job starts when the previous one
has returned, as for a CLI user waiting on each reply.  Jobs come in seeded
rounds (see ``workloads.py``); whole rounds run until the job time reaches
``--seconds``.  A workload's probe jobs run once, untimed, before the
rounds.  Every job's output is checked (``checks.py``); ``attempted`` and
``failed`` count the probes and the timed jobs.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs a fixed
number of rounds once untraced and once under the tracer (``tracer.py``,
``layers.py``) and reports the per-layer metrics.  Human-readable lines go
first; the last line of stdout is the JSON result.  ``--record FILE``
appends the full result (digest and every metric) to a JSON-lines file for
``compare.py``.

The library is imported from ``src/`` of the checkout that holds this file;
BLAS pools are capped at one thread before numpy loads.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Optional  # noqa: E402

from checks import check_job, digest_update  # noqa: E402
from layers import PROBES, default_probe, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, make_probes, make_round  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9

# time from a fresh interpreter to a built CLI parser, as every invocation pays it
_SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from sepsurf import cli\n"
    "cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def import_cli():
    """sepsurf.cli from this checkout's sources; exit 1 when they are absent."""
    if not os.path.isfile(os.path.join(SRC, "sepsurf", "cli.py")):
        sys.exit(f"bench: no sepsurf sources under {SRC}")
    sys.path.insert(0, SRC)
    from sepsurf import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"bench: sepsurf was imported from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class JobResult:
    code: object = None
    error: Optional[str] = None
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    seconds: float = 0.0
    points: int = 0
    triangles: int = 0


class Runner:
    """Runs CLI jobs in-process and records what each returned.

    The CLI reports only statistics of its samples, so the points that
    ``verify.collect_samples`` returns are captured for the residual check;
    the capture is one extra Python call per collection.
    """

    def __init__(self, cli, out_dir: str):
        self.cli = cli
        self.out_dir = out_dir
        self.samples: list = []
        self._verify = sys.modules["sepsurf.verify"]
        self._inner = None
        self.capture_on()

    def capture_on(self) -> None:
        inner = self._inner = self._verify.collect_samples

        def collect_samples(surface, *args, **kwargs):
            pts = inner(surface, *args, **kwargs)
            self.samples.append((surface, pts))
            return pts

        self._verify.collect_samples = collect_samples

    def capture_off(self) -> None:
        self._verify.collect_samples = self._inner

    def run(self, job) -> JobResult:
        argv = list(job.argv)
        paths = {}
        if job.writes_mesh:
            paths = {"mesh": os.path.join(self.out_dir, "mesh.obj"),
                     "report": os.path.join(self.out_dir, "mesh.json")}
            for path in paths.values():
                if os.path.exists(path):
                    os.remove(path)
            argv += ["--mesh", paths["mesh"], "--report", paths["report"]]
        self.samples = []
        res = JobResult()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                res.code = self.cli.main(argv)
        except SystemExit as exc:
            res.code = exc.code
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            res.error = f"{type(exc).__name__}: {exc}"
        res.seconds = time.perf_counter() - start
        res.stdout, res.stderr = out.getvalue(), err.getvalue()
        for name, path in paths.items():
            if os.path.exists(path):
                with open(path) as fh:
                    res.files[name] = fh.read()
        res.samples = self.samples
        return res


@dataclass
class Pass:
    """Outcome of running a workload's probes and a sequence of rounds."""

    seconds: list = field(default_factory=list)  # per timed job
    plain_seconds: list = field(default_factory=list)  # untraced twin of each traced job
    problems: list = field(default_factory=list)  # per job, of both twins when traced
    points: int = 0  # on-surface points returned by passing jobs
    triangles: int = 0  # triangles written by passing jobs
    report_bytes: int = 0
    rounds: int = 0
    digest: str = ""

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)

    @property
    def wrong(self) -> list:
        return [m for p in self.problems for kind, m in p if kind == "wrong"]


def run_traced(runner, tracer, job) -> JobResult:
    """Run one job with the tracer's wrappers installed, then remove them."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "sepsurf" or name.startswith("sepsurf.")]
    runner.capture_off()
    tracer.install(modules, PROBES, default_probe)
    runner.capture_on()
    try:
        return runner.run(job)
    finally:
        runner.capture_off()
        tracer.uninstall()
        runner.capture_on()


def run_rounds(runner, workload: str, seed: int, budget_s: float = 0.0,
               rounds: int = 0, tracer=None) -> Pass:
    """Run the probes, then whole rounds until job time reaches budget_s, or
    exactly ``rounds``.

    With a tracer, each job runs twice back to back, traced and untraced,
    in alternating order so that order effects cancel in the overhead; the
    pass records the traced run and the untraced job times.
    """
    out = Pass()
    digest = hashlib.sha256()
    for index, job in enumerate(make_probes(workload, seed)):
        res = runner.run(job)
        digest_update(digest, -1 - index, res)
        out.problems.append(check_job(job, res))
    total = 0.0
    while True:
        for job in make_round(workload, seed, out.rounds):
            index = len(out.seconds)
            if tracer is None:
                res = runner.run(job)
                problems = check_job(job, res)
            else:
                tracer.job = index
                if index % 2:
                    plain = runner.run(job)
                    res = run_traced(runner, tracer, job)
                else:
                    res = run_traced(runner, tracer, job)
                    plain = runner.run(job)
                out.plain_seconds.append(plain.seconds)
                problems = check_job(job, res) + check_job(job, plain)
            if out.rounds == 0:
                digest_update(digest, index, res)
            out.seconds.append(res.seconds)
            out.problems.append(problems)
            out.report_bytes += len(res.stdout.encode()) + sum(
                len(t.encode()) for t in res.files.values())
            if not problems:
                out.points += res.points
                out.triangles += res.triangles
            total += res.seconds
        out.rounds += 1
        if out.rounds == 1:
            out.digest = digest.hexdigest()
        if (rounds and out.rounds >= rounds) or (not rounds and total >= budget_s):
            return out


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, SRC], capture_output=True,
                              text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def end_to_end(p: Pass, workload, setup_s: float) -> dict:
    """name -> (value, unit, note) of every end-to-end figure of one run."""
    busy = sum(p.seconds)
    n = len(p.seconds)
    ranked = sorted(p.seconds)
    attempted = len(p.problems)
    out = {
        "job_p50_ms": (1e3 * statistics.median(ranked), "ms", f"{n} timed jobs"),
        "jobs_per_s": (n / busy, "1/s", "completed jobs per second of job time"),
        "setup_s": (setup_s, "s", f"median of {SETUP_PROBES} fresh processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "this process"),
        "fail_ratio": (p.failed / attempted, "ratio", f"{p.failed} of {attempted} jobs"),
    }
    if n >= 100:  # the highest percentile with 10 jobs beyond it is p90 or above
        out["job_tail_ms"] = (1e3 * ranked[n - 11], "ms",
                              f"p{100.0 * (n - 10) / n:.1f} of {n} jobs")
    if workload.counts_points:
        out["points_per_s"] = (p.points / busy, "1/s", f"{p.points} points")
    if workload.counts_triangles:
        out["triangles_per_s"] = (p.triangles / busy, "1/s", f"{p.triangles} triangles")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the full result to this JSON-lines file")
    args = ap.parse_args(argv)

    cli = import_cli()
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner = Runner(cli, out_dir)
        runner.run(Job(("classify", "--f=x^2", "--g=y^2", "--h=z^2-1"), "classify"))  # warm-up
        if args.trace:
            tracer = Tracer()
            result = run_rounds(runner, args.workload, args.seed,
                                rounds=workload.trace_rounds, tracer=tracer)
            tracer.write_spans(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
            overhead = sum(result.seconds) - sum(result.plain_seconds)
            figures = {k: (v, u, "") for k, (v, u) in layer_metrics(
                tracer, result.report_bytes, overhead).items()}
        else:
            setup_s = measure_setup()
            result = run_rounds(runner, args.workload, args.seed, budget_s=args.seconds)
            figures = end_to_end(result, workload, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        sys.exit(f"bench: workload {args.workload} produced no {missing}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result.rounds}  jobs {len(result.problems)}  digest {result.digest}")
    for name, (value, unit, note) in figures.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    seen = set()
    for problems in result.problems:
        for kind, msg in problems:
            if (kind, msg[:60]) not in seen and len(seen) < 12:
                seen.add((kind, msg[:60]))
                print(f"  failed job ({kind}): {msg[:300]}")

    summary = {
        "correct": not result.wrong,
        "attempted": len(result.problems),
        "failed": result.failed,
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "rounds": result.rounds, "digest": result.digest,
                  "correct": summary["correct"], "attempted": summary["attempted"],
                  "failed": summary["failed"],
                  "metrics": {k: {"value": v, "unit": u, "note": note}
                              for k, (v, u, note) in figures.items()}}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
