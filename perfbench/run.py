"""Seeded localization benchmark of the sfmloc pipeline.

    python3 perfbench/run.py --workload street-basic --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One run generates the workload's scene from the seed (untimed, in a
child process), then localizes every query of the scene once, and
round-robin after that until the queries have taken ``--seconds``, with
set-ups of the pipeline interleaved among them.  Every repeat must
reproduce the query's first pose, and every localized pose is scored
against its golden pose.  With ``--trace 0`` the last stdout line is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds per-layer
metrics from running each query traced, which must reproduce the same
query run untraced exactly.  ``--workload all`` runs every workload
both ways in child processes.  See README.md in this directory for the
workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
# a set-up runs before a query while set-ups have taken less than this
# share of the query time so far
SETUP_SHARE = 1 / 4
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "localized_frac": "ratio",
}
# accuracy of the traced round, reported with the per-layer metrics
ACCURACY = {
    "accuracy.median_err": ("units", "lower"),
    "accuracy.frac_err_lt_0.5": ("ratio", "higher"),
    "accuracy.median_focal_err_px": ("px", "lower"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="street-basic, street-advanced, outlier-advanced or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36.0,
                   help="minimum query time of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cap_blas_threads() -> int:
    """Limit BLAS/OpenMP pools to the usable CPUs; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def machine_info(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def make_scene(workload: str, scene_seed: int, scene_dir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, str(HERE / "scene.py"), workload,
                    str(scene_seed), str(scene_dir)],
                   env=env, check=True, timeout=150)


def check_rows(rows, reference) -> list:
    """Problems of rows against the reference runs of the same queries."""
    problems = []
    if len(rows) != len(reference):
        problems.append(f"{len(rows)} rows, expected {len(reference)}")
    for row, ref in zip(rows, reference):
        if (row.pose is None) == (row.failure is None):
            problems.append(f"{row.name}: neither a pose nor a typed failure")
        if row.pose is not None and row.error is None:
            problems.append(f"{row.name}: localized without an error")
        if not row.same_outcome(ref):
            problems.append(f"{row.name}: outcome differs from its reference run")
    return problems


def accuracy(rows) -> dict:
    """Pose errors of localized queries; the medians are 0 when none is."""
    errors = [r.error for r in rows if r.error is not None]
    trans = [e.translation for e in errors]
    focal = [e.focal_px_delta for e in errors]
    return {
        "accuracy.median_err": statistics.median(trans) if trans else 0.0,
        "accuracy.frac_err_lt_0.5": sum(t < 0.5 for t in trans) / len(rows),
        "accuracy.median_focal_err_px":
            statistics.median(focal) if focal else 0.0,
    }


def timed_setup(pipeline, config, setup_times):
    start = time.perf_counter()
    prep = pipeline.prepare(config)
    setup_times.append(time.perf_counter() - start)
    return prep


def run_untraced(pipeline, config, seconds):
    """Every query once, then round-robin until ``seconds`` of query time.

    Set-ups are spread over the whole run, as SETUP_SHARE says, so that
    set-up and query samples see the same drifts in machine speed.
    """
    setup_times = []
    start = time.perf_counter()
    prep = timed_setup(pipeline, config, setup_times)
    names = prep.query_names
    samples = {name: [] for name in names}
    first, problems = [], []
    executed = query_s = 0
    while len(first) < len(names) or query_s < seconds:
        if sum(setup_times) < SETUP_SHARE * query_s:
            prep = None  # free the previous set-up, so peak RSS holds one
            prep = timed_setup(pipeline, config, setup_times)
        qi = executed % len(names)
        row = pipeline.localize(prep, qi)
        if len(first) < len(names):
            first.append(row)
        problems += check_rows([row], [first[qi]])
        samples[names[qi]].append(row.seconds)
        query_s += row.seconds
        executed += 1
    wall = time.perf_counter() - start

    means = [statistics.fmean(s) for s in samples.values()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "query_p50_s": statistics.median(
            statistics.median(s) for s in samples.values()),
        "queries_per_s": len(means) / sum(means),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "localized_frac": sum(r.pose is not None for r in first) / len(first),
    }
    print(f"# {executed} executions of {len(names)} queries and "
          f"{len(setup_times)} set-ups in {wall:.2f} s; query_p50_s is the "
          f"median over queries of each query's median; queries_per_s is "
          f"one round at each query's mean time; setup_s is the median of: "
          + " ".join(f"{t:.3f}" for t in setup_times))
    print_rows(first)
    failed = sum(r.failure is not None for r in first)
    return metrics, problems, len(first), failed


def print_rows(rows) -> None:
    for r in rows:
        outcome = (r.failure if r.error is None else
                   f"err={r.error.translation:.4f} "
                   f"focal_err={r.error.focal_px_delta:.2f}")
        print(f"# {r.name} {r.seconds:.3f} s iters={r.iterations} "
              f"backmatching={r.used_backmatching} {outcome}")


def shape_claims(workload: str, m: dict, per_query_s: float) -> list:
    """(claim, holds) pairs: what each workload is meant to stress."""
    claims = [("p4pf_calls > 0 only on street-advanced",
               (m["minimal_solvers.p4pf_calls"] > 0) == (workload == "street-advanced"))]
    if workload == "street-basic":
        share = m["descriptor_index.match_s"] / per_query_s
        claims.append((f"match_s is {share:.0%} of query time (> 80%)", share > 0.8))
    if workload == "outlier-advanced":
        share = (m["ransac_advanced.sample_s"]
                 + m["ransac_advanced.backmatch_s"]) / per_query_s
        claims.append((f"sampler + backmatch is {share:.0%} of query time (> 70%)",
                       share > 0.7))
        claims.append((f"backmatch_runs = {m['ransac_advanced.backmatch_runs']} (> 0)",
                       m["ransac_advanced.backmatch_runs"] > 0))
    return claims


def run_traced(pipeline, tracing, workload, config):
    """Set up once under the tracer, then run each query untraced and traced.

    The two runs of a query alternate which goes first, so drifts in
    machine speed fall on both sides of ``trace.overhead_frac``.
    """
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("setup"):
        prep = pipeline.prepare(config)
    reference, rows = [], []
    for qi in range(len(prep.query_names)):
        for traced in ((False, True) if qi % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    rows.append(pipeline.localize(prep, qi, tracer.span))
            else:
                reference.append(pipeline.localize(prep, qi))

    problems = check_rows(rows, reference)
    traced_s = tracing.query_seconds(tracer)
    untraced_s = sum(r.seconds for r in reference)
    metrics = tracing.layer_metrics(tracer, prep.db_keyfile_bytes)
    metrics.update(accuracy(rows))
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    if tracer.absent:
        print(f"# absent layer functions: {', '.join(tracer.absent)}")
    print(f"# traced {len(rows)} queries: {traced_s:.2f} s traced, "
          f"{untraced_s:.2f} s untraced")
    print_rows(rows)
    for claim, holds in shape_claims(workload, metrics, traced_s / len(rows)):
        print(f"# shape {'ok' if holds else 'FAILED'}: {claim}")
        if not holds:
            problems.append(f"workload shape: {claim}")
    failed = sum(r.failure is not None for r in rows)
    return metrics, problems, len(rows), failed


def per_layer(tracing) -> dict:
    """name -> (unit, better) of every metric a traced run reports."""
    return {**tracing.METRICS, **ACCURACY,
            "trace.overhead_frac": ("ratio", "lower")}


def run_one(args, nproc: int) -> int:
    if not (SRC / "sfmloc" / "__init__.py").is_file():
        print(f"error: the sfmloc sources are missing ({SRC / 'sfmloc'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import pipeline
    import tracing
    from workloads import WORKLOADS, derive_seeds

    wl = WORKLOADS[args.workload]
    scene_seed, ransac_seed = derive_seeds(args.seed)
    work = WORK / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    scene_dir, out_dir = work / "scene", work / "out"
    try:
        make_scene(wl.name, scene_seed, scene_dir)
        config = wl.run_config(scene_dir, out_dir, ransac_seed)
        if args.trace:
            metrics, problems, attempted, failed = run_traced(
                pipeline, tracing, wl.name, config)
            units = {k: unit for k, (unit, _) in per_layer(tracing).items()}
        else:
            metrics, problems, attempted, failed = run_untraced(
                pipeline, config, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # succeeds only when no other run is using it
        except OSError:
            pass

    for problem in problems:
        print(f"# check FAILED: {problem}")
    print(f"# workload {wl.name} seed {args.seed} (scene seed {scene_seed}, "
          f"RANSAC seed {ransac_seed}) trace {args.trace}")
    print(f"# machine {json.dumps(machine_info(nproc), sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"## {name} trace {trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"## {name} trace {trace} exited {proc.returncode}")
                summary["correct"] = False
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return int(not summary["correct"])


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
