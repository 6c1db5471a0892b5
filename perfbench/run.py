"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload icvmd_features --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload is set up six times, three before and three
after the run (setup_s is the median), warmed up on one capture, and run once
with tracing off while ``hostclock.HostSampler`` samples the host's speed; the
end-to-end metrics are printed.  With ``--trace 1`` it is set up once under
the tracer, then run at half size twice, untraced and traced, without the
sampler, and the per-layer metrics plus the tracing overhead (traced minus
untraced wall time) are printed.  Either way the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics, and a
record of the run (environment, every metric, and the spans of a traced run)
is written to .perfbench/runs/ in the repository root.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-ups per untraced run: half before the pipeline and half after, so their
# median samples the host at two moments about a run length apart.
SETUP_REPEATS = 6


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded (numpy and scipy ship their own)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return {}
    threads = {}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "commit": _git_commit(),
    }


def end_to_end(out, setup_s: list, sampler) -> dict:
    """The metrics BENCHMARK.json gates.  The pipeline's time is in reference
    units (hostclock.py), which follow the program and not the host's drift.
    Set-up is mostly file writes, which the reference does not follow, so it
    stays in seconds.  perfbench/README.md gives the measured spreads."""
    import numpy as np

    return {
        "setup_s": (float(np.median(setup_s)), "s"),
        "wall_ref": (sampler.in_refs(out.start_at, out.end_at, out.wall_s), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def sampled_metrics(out, sampler) -> dict:
    """Per-capture latency in reference units and the sampler's own figures,
    printed beside the end-to-end metrics."""
    import numpy as np

    capture_ref = np.asarray(out.capture_s) / sampler.reference_at(out.capture_at)
    return {
        "capture_ref.p50": (float(np.percentile(capture_ref, 50)), "ref"),
        "capture_ref.p95": (float(np.percentile(capture_ref, 95)), "ref"),
        "reference_ms.p50": (1e3 * float(np.median(sampler.ref_s)), "ms"),
        "reference.samples": (len(sampler.ref_s), "count"),
        "reference.share": (sampler.spent / (out.end_at - out.start_at), "share"),
    }


def context_metrics(out) -> dict:
    """Printed and recorded beside the metrics of either mode, not in the JSON
    line: they are missing on some workload, can be 0, or spread across seeds
    by more than any bound (see perfbench/README.md)."""
    import numpy as np
    import spans

    capture_ms = 1e3 * np.asarray(out.capture_s)
    m = {
        "wall_s": (out.wall_s, "s"),
        "capture_ms.p50": (float(np.percentile(capture_ms, 50)), "ms"),
        "capture_ms.p95": (float(np.percentile(capture_ms, 95)), "ms"),
        "captures": (len(out.capture_s), "count"),
        "fail_share": (len(out.failures) / max(out.attempted, 1), "share"),
        "accuracy": (out.accuracy, "share"),
    }
    for name, acc in out.baselines.items():
        m[f"baseline.{name}"] = (acc, "share")
    if out.sides:
        m["vmd.sides"] = (len(out.sides), "count")
        m.update(spans.solver_counters(out.sides))
        m["roundtrip_rel_l2.max"] = (out.roundtrip_max, "")
    return m


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(args, work: Path) -> dict:
    import spans
    import workloads
    from hostclock import HostSampler

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace == 0:
        size = workloads.sizes(args.workload, args.seconds)
        setup_s = []

        def timed_setup():
            target = _fresh(work / "setup")
            t0 = time.perf_counter()
            data = workloads.setup(args.workload, args.seed, size, target)
            setup_s.append(time.perf_counter() - t0)
            return data

        for _ in range(SETUP_REPEATS // 2):
            data = timed_setup()
        workloads.warm_up(args.workload, data)
        with HostSampler() as sampler:
            out = workloads.run_pipeline(args.workload, data, size, spans.Tracer(()),
                                         sampler.now)
        for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
            timed_setup()
        metrics = end_to_end(out, setup_s, sampler)
        record["setup_s_all"] = setup_s
        record["reference_ms"] = [1e3 * r for r in sampler.ref_s]
        extra = sampled_metrics(out, sampler)
        outcomes = [out]
    else:
        size = workloads.sizes(args.workload, args.seconds / 2)
        setup_tracer = spans.Tracer(spans.LAYER_TARGETS)
        with setup_tracer.installed([workloads]):
            data = workloads.setup(args.workload, args.seed, size, _fresh(work / "setup"))
        workloads.warm_up(args.workload, data)
        plain = workloads.run_pipeline(args.workload, data, size, spans.Tracer(()))
        tracer = spans.Tracer(spans.LAYER_TARGETS)
        with tracer.installed([workloads]):
            out = workloads.run_pipeline(args.workload, data, size, tracer)
        metrics = spans.per_layer_metrics(setup_tracer, tracer, out.sides, out.epoch_s,
                                          out.wall_s, plain.wall_s)
        record["layer_shares"] = spans.layer_shares(tracer, out.wall_s)
        record["spans"] = {"setup": setup_tracer.dump(), "pipeline": tracer.dump()}
        extra = {}
        outcomes = [plain, out]

    checks = {}
    for o in outcomes:
        for name, ok in o.checks.items():
            checks[name] = checks.get(name, True) and ok
    context = {k: v for k, v in context_metrics(out).items() if k not in metrics}
    context.update(extra)
    record.update(
        sizes=vars(size),
        metrics=metrics,
        context=context,
        checks=checks,
        failures=out.failures,
        result={
            "correct": bool(checks) and all(checks.values()),
            "attempted": out.attempted,
            "failed": len(out.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    )
    return record


def report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    print("sizes: " + " ".join(f"{k}={v}" for k, v in record["sizes"].items()))
    rows = list(record["metrics"].items()) + list(record["context"].items())
    for name, (value, unit) in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>12} {unit}")
    for share_name, share in sorted(record.get("layer_shares", {}).items(), key=lambda kv: -kv[1]):
        print(f"  share of traced wall  {share_name:<20} {share:8.4f}")
    for name, ok in record["checks"].items():
        print(f"  check {name:<40} {'PASS' if ok else 'FAIL'}")
    for failure in record["failures"]:
        print(f"  failed capture {failure}")
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("icvmd_features", "icvmd_sat", "raw_nn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "icvmd" / "__init__.py").is_file():
        print(f"perfbench: no icvmd package under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # One thread: the FFTs and einsum convolutions do not call BLAS, the small
    # dense products gain nothing from a second thread, and idle OpenBLAS
    # threads on a shared 2-core host would measure the scheduler.  OpenBLAS
    # reads this when numpy is first imported, which happens below.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import icvmd

    if Path(icvmd.__file__).resolve().parent != SRC / "icvmd":
        print(f"perfbench: imported icvmd from {icvmd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env"] = environment(nproc)
    runs = ROOT / ".perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runs / name).write_text(json.dumps(record, indent=1))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
