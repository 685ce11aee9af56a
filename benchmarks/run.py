"""kronfisher benchmark: end-to-end metrics, or a traced per-module breakdown.

Run from the repository root:

    python3 benchmarks/run.py --workload desk_twoterm --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --record out.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is non-zero when any correctness check
failed.  ``--record`` runs each workload untraced and then traced and
writes both results, with the tracing overhead, to one file.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy loads; one thread keeps timings
# independent of whatever else the machine runs on its other cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def import_kronfisher():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "kronfisher" / "__init__.py").is_file():
        raise SystemExit(f"error: no kronfisher sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kronfisher

    if Path(kronfisher.__file__).resolve().parent != SRC / "kronfisher":
        raise SystemExit(f"error: imported kronfisher from {kronfisher.__file__}, not {SRC}")
    return kronfisher


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- provenance


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (-1, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        # what was linked and how it was configured; the build's directories say nothing
        blas = {lib: {k: v for k, v in info.items() if "directory" not in k}
                for lib, info in deps.items()}
    except TypeError:  # numpy < 1.25 only prints its config
        blas = "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_config": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": _src_lines(),
    }


# ---------------------------------------------------------------- one run


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness
    import numpy as np
    import tracing
    from kronfisher import experiment, factorizations, linalg, optim, precond
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        tracer = tracing.Tracer(run_id=f"{name}-seed{seed}")
        tracer.install(
            {"experiment": experiment, "optim": optim, "factorizations": factorizations,
             "precond": precond, "linalg": linalg}
        )
    else:
        tracer = harness.NULL_TRACER
    try:
        out = harness.run_workload(workload, seed, seconds, tracer)
    finally:
        if trace:
            tracer.uninstall()
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not out.tally.reasons,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "failures": out.tally.reasons[:20],
    }
    if not out.passes:
        return result
    result["end_to_end"] = harness.end_to_end(workload, out)
    result["episodes"] = [
        {"first_window_loss": float(np.mean(ep.losses[: workload.window])),
         "final_window_loss": float(np.mean(ep.losses[-workload.window:])),
         "val_loss": ep.val_loss, "time_to_target_s": ep.time_to_target_s,
         "solver_iters": ep.solver_iters, "steps": len(ep.losses)}
        for ep in out.passes[0]
    ]
    if trace:
        selfs = tracing.self_times(tracer.spans)
        coverage = harness.step_coverage(tracer.spans, selfs, out)
        layers = harness.per_layer(workload, out, tracer.spans, selfs)
        layers["trace.iters_per_s"] = result["end_to_end"]["iters_per_s"]
        layers["trace.self_coverage_p50"] = float(np.median(coverage))
        layers["trace.self_coverage_min"] = min(coverage)
        layers["trace.spans"] = len(tracer.spans)
        result["per_layer"] = layers
        result["step_breakdown_s"] = harness.step_breakdown(tracer.spans, selfs, out)
        # the median, not the minimum: a garbage collection can start in the
        # microseconds between the step's timer and its first span
        if np.median(coverage) < harness.TRACE_COVERAGE_MIN:
            result["correct"] = False
            result["failed"] = result["attempted"]
            result["failures"].append(
                f"module self times cover only {np.median(coverage):.3f} of a typical traced step"
            )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}.jsonl.gz")
    return result


def contract_line(results: list[dict], spec: dict, trace: bool) -> dict:
    """The last output line: the metrics BENCHMARK.json names, nothing else."""
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {}
    for r in results:
        values = r.get("per_layer" if trace else "end_to_end", {})
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        for n in names:
            value = values.get(n, 0.0)
            # undefined on an ungated workload (e.g. a tail over 3 steps): null, not NaN
            metrics[prefix + n] = {"value": value if math.isfinite(value) else None, "unit": units[n]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def print_table(result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for why in result["failures"]:
        print(f"   FAILED: {why}")
    for section in ("end_to_end", "per_layer"):
        for key, value in result.get(section, {}).items():
            if section == "per_layer" and value == 0:
                continue
            shown = f"{value:>14.6g}" if isinstance(value, (int, float)) else f"{value!s:>14}"
            print(f"   {key:<44} {shown} {units.get(key, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for every workload in workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="run untraced and traced, write both with provenance to this file")
    args = parser.parse_args(argv)

    spec = benchmark_spec()
    import_kronfisher()
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or 'all'")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    facts = provenance(args.seed)
    print(json.dumps({"provenance": facts}, default=str))

    if args.record:
        record = {"provenance": facts, "seconds": seconds, "workloads": {}}
        results = []
        for name in names:
            plain = run_one(name, args.seed, seconds, trace=False)
            traced = run_one(name, args.seed, seconds, trace=True)
            for r in (plain, traced):
                print_table(r, spec)
            overhead = plain["end_to_end"]["iters_per_s"] - traced["end_to_end"]["iters_per_s"]
            record["workloads"][name] = {
                "untraced": plain, "traced": traced, "trace_overhead_iters_per_s": overhead,
            }
            results.append(plain)
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True, default=float))
        line = contract_line(results, spec, trace=False)
    else:
        results = []
        for name in names:
            r = run_one(name, args.seed, seconds, trace=bool(args.trace))
            print_table(r, spec)
            results.append(r)
        OUT_DIR.mkdir(exist_ok=True)
        tag = args.workload if len(names) == 1 else "all"
        (OUT_DIR / f"result-{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"provenance": facts, "results": results}, indent=1, default=float)
        )
        line = contract_line(results, spec, trace=bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
