"""voxdet benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 15 --trace 0

``--trace 0`` times the end-to-end metrics with no wrappers installed.
``--trace 1`` runs an untraced phase, then a phase with spans recorded around
the public functions of each module (see ``tracing.py``), and reports the
per-module metrics plus the tracing overhead.  Every run checks the outputs,
writes a results file with an environment record under ``perfbench/out/``,
and prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_mean": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it; with ten or fewer samples, the slowest."""
    xs = sorted(samples)
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():  # a plain checkout has no history
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "loop": "closed, one caller",
    }


def timed_phase(workload, state, seconds, threads, tracer=None):
    from workloads import Phase

    with Phase(seconds, tracer) as phase:
        workload.run(state, phase, threads)
    workload.check(state, phase)
    return phase


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of each timed phase; 0 runs one op (or one fit)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "voxdet" / "__init__.py").is_file():
        print(f"voxdet sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import voxdet

    if Path(voxdet.__file__).resolve().parent != src / "voxdet":
        print(f"imported voxdet from {voxdet.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            rep_dir = workdir / f"setup{r}"
            rep_dir.mkdir(parents=True)
            start = time.perf_counter()
            state = workload.setup(args.seed, rep_dir)
            setup_times.append(time.perf_counter() - start)
        # imports happen once per process; generation and model building repeat
        setup_s = import_s + statistics.median(setup_times)

        main_phase = timed_phase(workload, state, args.seconds, workload.threads)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = {"untraced": main_phase}
        problems = list(main_phase.problems)
        details = {}
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.Patches() as patches:
                tracer.install(patches)
                phases["traced"] = timed_phase(workload, state, args.seconds,
                                               workload.threads, tracer)
            if workload.threads > 1:
                phases["serial"] = timed_phase(workload, state, args.seconds, 1)
            for name, phase in phases.items():
                if name != "untraced":
                    problems += [f"{name}: {p}" for p in phase.problems]
                    common = sorted(set(phase.outputs) & set(main_phase.outputs))
                    if not common or any(phase.outputs[k] != main_phase.outputs[k]
                                         for k in common):
                        problems.append(f"{name} outputs differ from untraced "
                                        f"(ops compared: {len(common)})")
                    details[f"{name}_ops_compared"] = len(common)
            traced = phases["traced"]
            metrics = tracer.metrics(traced.attempted)
            untraced_p50 = statistics.median(main_phase.op_ms)
            serial = phases.get("serial", main_phase)
            metrics["pipeline.serial_frame_ms"] = statistics.median(serial.op_ms)
            metrics["trace.op_ms_p50"] = statistics.median(traced.op_ms)
            metrics["trace.untraced_op_ms_p50"] = untraced_p50
            metrics["trace.overhead_ratio"] = metrics["trace.op_ms_p50"] / untraced_p50
            missing = [m for m in workload.most_work if not metrics[m] > 0]
            if missing:
                problems.append(f"zero on a workload that does most of their work: {missing}")
            units = tracing.PER_LAYER_UNITS
            (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
                json.dumps(tracer.dump()))
        else:
            value, pct, beyond = tail(main_phase.op_ms)
            details["op_ms_tail"] = {"percentile": pct, "samples_beyond": beyond}
            # the mean, not the median, is bounded: under a host whose speed flips
            # between two levels, a run's median jumps between them
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": main_phase.attempted / main_phase.wall_s,
                "op_ms_mean": statistics.fmean(main_phase.op_ms),
                "op_ms_tail": value,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    details.update({
        "samples": len(main_phase.op_ms),
        "op_ms_p50": statistics.median(main_phase.op_ms),
        "op_ms": {name: p.op_ms for name, p in phases.items()},
        "fail_ratio": failed / attempted,
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "phase_ops": {name: p.attempted for name, p in phases.items()},
        "problems": problems,
    })
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "details": details, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<13} {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:<13} samples {details['samples']}, op_ms_p50 {details['op_ms_p50']:.6g} ms, "
          f"fail_ratio {details['fail_ratio']}"
          + (f", tail at p{details['op_ms_tail']['percentile']:.1f} with "
             f"{details['op_ms_tail']['samples_beyond']} beyond" if "op_ms_tail" in details else ""))
    for problem in problems:
        print(f"{args.workload:<13} CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
