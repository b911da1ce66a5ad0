#!/usr/bin/env python3
"""Benchmark polistance on one workload; the last line printed is the result.

Run from the repository root:

    python3 perfbench/run.py --workload text-forest --seed 1 --seconds 16 --trace 0

The workload sets up its input sets, each from its own seed derived
from ``--seed`` and each in a forked child process, so that the peak RSS
of this process covers only its imports and the ops; ``setup_s`` is the
import time plus the median time to make one input set and load it here.
Then one caller runs ops in a closed loop, each starting when the last has
ended and taking the input sets in turn, until ``--seconds`` have passed
and every set has had an op. Every op's output is checked. With
``--trace 0`` the result carries the end-to-end metrics: ``run_s`` is the
median op time, the quality metrics are means over the input sets. With
``--trace 1`` only the first input set is made, untraced and traced ops
alternate on it, and the result carries the per-layer metrics, taken
from spans that ``tracer.Tracer`` records around polistance's public
functions; the spans are written to ``perfbench/work/<workload>-trace.json``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy's BLAS gets one thread, so a run uses at most two with the interpreter's
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok": "fraction",
    "accuracy": "fraction",
    "coverage": "fraction",
    "modularity_q": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _setup_child(workload, directory: Path, seed: int, trace: bool,
                 handoff: Path) -> None:
    """Make one input set and pickle it, with its synth time, to ``handoff``."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed("setup") if trace else nullcontext():
        inputs = workload.setup(directory, seed)
    with handoff.open("wb") as out:
        pickle.dump((inputs, tracer.busy("setup")["synth.generate"]), out)


def make_inputs(workload, directory: Path, seed: int, trace: bool):
    """One input set, made in a forked child so its garbage never counts
    towards this process's peak RSS; returns it with the child's synth time.
    """
    handoff = directory.with_suffix(".pickle")
    child = multiprocessing.get_context("fork").Process(
        target=_setup_child, args=(workload, directory, seed, trace, handoff))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"making inputs in {directory} exited with {child.exitcode}")
    with handoff.open("rb") as source:
        loaded = pickle.load(source)
    handoff.unlink()
    return loaded


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polistance" / "__init__.py").is_file():
        print(f"perfbench: no polistance package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import LAYER_UNITS, Tracer, median_metrics
    from workloads import WORKLOADS, CheckFailed

    import_s = time.perf_counter() - STARTED
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # every op gets the same, freshly emptied out_dir: the path is part of
    # the config, whose hash report.json carries
    out_dir = work / "out"
    tracer = Tracer()

    def traced_if(flag: bool, op: str):
        return tracer.installed(op) if flag else nullcontext()

    work.mkdir(parents=True)
    input_sets = 1 if args.trace else workload.input_sets
    inputs, setup_times, generate_times = [], [], []
    for i in range(input_sets):
        t0 = time.perf_counter()
        made, generate_s = make_inputs(workload, work / f"in{i}",
                                       args.seed * workload.input_sets + i, args.trace)
        setup_times.append(time.perf_counter() - t0)
        inputs.append(made)
        generate_times.append(generate_s)
    # the inputs the benchmark holds are no garbage the ops should sweep
    gc.collect()
    gc.freeze()
    setup_rss_mb = _peak_rss_mb()

    # ops take the input sets in turn; a traced run instead alternates an
    # untraced and a traced op on its one set, so their difference is the
    # tracing overhead
    if args.trace:
        schedule = [(0, False), (0, True)]
    else:
        schedule = [(i, False) for i in range(input_sets)]
    op_times: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict] = []
    quality: dict[int, dict[str, float]] = {}
    attempted = failed = 0
    started = time.perf_counter()
    while attempted < len(schedule) or time.perf_counter() - started < args.seconds:
        index, traced = schedule[attempted % len(schedule)]
        op = f"op{attempted}"
        attempted += 1
        gc.collect()
        try:
            with traced_if(traced, op):
                t0 = time.perf_counter()
                result = workload.op(inputs[index], out_dir)
                op_times[traced].append(time.perf_counter() - t0)
            quality[index] = workload.check(inputs[index], out_dir, result)
            if traced:
                layers.append(tracer.layer_metrics(op, _stages(out_dir)))
        except CheckFailed as exc:
            failed += 1
            print(f"perfbench: {op} output check failed: {exc}", file=sys.stderr)
        except Exception:
            failed += 1
            print(f"perfbench: {op} raised", file=sys.stderr)
            traceback.print_exc()
        finally:
            result = None
            shutil.rmtree(out_dir, ignore_errors=True)
    inputs.clear()
    shutil.rmtree(work, ignore_errors=True)

    info = machine()
    if args.trace:
        metrics = median_metrics(layers) if layers else {}
        metrics["synth.generate_s"] = statistics.median(generate_times)
        metrics["trace.overhead_s"] = _median(op_times[True]) - _median(op_times[False])
        units = LAYER_UNITS
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"{args.workload}-trace.json",
                    {"workload": args.workload, "seed": args.seed, "machine": info})
    else:
        metrics = {
            "run_s": _median(op_times[False]),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
            "ops_ok": 1.0 - failed / attempted,
        }
        for key in ("accuracy", "coverage", "modularity_q"):
            values = [q[key] for q in quality.values()]
            metrics[key] = statistics.fmean(values) if values else 0.0
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine  " + "  ".join(f"{key} {value}" for key, value in info.items()))
    print(f"ops      {attempted} attempted, {failed} failed "
          f"(ops_failed {failed / attempted:g} fraction)")
    print(f"peak RSS {setup_rss_mb:.1f} MiB before the first op, "
          f"{_peak_rss_mb():.1f} MiB after the last")
    for traced, times in op_times.items():
        if times:
            kind = "traced" if traced else "untraced"
            print(f"{kind} op seconds  " + " ".join(f"{t:.3f}" for t in times))
    for name, unit in units.items():
        note = ""
        if name == "run_s":
            note = f"  (median of {len(op_times[False])} untraced ops)"
        print(f"  {name:<34} {metrics.get(name, 0.0):>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _peak_rss_mb() -> float:
    """Peak RSS of this process so far; forked children do not count."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _median(values: list[float]) -> float:
    """Median, or 0.0 when every op failed and left no time."""
    return statistics.median(values) if values else 0.0


def _stages(out_dir: Path) -> dict[str, float]:
    """Stage timings from the op's manifest.json, if it wrote one."""
    manifest = out_dir / "manifest.json"
    if not manifest.is_file():
        return {}
    stages = json.loads(manifest.read_text("utf-8"))["stages"]
    return {stage["name"]: stage["seconds"] for stage in stages}


if __name__ == "__main__":
    sys.exit(main())
