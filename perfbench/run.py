#!/usr/bin/env python3
"""Benchmark of morsekit: the paper's parameter sweeps, the Bessel fit and
the FFT CWT, timed end to end and per module.

    python3 perfbench/run.py                  # all four workloads, seed 1
    python3 perfbench/run.py --workload cwt_long --seed 3 --seconds 16 --trace 0

A single workload prints a summary and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are setup_s, solve_s and peak_rss_mb; with --trace 1 they are the
per-layer metrics of a traced run (see README.md).  Without --workload the
workloads run one after another.

A run splits its measuring time between WORKERS fresh processes, started
one after another; each imports morsekit, builds the inputs and runs whole
passes, so a run samples several set-ups and spreads its passes over
process-level effects such as memory layout and thread scheduling.  The
program is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

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
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("map_sweep", "bessel_fit", "cwt_long", "cwt_csv")
WORKERS = 3

SELF_METRICS = {
    "bench": "bench.self_s",
    "cli": "cli.self_s",
    "superfamily": "superfamily.self_s",
    "props.quadrature": "props.quadrature.self_s",
    "props.closed_form": "props.closed_form.self_s",
    "core.spectrum": "core.spectrum.self_s",
    "transform.scale_grid": "transform.scale_grid.self_s",
    "transform": "transform.self_s",
    "transform.fft": "transform.fft_s",
}
BYTES = ("transform.coeff_bytes", "cli.output_bytes")


class SetupError(Exception):
    pass


# ---------------------------------------------------------------------------
# worker: one process, one set-up, whole passes
# ---------------------------------------------------------------------------


def setup(name: str, seed: int, stream: int, workdir: Path):
    """Import morsekit from the checkout and build the workload's inputs.
    Returns (modules, workload, seconds spent in those two steps)."""
    if not (SRC / "morsekit" / "__init__.py").is_file():
        raise SetupError(f"no morsekit sources in {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import morsekit
    import morsekit.cli
    t_import = time.perf_counter() - t0
    if not Path(morsekit.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported morsekit from {morsekit.__file__}, not from {SRC}")
    # the package re-exports transform(), which hides the submodule attribute
    mk = types.SimpleNamespace(**{m: sys.modules[f"morsekit.{m}"]
                                  for m in ("core", "props", "superfamily", "transform", "cli")})
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir, stream)
    return mk, workload, t_import + time.perf_counter() - t0


def measure(mk, workload, seconds: float, tracer=None):
    """Run whole passes until their solve times add up to `seconds` (at
    least one pass; checks are not counted).  Returns per-pass (solve
    seconds, PassResult, spans)."""
    from workloads import Clock

    passes = []
    while sum(p[0] for p in passes) < seconds:
        clock = Clock(tracer)
        result = workload.run_pass(mk, clock)
        spans = tracer.take() if tracer is not None else None
        passes.append((clock.elapsed, result, spans))
    return passes


def machine() -> str:
    import mpmath
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return (f"machine: cpus={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} mpmath={mpmath.__version__} "
            f"platform={platform.platform()}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def trace_metrics(mk, workload, seconds: float, untraced: list, path: Path):
    """Traced passes for `seconds`; the per-layer metrics of the one with
    the median solve time, whose spans are written to `path`."""
    import tracing

    tracer = tracing.Tracer({m: sys.modules[m] for m in tracing.MODULES})
    tracer.install()
    try:
        traced = measure(mk, workload, seconds, tracer)
    finally:
        tracer.uninstall()
    order = sorted(range(len(traced)), key=lambda i: tracing.root_time(traced[i][2]))
    _, result, spans = traced[order[(len(order) - 1) // 2]]
    solve = tracing.root_time(spans)
    selfs = tracing.self_times(spans)
    write_spans(spans, path)

    metrics = {SELF_METRICS[layer]: metric(v, "s") for layer, v in selfs.items()}
    for key, v in tracing.counts(spans).items():
        metrics[key] = metric(v, "bytes" if key in BYTES else "count")
    metrics["cli.output_bytes"] = metric(result.output_bytes, "bytes")
    metrics["trace.solve_s"] = metric(solve, "s")
    metrics["trace.overhead_s"] = metric(solve - statistics.median(p[0] for p in untraced), "s")
    note = (f"traced passes: {len(traced)}; layer self times of the median one sum to "
            f"{sum(selfs.values()):.6f} s, its traced solve_s is {solve:.6f} s")
    return traced, metrics, note


def write_spans(spans, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = min((s.t0 for s in spans), default=0.0)
    with open(path, "w") as f:
        f.write("id,parent,layer,name,start_s,end_s,amount\n")
        for i, s in enumerate(spans):
            parent = index.get(id(s.parent), "")
            amount = "/".join(map(str, s.amount)) if isinstance(s.amount, tuple) else s.amount
            f.write(f"{i},{parent},{s.layer},{s.name},{s.t0 - t0!r},{s.t1 - t0!r},{amount}\n")


def worker(name: str, seed: int, stream: int, budget: float, trace: bool, workdir: Path):
    mk, workload, setup_s = setup(name, seed, stream, workdir)
    out = {"machine": machine(), "setup_s": setup_s}
    passes = measure(mk, workload, budget / 2 if trace else budget)
    if trace:
        path = HERE / "traces" / f"{name}-seed{seed}.csv"
        traced, out["metrics"], out["note"] = trace_metrics(mk, workload, budget / 2, passes, path)
        passes += traced
    out.update(
        solve=[p[0] for p in passes],
        attempted=sum(p[1].attempted for p in passes),
        failed=sum(p[1].failed for p in passes),
        problems=[msg for p in passes for msg in p[1].problems],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workers = 1 if trace else WORKERS
    results = []
    try:
        for stream in range(workers):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--worker", str(stream),
                 "--workload", name, "--seed", str(seed), "--budget", repr(seconds / workers),
                 "--trace", str(int(trace)), "--workdir", str(workdir)],
                stdout=subprocess.PIPE, text=True, timeout=170,
            )
            if proc.returncode != 0:
                return proc.returncode
            results.append(json.loads(proc.stdout.splitlines()[-1]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    solve = [t for r in results for t in r["solve"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [msg for r in results for msg in r["problems"]]
    setups = [r["setup_s"] for r in results]
    print(results[0]["machine"])
    if trace:
        print(results[0]["note"])
        metrics = results[0]["metrics"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "solve_s": metric(statistics.median(solve), "s"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in results), "MB"),
        }
    print(f"workload {name}: seed {seed}, {len(solve)} passes in {workers} processes, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"  set-ups (s): {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"  pass solve times (s): {', '.join(f'{t:.4f}' for t in solve)}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for msg in problems[:20]:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES, help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=16, help="how long one run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a worker process of a run: its index, its share of the time, the run's directory
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if args.worker is not None:
        try:
            result = worker(args.workload, args.seed, args.worker, args.budget,
                            bool(args.trace), args.workdir)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        return 0
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
