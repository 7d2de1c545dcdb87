#!/usr/bin/env python3
"""Benchmark of the hyperq command line, driven in process.

    python3 hqbench/run.py --workload realize-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; hyperq is imported from ./src.
Each operation is one ``hyperq.cli.main(argv)`` call with stdout and
stderr captured.  A run does one untimed warm-up pass over the
workload's operations, then timed passes until --seconds of passes are
spent (at least MIN_PASSES), with the SETUP_REPEATS fresh-interpreter
set-ups of setup_s spread between them, then checks every warm-up output with the oracles in
workloads.py and every later output against the warm-up bytes.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, op_p50_ms
and peak_rss_mb.  --trace 1 alternates untraced and traced passes and
reports the per-module metrics of spans.py plus trace.overhead_s.
Outputs, the sha256 record of every operation and the spans are written
under hqbench/runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

MIN_PASSES = 2
SETUP_REPEATS = 7

import workloads  # noqa: E402
from oracle import OracleError  # noqa: E402
from spans import COUNTS, OP_SPAN, TIMES, Tracer  # noqa: E402


def import_program():
    """Import hyperq.cli from the checkout's src; never from elsewhere."""
    if not (SRC / "hyperq" / "cli.py").is_file():
        raise SystemExit(f"hqbench: no hyperq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperq
    import hyperq.cli

    if Path(hyperq.__file__).resolve().parent != SRC / "hyperq":
        raise SystemExit(f"hqbench: hyperq imported from {hyperq.__file__}, not {SRC}")
    return hyperq.cli


def setup(workload: str, seed: int, workdir: Path, toy: bool = False):
    """Import the program and write the workload's inputs."""
    cli = import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    return cli, workloads.WORKLOADS[workload](seed, workdir, toy)


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall time of a fresh interpreter doing ``setup``."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"hqbench: setup failed: {proc.stderr.strip()[-500:]}")
    shutil.rmtree(workdir)
    return elapsed


def run_op(cli, argv: list[str], tracer: Tracer | None):
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sid = tracer.open(OP_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(sid)
    return workloads.Result(code, out.getvalue(), err.getvalue()), dt


def run_pass(cli, ops, tracer: Tracer | None = None):
    """One pass: (wall seconds, per-op seconds, results)."""
    results, times = [], []
    gc.collect()  # start every pass from the same heap, outside the timing
    t0 = time.perf_counter()
    for op in ops:
        res, dt = run_op(cli, op.argv, tracer)
        if tracer:
            tracer.counts["cli.stdout_bytes"] += len(res.out.encode())
        results.append(res)
        times.append(dt)
    return time.perf_counter() - t0, times, results


def sha(res) -> str:
    return hashlib.sha256(res.out.encode()).hexdigest()


def blas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    rundir = RUNS / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    cli, ops = setup(workload, seed, rundir / "inputs", toy)
    setup_times = []

    def time_setups(count):
        # spread over the run, so that the median samples the same host
        # conditions as the passes rather than one moment at the start
        while not trace and len(setup_times) < count:
            setup_times.append(time_setup(workload, seed, rundir / f"setup{len(setup_times)}"))

    tracer = Tracer() if trace else None

    _, _, warm = run_pass(cli, ops)
    digests = [sha(res) for res in warm]
    errors = []
    n_passes, failed = 1, sum(workloads.refused(res) and op.gate for op, res in zip(ops, warm))

    def compare(results):
        # later passes keep only their digests, so held memory stays one pass
        nonlocal n_passes, failed
        n_passes += 1
        for op, res, first, d in zip(ops, results, warm, digests):
            failed += workloads.refused(res) and op.gate
            if res.code != first.code or sha(res) != d:
                errors.append(f"{op.key}: output differs from the warm-up pass")

    walls, traced_walls, op_times = [], [], [[] for _ in ops]
    layer_times, layer_counts = [], []
    while True:
        wall, times, results = run_pass(cli, ops)
        walls.append(wall)
        for acc, dt in zip(op_times, times):
            acc.append(dt)
        compare(results)
        del results
        if tracer:
            tracer.counts.clear()
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, _, results = run_pass(cli, ops, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            compare(results)
            del results
            layer_times.append(tracer.self_times(first))
            layer_counts.append(dict(tracer.counts))
        busy = sum(walls) + sum(traced_walls)
        time_setups(math.ceil(SETUP_REPEATS * min(1.0, busy / seconds)))
        if len(walls) >= (1 if tracer else MIN_PASSES) and busy * (1 + 1 / len(walls)) > seconds:
            break
    time_setups(SETUP_REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for op, res in zip(ops, warm):
        try:
            if workloads.refused(res) and not op.gate:
                raise OracleError("refused by a size gate")
            op.check(res)
        except OracleError as exc:
            errors.append(f"{op.key}: {exc}")
        except Exception as exc:  # a malformed output breaks the oracle itself
            errors.append(f"{op.key}: oracle could not read the output: {exc!r}")
    attempted = len(ops) * n_passes
    all_times = [dt for acc in op_times for dt in acc]

    if trace:
        metrics = {}
        for m in TIMES:
            metrics[m] = {"value": statistics.median(t[m] for t in layer_times), "unit": "s"}
        for m in COUNTS:
            metrics[m] = {"value": statistics.median_low(c.get(m, 0) for c in layer_counts),
                          "unit": "bytes" if m.endswith("_bytes") else "count"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(all_times) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": n_passes, "timed_passes": walls, "traced_passes": traced_walls,
        "op_p90_ms": statistics.quantiles(all_times, n=10)[-1] * 1e3,
        "errors": errors,
        "metrics": metrics,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "blas_threads": blas_threads()},
        "ops": [{"key": op.key, "argv": [os.path.relpath(a, ROOT) if os.path.isabs(a) else a
                                         for a in op.argv],
                 "exit": res.code, "sha256": d, "stdout_bytes": len(res.out.encode()),
                 "median_ms": statistics.median(acc) * 1e3}
                for op, res, d, acc in zip(ops, warm, digests, op_times)],
    }
    (rundir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        (rundir / "trace.json").write_text(json.dumps(tracer.dump()) + "\n")
    for e in errors[:20]:
        print(f"hqbench: {e}", file=sys.stderr)
    if tracer and tracer.absent:
        print(f"hqbench: absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    import_program()
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
