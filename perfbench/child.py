"""One workload process: set up, time the operations, check every result.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, model and
instance construction and the warm-up. Prints one JSON line.

Modes: ``run`` times ops in pool order from ``--part``/``--processes`` of the
way into the pool, at least that share of the pool and for at least
``--seconds`` (closed loop, one client). It runs the workload's reference kernel
(``reference.py``) between ops and reports op times and ``setup_s`` scaled to
reference speed, and as measured under ``raw_*``.
``trace`` times ``trace_passes`` passes over the pool, each op once untraced
and then once with every layer wrapped.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
MIN_OPS = 100  # per untraced run, so that at least ten samples lie beyond p90


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=["run", "trace"], required=True)
    p.add_argument("--processes", type=int, default=1, help="processes sharing the run")
    p.add_argument("--part", type=int, default=0, help="which of them this is; sets the starting op")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--corrupt", action="store_true", help="corrupt the first op's result before its check")
    return p.parse_args()


def _timed(ops, indices):
    """Run ops[i] for i in indices; returns (samples in s, results)."""
    samples, results = [], []
    for i in indices:
        op = ops[i]
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
            result = exc
        samples.append(time.perf_counter() - start)
        results.append(result)
    return samples, results


def _run_for(workload, seconds, start, share, speed):
    """Ops in pool order from ``start`` on, until ``share`` ops were timed and
    ``seconds`` have passed, with the reference kernel run between them.
    Returns (samples, moments the ops started, results, pool indices)."""
    ops, n = workload.ops, len(workload.ops)
    samples, moments, results, indices = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = start
    while len(indices) < share or time.perf_counter() < deadline:
        speed.tick()
        moments.append(time.perf_counter())
        s, r = _timed(ops, [i % n])
        samples += s
        results += r
        indices.append(i % n)
        i += 1
    speed.tick()
    return samples, moments, results, indices


def _check_all(workload, results, indices, corrupt):
    """Count results that fail their certificate; identical results share a verdict."""
    verdicts: dict = {}
    failed = 0
    for k, (i, result) in enumerate(zip(indices, results)):
        op = workload.ops[i]
        if corrupt and k == 0 and not isinstance(result, Exception):
            failed += not _verdict(op, op.corrupt(result))
            continue
        key = _fingerprint(i, result)
        if key is None:
            verdict = _verdict(op, result)
        elif key in verdicts:
            verdict = verdicts[key]
        else:
            verdict = verdicts[key] = _verdict(op, result)
        failed += not verdict
    return failed


def _verdict(op, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(op.check(result))
    except Exception:  # a check that cannot read the result fails it
        return False


def _fingerprint(i, result):
    """A key for results that are bit-identical repeats, or None to always check."""
    if isinstance(result, (Exception, tuple)):  # CLI reports carry a wall time
        return None
    parts = [i, result.status.value, result.iterations, result.lambda0, result.multipliers.tobytes()]
    if result.state is not None:
        parts.append(result.state.coords.tobytes())
    return tuple(parts)


def _run_traced(workload, tracer):
    """Each op once untraced and once traced, in alternating order, so that
    drift in machine speed cancels out of the overhead."""
    def traced(i):
        tracer.install()
        try:
            return _timed(workload.ops, [i])
        finally:
            tracer.uninstall()

    tracer.uninstall()
    tracer.top_ns = 0
    indices = list(range(len(workload.ops))) * workload.trace_passes
    untraced, samples, results = [], [], []
    for k, i in enumerate(indices):
        if k % 2:
            s, r = traced(i)
        untraced += _timed(workload.ops, [i])[0]
        if not k % 2:
            s, r = traced(i)
        samples += s
        results += r
    metrics = tracer.metrics()
    traced_s = sum(samples)
    metrics["trace.overhead_frac"] = traced_s / sum(untraced) - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - tracer.top_ns / 1e9 / traced_s
    return samples, results, indices, metrics


def main():
    args = _parse()
    import workloads  # imports numpy and gmaxent

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, args.tiny)
    try:
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        out = {"setup_s": setup_s}
        if args.mode == "run":
            from reference import Speedometer

            speed = Speedometer(workload.reference)
            # Process k starts k/processes of the way into the pool and times
            # at least its share, so the processes together time every op and
            # at least MIN_OPS ops.
            n = len(workload.ops)
            start, share = args.part * n // args.processes, -(-max(n, MIN_OPS) // args.processes)
            raw, moments, results, indices = _run_for(workload, args.seconds, start, share, speed)
            samples = speed.scale(moments, raw)
            out["raw_samples_s"] = raw
            out["raw_setup_s"] = setup_s
            out["setup_s"] = setup_s * speed.factor(moments[0])
            out["kernel_s"] = speed.kernel_s
        else:
            samples, results, indices, out["trace"] = _run_traced(workload, tracer)
        out["samples_s"] = samples
        out["ops"] = indices
        out["classes"] = [workload.ops[i].cls for i in indices]
        out["failed"] = _check_all(workload, results, indices, args.corrupt)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = _environment()
        print(json.dumps(out))
    finally:
        workload.cleanup()


def _environment():
    import dataclasses
    import platform

    import numpy
    import scipy

    import gmaxent

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "solver_config": dataclasses.asdict(gmaxent.DEFAULT_SOLVER),
    }


if __name__ == "__main__":
    main()
