"""gmaxent benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload quantum_dual --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run starts the workload in fresh child
processes with BLAS pinned to one thread (``child.py``). With ``--trace 0``
it reports the end-to-end metrics: op latency percentiles, good ops per
second, set-up time (median of several fresh set-ups) and peak RSS. The
processes start at different places in the pool and together time every op
at least once. Times are scaled to the machine's reference speed
(``reference.py``), because the host's speed drifts as other tenants load it;
the times as measured are printed beside them. With
``--trace 1`` it reports per-layer calls and self time from a traced run,
its overhead over the same ops untraced, and the share of op time that no
wrapped layer covers. Every op's result is checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.

``--write-spec`` regenerates ``BENCHMARK.json`` from ``spec.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 3              # fresh processes per untraced run; setup_s is the median set-up
CHILD_TIMEOUT_S = 170.0    # whole-run budget shared by all child processes
BLAS_ENV = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


class BenchError(RuntimeError):
    pass


def percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _child(args, mode, seconds, deadline, part=0, corrupt=False):
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--mode", mode, "--processes", str(PROCESSES), "--part", str(part),
        "--spawned-at", repr(time.monotonic()),
    ]
    argv += ["--tiny"] * args.tiny + ["--corrupt"] * corrupt
    env = dict(os.environ, **BLAS_ENV)
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(parts, prefix=""):
    """Metrics from the op times and set-up times under ``prefix + "samples_s"``
    and ``prefix + "setup_s"``."""
    ms = [s * 1e3 for part in parts for s in part[prefix + "samples_s"]]
    good = len(ms) - sum(part["failed"] for part in parts)
    return {
        "op_ms_p50": percentile(ms, 0.5),
        "op_ms_p90": percentile(ms, 0.9),
        "good_ops_per_s": good / (sum(ms) / 1e3),
        "setup_s": statistics.median(part[prefix + "setup_s"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }


def per_class_ms(result):
    groups = {}
    for cls, s in zip(result["classes"], result["samples_s"]):
        groups.setdefault(cls, []).append(s * 1e3)
    return {cls: {"n": len(v), "p50": percentile(v, 0.5), "max": max(v)} for cls, v in groups.items()}


def measure(args):
    """Returns (merged child result, metric values)."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if args.trace:
        result = _child(args, "trace", args.seconds, deadline, corrupt=args.corrupt)
        values = dict(result["trace"])
    else:
        # Several fresh processes repeat the set-up; each starts its pass over
        # the pool at a different op.
        parts = [_child(args, "run", args.seconds / PROCESSES, deadline, i, args.corrupt and i == 0)
                 for i in range(PROCESSES)]
        values = end_to_end(parts)
        result = dict(parts[0], failed=sum(p["failed"] for p in parts),
                      raw=end_to_end(parts, "raw_"),
                      kernel_ms_p50=1e3 * statistics.median(k for p in parts for k in p["kernel_s"]),
                      **{key: [x for p in parts for x in p[key]] for key in ("samples_s", "ops", "classes")})
    values["failed_frac"] = result["failed"] / len(result["samples_s"])
    return result, values


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS] + spec.EXTRA_WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true", help="small instances, for the self-test")
    p.add_argument("--corrupt", action="store_true", help="corrupt the first op's result (self-test)")
    p.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = p.parse_args()

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    for needed in (ROOT / "src" / "gmaxent" / "__init__.py", ROOT / "problems"):
        if not needed.exists():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing; run from a gmaxent checkout",
                  file=sys.stderr)
            return 2
    try:
        result, values = measure(args)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {n: u for n, u, _ in spec.per_layer()}
    else:
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    units["failed_frac"] = "ratio"
    attempted = len(result["samples_s"])
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    print(f"{args.workload} samples = {attempted} over {len(set(result['ops']))} pool ops, "
          f"failed = {result['failed']}")
    stamp = dict(result["env"], workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace, nproc=os.cpu_count(), cpu=_cpu_model(), commit=_git_commit())
    extra = {"per_class_ms": per_class_ms(result)}
    if not args.trace:
        extra.update(as_measured=result["raw"], reference_kernel_ms_p50=result["kernel_ms_p50"])
    print(json.dumps({"env": stamp, **extra}))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if args.trace or name != "failed_frac"}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
