"""Benchmark of the uqdvr pipeline.

    python3 perfbench/run.py --workload manifests|render|estimate
                             [--seed 7] [--seconds 10] [--trace 0|1]

Run from the root of a checkout.  Each run sets up the workload's inputs from
the seed in fresh processes (three times; setup_s is the median), then starts
one fresh run process with single-threaded BLAS that loads the inputs and
measures.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics; the last line of standard output is one JSON object.  A
record of each run, with the machine it ran on, goes to
.perfbench_work/results/.  The exit code is 0 only when every check passed.
See perfbench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("manifests", "render", "estimate")
SETUP_REPEATS = 3
# Every child must finish inside this budget so the whole run stays in 180 s.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def child(argv: list[str], env: dict, deadline: float) -> None:
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed("out of time before " + argv[0])
    try:
        # Child output goes to stderr so the last stdout line stays ours.
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT,
                              stdout=sys.stderr, timeout=left)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"{argv[0]} timed out") from e
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[0]} exited {proc.returncode}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("UQDVR_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return env


def machine() -> dict:
    """The machine and software a result was measured with."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    info["git_sha"] = None
    if (ROOT / ".git").exists():
        try:
            info["git_sha"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                             capture_output=True, text=True,
                                             timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    info["src_sha256"] = h.hexdigest()
    return info


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "uqdvr" / "__init__.py").is_file():
        print(f"error: no uqdvr package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--inputs", str(work / "inputs")]
    setup_trace = work / "setup_trace.json"
    try:
        setup_s = []
        for i in range(SETUP_REPEATS):
            extra = ["--trace-out", str(setup_trace)] if args.trace and i == 0 else []
            t0 = time.perf_counter()
            child(["setup", *common, *extra], env, deadline)
            setup_s.append(time.perf_counter() - t0)
        out = work / "run.json"
        extra = ["--setup-trace", str(setup_trace), "--spans",
                 str(results / f"{tag}-spans.json")] if args.trace else []
        child(["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work / "out"), "--out", str(out), *extra], env, deadline)
        rec = json.loads(out.read_text())
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rec.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, setup_s=setup_s, machine=machine())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"threads={rec['threads']} closed loop, 1 client")
    print("machine " + json.dumps(rec["machine"], sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in sorted(rec["per_layer"].items())}
        for k, m in metrics.items():
            print(f"{k}: {m['value']:.6g} {m['unit']}")
        print(f"traced body {rec['traced_wall_s']:.4f} s, untraced body "
              f"{rec['untraced_wall_s']:.4f} s")
    else:
        wall, cpu = rec["wall_s"], rec["cpu_s"]
        values = {"wall_s": spread(wall)[0], "cpu_s": spread(cpu)[0],
                  "peak_rss_mb": rec["peak_rss_mb"], "setup_s": spread(setup_s)[0]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        for name, samples in (("wall_s", wall), ("cpu_s", cpu), ("setup_s", setup_s)):
            med, q1, q3 = spread(samples)
            print(f"{name}: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, n={len(samples)}")
        print(f"peak_rss_mb: {rec['peak_rss_mb']:.1f} MB")
        for k, v in rec["extra"].items():
            print(f"{k}: {v:.8f} (RMSE against ground truth)")
    ratio = rec["failed"] / max(rec["attempted"], 1)
    print(f"fail_ratio: {ratio:.4g} ({rec['failed']} of {rec['attempted']} operations failed)")
    for p in rec["problems"]:
        print(f"FAILED {p}")
    (results / f"{tag}.json").write_text(json.dumps({**rec, "metrics": metrics}, indent=1))
    correct = rec["failed"] == 0 and rec["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
