"""Set-up and run processes of the benchmark, started by run.py.

    python3 worker.py setup --workload W --seed N --inputs DIR [--trace-out FILE]
    python3 worker.py run --workload W --seed N --seconds S --trace 0|1
                          --inputs DIR --work DIR --out FILE [--setup-trace FILE]
                          [--spans FILE]

`setup` writes the workload's inputs.  `run` loads them, then either repeats
the timed body until --seconds of body time have passed (--trace 0), or runs
the body once untraced and once traced, the thread-determinism operation and
the thread-scaling fits (--trace 1).  It writes its measurements to --out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, compare, tangle_ensemble

SRC = Path(__file__).resolve().parent.parent / "src"
SCALING_DIMS = (24, 24, 24)


def check_package() -> None:
    """Refuse to measure a `uqdvr` other than the one in this checkout."""
    import uqdvr

    found = Path(uqdvr.__file__).resolve().parent
    if found != (SRC / "uqdvr").resolve():
        raise SystemExit(f"uqdvr imported from {found}, not from {SRC}")


def timed(fn):
    """(result, wall seconds, user+system CPU seconds of this process)."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    result = fn()
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return result, t1 - t0, cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_digest(vol) -> str:
    import numpy as np

    h = hashlib.sha256()
    for value in vars(vol.model).values():
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
    return h.hexdigest()


def thread_scaling(seed: int) -> tuple[dict[str, float], list[str]]:
    """KDE quantile and EM fits of a 24^3 ensemble at threads=1 and 2: the
    speed-up, and whether the fitted bytes agree."""
    from uqdvr import density

    _, ens, _ = tangle_ensemble(SCALING_DIMS, seed)
    speedups, bad = {}, []
    for model, kw in (("quantile", {"qval": 0.125}), ("gmm", {"k": 2})):
        secs, digests = {}, {}
        for threads in (1, 2):
            vol, secs[threads], _ = timed(
                lambda: density.build_distribution_volume(ens, model, threads=threads, **kw))
            digests[threads] = model_digest(vol)
        speedups[f"density.thread_speedup.{model}"] = secs[1] / secs[2]
        bad += compare({model: digests[1]}, {model: digests[2]}, "fit threads=1 vs threads=2")
    return speedups, bad


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def account(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def guarded(self, what: str, fn):
        """Run fn() -> problems; an exception counts as a failed operation."""
        try:
            problems = fn()
        except Exception as e:  # the benchmark must report, not stop
            traceback.print_exc()
            problems = [f"raised {type(e).__name__}: {e}"]
        self.account(what, problems)


def run_untraced(wl, ctx, args, work: Path, ledger: Ledger) -> dict:
    walls, cpus, rss = [], [], 0.0
    first = None
    extra = {}
    while sum(walls) < args.seconds:
        i = len(walls)
        out = work / f"op{i}"
        try:
            result, wall, cpu = timed(lambda: wl.body(ctx, out, wl.threads))
        except Exception as e:
            traceback.print_exc()
            ledger.account(f"op{i}", [f"raised {type(e).__name__}: {e}"])
            break
        rss = peak_rss_mb()
        walls.append(wall)
        cpus.append(cpu)

        def checks():
            nonlocal first, extra
            problems = wl.check(ctx, result, out)
            digests = wl.digests(result, out)
            if first is None:
                first = digests
                extra = wl.extra_metrics(result)
            else:
                problems += compare(digests, first, "repeat vs first operation")
            return problems

        ledger.guarded(f"op{i}", checks)
        if i > 0:
            shutil.rmtree(out, ignore_errors=True)
    return {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rss, "extra": extra}


def run_traced(wl, ctx, args, work: Path, ledger: Ledger) -> dict:
    """Untraced body (the reference bytes), the determinism operation, the
    traced body, and the untraced body again: the tracing overhead compares
    the traced body with that second, equally warm, untraced one."""
    out_u, out_t, out_u2 = work / "untraced", work / "traced", work / "untraced2"
    result_u, _, _ = timed(lambda: wl.body(ctx, out_u, wl.threads))
    ledger.guarded("untraced", lambda: wl.check(ctx, result_u, out_u))
    digests_u = wl.digests(result_u, out_u)
    ledger.guarded("determinism", lambda: wl.determinism(ctx, result_u, out_u, work / "det"))

    tracer = Tracer()
    tracer.run_id = 1
    tracer.install()
    try:
        result_t, wall_t, _ = timed(lambda: wl.body(ctx, out_t, wl.threads))
    finally:
        tracer.restore()
    ledger.guarded("traced", lambda: wl.check(ctx, result_t, out_t)
                   + compare(wl.digests(result_t, out_t), digests_u, "traced vs untraced"))
    result_u2, wall_u, _ = timed(lambda: wl.body(ctx, out_u2, wl.threads))
    ledger.guarded("untraced again", lambda: compare(wl.digests(result_u2, out_u2), digests_u,
                                                     "repeat vs first operation"))

    per_layer = tracer.metrics(tracer.run_id)
    if args.setup_trace:
        for name, value in json.loads(Path(args.setup_trace).read_text()).items():
            per_layer[name] += value
    per_layer["trace.overhead_pct"] = 100.0 * (wall_t / wall_u - 1.0)
    speedups, problems = thread_scaling(args.seed)
    per_layer.update(speedups)
    ledger.account("thread scaling", problems)
    if args.spans:
        Path(args.spans).write_text(json.dumps(
            {"spans": tracer.spans, "counters": dict(tracer.counters)}))
    return {"per_layer": per_layer, "untraced_wall_s": wall_u, "traced_wall_s": wall_t}


def cmd_setup(args) -> int:
    check_package()
    wl = WORKLOADS[args.workload]
    inputs = Path(args.inputs)
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install_setup()
    try:
        wl.setup(args.seed, inputs)
    finally:
        if tracer:
            tracer.restore()
    if tracer:
        m = tracer.metrics(tracer.run_id)
        Path(args.trace_out).write_text(json.dumps(
            {k: m[k] for k in ("synth.sample_field_s", "synth.make_ensemble_s")}))
    return 0


def cmd_run(args) -> int:
    check_package()
    wl = WORKLOADS[args.workload]
    ctx = wl.load(args.seed, Path(args.inputs))
    work = Path(args.work)
    ledger = Ledger()
    run = run_traced if args.trace else run_untraced
    record = run(wl, ctx, args, work, ledger)
    record.update(attempted=ledger.attempted, failed=ledger.failed, problems=ledger.problems,
                  threads=wl.threads)
    Path(args.out).write_text(json.dumps(record))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("setup")
    r = sub.add_parser("run")
    for p in (s, r):
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--inputs", required=True)
    s.add_argument("--trace-out", default=None)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), required=True)
    r.add_argument("--work", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--setup-trace", default=None)
    r.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    return cmd_setup(args) if args.cmd == "setup" else cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
