"""Benchmark of the vortexplane package: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload ring_capture --seed 1 --seconds 12 --trace 0

The program under test is imported from ./src, never from an installed
copy.  --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run.  Every metric is printed with its unit and
sample count, and the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when every
correctness check passed, 1 when one failed, 2 when the program cannot be
found or the arguments are invalid.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one busy thread: pin native thread pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from statistics import median, quantiles  # noqa: E402

SETUP_REPEATS = 3


def _fail(msg: str, code: int = 2) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program(clock):
    """Import vortexplane from ./src; returns (seconds, reference units)."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "vortexplane", "__init__.py")):
        _fail("no ./src/vortexplane here; run from the repository root")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import vortexplane
    t1 = time.perf_counter()
    if os.path.dirname(os.path.abspath(vortexplane.__file__)) != \
            os.path.join(src, "vortexplane"):
        _fail(f"imported vortexplane from {vortexplane.__file__}, not ./src")
    return clock.interval(t0, t1)


class Result:
    """Metrics in print order: name -> (value, unit, samples)."""

    def __init__(self) -> None:
        self.metrics = {}
        self.notes = {}

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def note(self, name: str, value: float, unit: str, samples: int) -> None:
        """Diagnostic printed in the table but not in the JSON line."""
        self.notes[name] = (float(value), unit, int(samples))


def _time_pass(wl, state, plan, tr, clock):
    """One pass over plan; returns (context, Timings, checks, outputs kept
    for the replay of a traced pass)."""
    from host import Timings
    from workloads import Check

    ctx = wl.begin(state, tr)
    checks = []
    kept = []

    def op(x):
        if tr.enabled:
            tr.op_id = len(checks)
        try:
            with tr.span(f"op.{wl.name}"):
                return wl.op(ctx, x)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            return exc

    def after(x, out):
        if isinstance(out, Exception):
            checks.append(Check(f"raised {type(out).__name__}: {out}"))
            return
        try:
            checks.append(wl.check(ctx, x, out))
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            checks.append(Check(f"check raised {type(exc).__name__}: {exc}"))
            return
        if tr.enabled:
            kept.append((x, out))

    timings = Timings(clock)
    timings.run(plan, op, after, wl.mix_for)
    return ctx, timings, checks, kept


def _resolve(wl, state, checks) -> None:
    try:
        wl.resolve(state, checks)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        for c in checks:
            if c.pending is not None and c.err is None:
                c.failure = f"reference raised {type(exc).__name__}: {exc}"


def _setup(wl, clock):
    """Run the workload's set-up SETUP_REPEATS times; returns the state and
    the (net seconds, reference units) of each repeat."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(clock.interval(t0, time.perf_counter()))
    return state, times


def _put_setup(res, imported, times) -> None:
    """setup_s: the import plus the median set-up, in reference units of the
    scalar kernel part (the mix while setting up), as seconds on a host
    whose scalar chunk takes SCALAR_CHUNK_S."""
    from host import SCALAR_CHUNK_S

    ref = imported[1] + median(t[1] for t in times)
    res.put("setup_s", ref * SCALAR_CHUNK_S, "s", len(times))
    res.note("setup.raw_s", imported[0] + median(t[0] for t in times), "s",
             len(times))


def end_to_end(wl, args, clock, imported):
    from spans import NullTracer

    state, setup_times = _setup(wl, clock)
    plan = wl.plan(args.seed, args.seconds)
    clock.set_mix(wl.mix, wl.with_numpy)
    _, tm, checks, _ = _time_pass(wl, state, plan, NullTracer(), clock)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _resolve(wl, state, checks)

    res = Result()
    res.put("wall_ref", tm.wall_ref, "ref", len(tm.ref))
    res.put("op_p50_ref", median(tm.ref), "ref", len(tm.ref))
    _put_setup(res, imported, setup_times)
    res.put("peak_rss_mb", peak_rss_mb, "MB", 1)
    # no error measured means every op failed; the run is then incorrect
    errs = [c.err for c in checks if c.err is not None] or [0.0]
    res.put("max_err", max(errs), "abs", len(errs))
    if len(tm.ref) >= 100:
        res.note("op_p90_ref", quantiles(tm.ref, n=10)[8], "ref",
                 len(tm.ref))
    res.note("host.wall_s", tm.wall, "s", len(tm.net))
    res.note("host.ref_ms", 1e3 * clock.kernel_median(), "ms",
             len(clock.kernel()))
    return res, checks


def per_layer(wl, args, clock, imported):
    from spans import NullTracer, Tracer
    import layers

    state, _ = _setup(wl, clock)
    # half the plan, run untraced then traced: the same inputs both times
    plan = wl.plan(args.seed, 0.5 * args.seconds)
    clock.set_mix(wl.mix, wl.with_numpy)
    _, tm_u, checks_u, _ = _time_pass(wl, state, plan, NullTracer(), clock)
    tr = Tracer()
    ctx, tm_t, checks_t, kept = _time_pass(wl, state, plan, tr, clock)
    tr.op_id = -1
    with tr.span("replay"):
        for x, out in kept:
            wl.replay(ctx, x, out)
    res = Result()
    for name, (value, unit, n) in layers.per_layer_metrics(
            tr, tm_u, tm_t, clock, args.seed).items():
        res.put(name, value, unit, n)
    clock.stop()
    checks = checks_u + checks_t
    _resolve(wl, state, checks)
    os.makedirs(".perfbench", exist_ok=True)
    path = os.path.join(".perfbench",
                        f"trace-{wl.name}-seed{args.seed}.json")
    tr.write(path)
    res.note("spans", len(tr.spans), "count", len(tr.spans))
    return res, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0.0 and math.isfinite(args.seconds)):
        _fail(f"--seconds must be a positive number, got {args.seconds!r}")

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from host import HostClock
    clock = HostClock()
    clock.start()
    imported = _import_program(clock)
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}")

    t0 = time.perf_counter()
    try:
        res, checks = (per_layer if args.trace else end_to_end)(
            wl, args, clock, imported)
    finally:
        clock.stop()
    failed = [c.failure for c in checks if c.failure is not None]
    for reason in failed:
        print(f"FAILED CHECK: {reason}", file=sys.stderr)

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} run={time.perf_counter() - t0:.1f}s")
    res.note("fail_frac", len(failed) / max(1, len(checks)), "ratio",
             len(checks))
    for table in (res.metrics, res.notes):
        for name, (value, unit, n) in table.items():
            print(f"{name:36s} {value:14.6g} {unit:6s} n={n}")
    payload = {
        "correct": not failed and len(checks) > 0,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in res.metrics.items()},
    }
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
