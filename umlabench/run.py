"""Closed-loop benchmark of umla's public entry points, oracle-checked.

Usage, from the root of a checkout:

    python3 umlabench/run.py --workload charsum --seed 1 --seconds 30 --trace 0
    python3 umlabench/run.py --workload fiber --seed 1 --seconds 30 --trace 1
    python3 umlabench/run.py --smoke       # all workloads, tiny inputs, seconds
    python3 umlabench/run.py --selftest    # every oracle must reject a wrong result

One caller in one thread makes a fixed, seeded list of calls (a round) and
repeats whole rounds until ``--seconds`` of wall time have passed.  Each
call is timed alone.  After the timed region the first round's results are
checked by the independent oracles of ``oracle.py``; every later result
must equal the first round's result of the same call (same digest).  The
calls of a known program defect (``workloads.KNOWN_DEFECTS``) are not in
the timed region: they run once after it, are judged by the same oracles,
and each failure is printed as a ``KNOWN DEFECT`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
rounds for half the time, then one traced round of the same calls with the
span wrappers of ``spans.py`` installed, and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object; the result digest, every failed call and a metrics table come
before it.  A JSON record with timings, digest and spans is written under
``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORKLOADS = ("charsum", "fiber", "transform")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


# -- reference speed ------------------------------------------------------------
# The CPU speed of a shared host drifts by tens of percent over seconds, in
# both wall and CPU time.  Every timing is therefore scaled to a reference
# speed: a fixed pure-Python kernel (exact rational and dictionary work, as
# in the library) is timed every SAMPLE_EVERY seconds between calls, and an
# interval is multiplied by NOMINAL_KERNEL_S over the kernel time measured
# around it.  At the nominal speed the scaled time is the wall time; the raw
# wall-clock figures are printed beside the scaled ones.
NOMINAL_KERNEL_S = 4.0e-4
SAMPLE_EVERY = 0.05


def _kernel():
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 60):
        f = Fraction(i, 3 + i % 7)
        acc = acc + f * f - Fraction(1, i)
        key = (i % 13, i % 5)
        table[key] = table.get(key, 0) + pow(i, -1, 257)
    return acc, table


class SpeedLog:
    """Kernel timings through the run; converts wall intervals to reference time."""

    def __init__(self):
        self.at: list = []
        self.kernel: list = []
        self.sample()

    def sample(self) -> None:
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        self.at.append(time.perf_counter())
        self.kernel.append(best)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.at[-1] >= SAMPLE_EVERY:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start in reference seconds, from the samples bracketing it."""
        i = max(bisect.bisect_right(self.at, start) - 1, 0)
        j = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        ks = self.kernel[i : j + 1]
        return (end - start) * NOMINAL_KERNEL_S * len(ks) / sum(ks)


def _fail(msg: str, code: int = 2):
    print(f"umlabench: {msg}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def _purge_umla() -> None:
    for name in [n for n in sys.modules if n == "umla" or n.startswith("umla.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, smoke: bool) -> tuple[float, float, list, list]:
    """Median time to import umla and build the inputs, over fresh imports.

    Returns (reference seconds, wall seconds, calls, probe calls).
    """
    import workloads

    speed = SpeedLog()
    scaled, wall = [], []
    built = None
    for _ in range(2 if smoke else SETUP_REPEATS):
        _purge_umla()
        gc.collect()
        speed.sample()
        t0 = time.perf_counter()
        built = workloads.build(workload, seed, smoke)
        t1 = time.perf_counter()
        speed.sample()
        scaled.append(speed.scaled(t0, t1))
        wall.append(t1 - t0)
    return (statistics.median(scaled), statistics.median(wall)) + built


# ---------------------------------------------------------------------------
# timed region and checking
# ---------------------------------------------------------------------------


def canonical(res):
    """JSON-ready, order-independent rendering of a result, for digests."""
    if isinstance(res, BaseException):
        return {"raised": type(res).__name__}
    if isinstance(res, (list, tuple)):
        return [canonical(x) for x in res]
    if hasattr(res, "to_json"):
        obj = res.to_json()
        if isinstance(obj, dict) and isinstance(obj.get("terms"), list):
            obj = dict(obj, terms=sorted(obj["terms"], key=lambda t: json.dumps(t, sort_keys=True)))
        return obj
    return repr(res)


def digest(res) -> str:
    blob = json.dumps(canonical(res), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # reference seconds
    wall: list = field(default_factory=list)  # wall-clock seconds
    failed: dict = field(default_factory=dict)  # call index -> reason
    rounds: int = 0
    first: list = field(default_factory=list)  # results of round one
    digests: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed_calls(self) -> int:
        """Failures over every round: a failed call fails in each round."""
        return len(self.failed) * self.rounds


def one_pass(calls, speed: SpeedLog, out: Outcome) -> list:
    """Make every call once; time each alone.  Returns the results."""
    clock = time.perf_counter
    results, spans = [], []
    for call in calls:
        speed.maybe_sample()
        t0 = clock()
        try:
            res = call.run()
        except Exception as exc:  # a raising call is a failed call
            res = exc
        spans.append((t0, clock()))
        results.append(res)
    speed.sample()
    out.wall += [t1 - t0 for t0, t1 in spans]
    out.latencies += [speed.scaled(t0, t1) for t0, t1 in spans]
    out.rounds += 1
    return results


def run_rounds(calls, seconds: float, out: Outcome) -> None:
    """Repeat whole rounds until `seconds` of wall time have passed.

    Round one's results are kept for the oracles; every later result must
    have the same digest as round one's result of the same call.
    """
    speed = SpeedLog()
    start = time.perf_counter()
    while out.rounds < 1 or time.perf_counter() - start < seconds:
        results = one_pass(calls, speed, out)
        if out.rounds == 1:
            out.first = results
            out.digests = [digest(r) for r in results]
            continue
        for i, res in enumerate(results):
            if digest(res) != out.digests[i]:
                out.failed.setdefault(i, "result differs from the first round")


def judge(call, res):
    """None if the oracle accepts the result, else why the call failed."""
    import oracle

    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}"
    try:
        call.check(res)
    except oracle.Reject as exc:
        return f"oracle rejected: {exc}"
    except oracle.OracleError as exc:
        _fail(f"oracle could not judge {call.kind} [{call.label}]: {exc}", 3)
    return None


def check_first_round(calls, out: Outcome) -> None:
    """Judge each distinct call once; a failure counts for every round."""
    for i, (call, res) in enumerate(zip(calls, out.first)):
        reason = judge(call, res)
        if reason is not None:
            out.failed.setdefault(i, reason)


def run_probe(probe) -> int:
    """Run and judge each known-defect call once, untimed; print each failure.

    Returns the number of failed calls.  These failures do not enter
    `attempted`, `failed` or `correct`, which cover the timed region only.
    """
    failed = 0
    for call in probe:
        try:
            res = call.run()
        except Exception as exc:
            res = exc
        reason = judge(call, res)
        if reason is not None:
            failed += 1
            print(f"KNOWN DEFECT {call.kind} [{call.label}]: {reason}")
    print(f"known-defect probe: {failed} of {len(probe)} calls failed")
    return failed


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def timing_metrics(setup_s: float, out: Outcome, lat: list) -> dict:
    """Throughput from each call's median time over the rounds; latency quantiles
    over every attempted call."""
    n = len(lat) // out.rounds
    round_s = sum(statistics.median(lat[i::n]) for i in range(n))
    ms = sorted(x * 1e3 for x in lat)
    return {
        "setup_s": setup_s,
        "ops_per_s": (n - len(out.failed)) / round_s,
        "call_p50_ms": statistics.median(ms),
        "call_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
    }


def workload_digest(out: Outcome) -> str:
    return hashlib.sha256("".join(out.digests).encode()).hexdigest()


def report_failures(calls, out: Outcome) -> None:
    for i, reason in sorted(out.failed.items()):
        print(f"DEFECT {calls[i].kind} [{calls[i].label}]: {reason}")


def write_record(name: str, record: dict) -> None:
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", name), "w") as fh:
        json.dump(record, fh, indent=1, default=repr)


def run_untraced(workload, seed, seconds, smoke) -> dict:
    setup_s, setup_wall, calls, probe = setup(workload, seed, smoke)
    out = Outcome()
    run_rounds(calls, seconds, out)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before oracle work
    check_first_round(calls, out)
    metrics = timing_metrics(setup_s, out, out.latencies)
    metrics["peak_rss_mb"] = peak_mb
    raw = timing_metrics(setup_wall, out, out.wall)
    dig = workload_digest(out)
    report_failures(calls, out)
    probe_failed = run_probe(probe)
    print(f"digest {workload} seed={seed} {dig}")
    print(f"calls={out.attempted} rounds={out.rounds} calls_per_round={len(calls)} "
          f"failed={out.failed_calls} failed_frac={out.failed_calls / out.attempted:.6f}")
    print(f"{'metric':>14} {'reference':>14} {'wall clock':>14}")
    for k, v in metrics.items():
        print(f"{k:>14} {v:14.6f} {raw.get(k, v):14.6f} {END_TO_END_UNITS[k]}")
    n = len(calls)
    write_record(f"{workload}-seed{seed}-trace0.json", {
        "workload": workload, "seed": seed, "digest": dig, "call_digests": out.digests,
        "metrics": metrics, "wall_clock": raw,
        "attempted": out.attempted, "failed": out.failed_calls, "rounds": out.rounds,
        "calls": [
            {"kind": c.kind, "label": c.label,
             "median_ms": statistics.median(out.latencies[i::n]) * 1e3,
             "median_wall_ms": statistics.median(out.wall[i::n]) * 1e3}
            for i, c in enumerate(calls)
        ],
        "failures": {calls[i].label: r for i, r in out.failed.items()},
        "known_defects": {"calls": len(probe), "failed": probe_failed},
    })
    return {
        "correct": out.failed_calls == 0,
        "attempted": out.attempted,
        "failed": out.failed_calls,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "frac" if name.endswith(("_frac", "out_per_in")) else "count"


def run_traced(workload, seed, seconds, smoke) -> dict:
    """Untraced rounds for half the time, then one traced round of the same calls."""
    import spans

    _, _, calls, probe = setup(workload, seed, smoke)
    plain = Outcome()
    run_rounds(calls, seconds / 2, plain)
    check_first_round(calls, plain)
    tracer = spans.Tracer()
    traced = Outcome()
    speed = SpeedLog()
    tracer.install()
    try:
        results = one_pass(calls, speed, traced)
    finally:
        tracer.uninstall()
    traced.failed.update(plain.failed)
    for i, res in enumerate(results):  # digests only once the wrappers are gone
        if digest(res) != plain.digests[i]:
            traced.failed.setdefault(i, "traced result differs from the untraced one")
    ops_plain = (plain.attempted - plain.failed_calls) / sum(plain.latencies)
    ops_traced = (traced.attempted - traced.failed_calls) / sum(traced.latencies)
    layer = tracer.layer_metrics()
    layer.update(spans.derived_counts(tracer.counts))
    layer["trace.overhead_frac"] = (ops_plain - ops_traced) / ops_plain
    report_failures(calls, traced)
    layer["known_defects.failed"] = run_probe(probe)
    print(f"digest {workload} seed={seed} {workload_digest(plain)}")
    total_self = sum(v for k, v in layer.items() if k.endswith(".self_s")) or 1.0
    for k, v in layer.items():
        share = f"  ({v / total_self:6.1%} of traced self time)" if k.endswith(".self_s") else ""
        print(f"{k:>36} {v:14.6f} {_layer_unit(k)}{share}")
    write_record(f"{workload}-seed{seed}-trace1.json", {
        "workload": workload, "seed": seed, "digest": workload_digest(plain),
        "metrics": layer, "counts": dict(tracer.counts), "spans": tracer.spans(),
    })
    failed = plain.failed_calls + traced.failed_calls
    return {
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="all workloads, tiny inputs")
    ap.add_argument("--selftest", action="store_true", help="oracles must reject wrong results")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "umla", "__init__.py")):
        _fail(f"no umla sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.selftest:
        import selftest

        return selftest.main(args.seed)
    if args.smoke:
        for wl in WORKLOADS:
            for tr in (0, 1):
                print(f"== smoke {wl} trace={tr}")
                fn = run_traced if tr else run_untraced
                res = fn(wl, args.seed, min(args.seconds, 1.0), True)
                print(json.dumps(res))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    fn = run_traced if args.trace else run_untraced
    print(json.dumps(fn(args.workload, args.seed, args.seconds, False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
