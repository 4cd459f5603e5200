"""sl3shear benchmark runner.

    python3 benchmarks/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

Runs one workload in this process, single-threaded and closed-loop: one
caller, and the next operation starts when the previous one returns.
Every operation's result is checked exactly.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it, starting with ``#``,
give the sample counts, the digest of the generated inputs and, on a
traced run, the per-layer counts.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` installs span wrappers around the library's entry points
(see ``tracing.py``) and reports the per-layer metrics plus the tracing
overhead.  The library is imported from ``src/`` of the checkout that
holds this file; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("surface", "seeds", "tropical", "laminations", "reconstruct", "glue", "io", "verify")

SETUP_REPEATS = 7  # setup_s is the median of this many fresh set-ups
MIN_TIMED_OPS = 110  # at least 10 samples beyond p90

# name -> (unit, better); the source of BENCHMARK.json's metric lists
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_SPAN_METRICS = {
    "surface.build": ("calls", "self_s"),
    "surface.flip_edge": ("calls", "self_s", "refused"),
    "surface.glue_boundary": ("calls", "self_s"),
    "seeds.index_set": ("calls", "self_s", "per_op"),
    "seeds.exchange_matrix": ("calls", "self_s"),
    "seeds.mutate_matrix": ("calls", "self_s"),
    "tropical.apply_flip": ("calls", "self_s"),
    "tropical.flip_x_closed_form": ("calls", "self_s", "refused"),
    "tropical.ensemble": ("calls", "self_s"),
    "tropical.dynkin_cluster": ("calls", "self_s"),
    "laminations.validate": ("calls", "self_s", "per_op"),
    "laminations.shear_unfrozen": ("calls", "self_s"),
    "laminations.shear_frozen": ("calls", "self_s"),
    "reconstruct.trace": ("calls", "self_s", "per_op"),
    "reconstruct.reconstruct": ("calls", "self_s"),
    "reconstruct.traveler_trace": ("calls", "self_s"),
    "glue.glue_laminations": ("calls", "self_s"),
    "io.encode": ("self_s",),
    "io.decode": ("self_s",),
}
_KIND_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "refused": ("count", "lower"),
    "per_op": ("calls/op", "lower"),
}
PER_LAYER = {
    f"{span}.{kind}": _KIND_UNITS[kind]
    for span, kinds in _SPAN_METRICS.items()
    for kind in kinds
}
PER_LAYER.update({
    "reconstruct.travelers": ("count", "lower"),
    "laminations.corner_entries": ("count", "lower"),
    "io.bytes": ("count", "lower"),
    "tracing.ops": ("count", "higher"),
    "tracing.traced_ops_per_s": ("1/s", "higher"),
    "tracing.untraced_ops_per_s": ("1/s", "higher"),
    "tracing.overhead_pct": ("%", "lower"),
})


class LibraryMissing(Exception):
    pass


def import_library():
    """Import every ``sl3shear`` module afresh from ``src/``."""
    if not (SRC / "sl3shear" / "__init__.py").is_file():
        raise LibraryMissing(f"no sl3shear package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sl3shear" or n.startswith("sl3shear.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"sl3shear.{m}") for m in MODULES})
    if Path(lib.surface.__file__).resolve().parent != SRC / "sl3shear":
        raise LibraryMissing(f"sl3shear was imported from {lib.surface.__file__}, not {SRC}")
    return lib


class Tally:
    """Ops attempted and failed over every workload instance of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


class Runner:
    """Executes the operations of one workload instance."""

    def __init__(self, workload, tally):
        self.workload = workload
        self.tally = tally

    def execute(self, i):
        self.tally.attempted += 1
        try:
            self.workload.op(i)
        except Exception as exc:  # a Mismatch or an unexpected error; keep measuring
            self.tally.failed += 1
            if self.tally.failed <= 3:
                print(f"op {i} of {self.workload.name} failed:", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)

    def warm_up(self):
        for i in range(self.workload.cycle):
            self.execute(i)
        return self.workload.cycle

    def loop(self, start, seconds, min_ops=0):
        """Closed loop from op ``start`` until ``seconds`` have passed and
        at least ``min_ops`` ops ran.  Returns the per-op latencies and
        the elapsed time."""
        latencies = []
        i = start
        t_start = perf_counter()
        while True:
            t0 = perf_counter()
            self.execute(i)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            i += 1
            if t1 - t_start >= seconds and len(latencies) >= min_ops:
                return latencies, t1 - t_start


def set_up(cls, seed, tally):
    """Import, build the surfaces, generate the inputs and warm up.
    Returns the set-up time and the runner of the new workload."""
    t0 = perf_counter()
    runner = Runner(cls(import_library(), seed), tally)
    runner.warm_up()
    return perf_counter() - t0, runner


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure_end_to_end(cls, seed, seconds, tally, notes):
    """Closed loop for ``seconds``, split into ``SETUP_REPEATS`` segments
    with a fresh set-up before each, so that the set-ups see the same
    host as the ops do; the first set-up's workload runs every segment."""
    setup_s, runner = set_up(cls, seed, tally)
    setups = [setup_s]
    notes.append(f"inputs_digest={runner.workload.digest()}")
    latencies = []
    elapsed = 0.0
    for k in range(SETUP_REPEATS):
        if k:
            setups.append(set_up(cls, seed, tally)[0])
        segment, segment_s = runner.loop(
            runner.workload.cycle + len(latencies), seconds / SETUP_REPEATS,
            MIN_TIMED_OPS - len(latencies) if k == SETUP_REPEATS - 1 else 0,
        )
        latencies += segment
        elapsed += segment_s
    ordered = sorted(latencies)
    notes.append(
        f"timed ops={len(latencies)} in {elapsed:.3f} s; latency percentiles over "
        f"{len(latencies)} samples; setup_s median of "
        + " ".join(f"{t:.4f}" for t in setups)
    )
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * percentile(ordered, 0.50),
        "latency_p90_ms": 1e3 * percentile(ordered, 0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure_per_layer(cls, seed, seconds, tally, notes):
    """Traced phase, then untraced phase, each about ``seconds / 2``.

    Calls, counts and self times cover set-up, warm-up and the first
    ``count_ops`` ops after warm-up, so the counts repeat exactly for a
    seed; ``per_op`` divides the calls made by those ops alone."""
    lib = import_library()
    tracer = Tracer()
    with instrument(tracer):
        runner = Runner(cls(lib, seed), tally)
        start = runner.warm_up()
        notes.append(f"inputs_digest={runner.workload.digest()}")
        setup_calls = dict(tracer.calls)
        counted, counted_s = runner.loop(start, 0.0, cls.count_ops)
        ops = start + len(counted)
        calls, self_s, counts = dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts)
        traced, traced_s = runner.loop(ops, seconds / 2 - counted_s)
    untraced, untraced_s = runner.loop(ops + len(traced), seconds / 2)
    traced_rate = (len(counted) + len(traced)) / (counted_s + traced_s)
    untraced_rate = len(untraced) / untraced_s
    metrics = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if span == "tracing":
            continue
        if kind == "calls":
            metrics[name] = calls.get(span, 0)
        elif kind == "self_s":
            metrics[name] = self_s.get(span, 0.0)
        elif kind == "per_op":
            metrics[name] = (calls.get(span, 0) - setup_calls.get(span, 0)) / len(counted)
        else:
            metrics[name] = counts.get(name, 0)
    metrics["tracing.ops"] = ops
    metrics["tracing.traced_ops_per_s"] = traced_rate
    metrics["tracing.untraced_ops_per_s"] = untraced_rate
    metrics["tracing.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
    counts = {k: v for k, v in metrics.items() if PER_LAYER[k][0] in ("count", "calls/op")}
    text = json.dumps(counts, sort_keys=True)
    notes.append(f"counts {text}")
    notes.append(f"counts_digest={hashlib.sha256(text.encode('utf-8')).hexdigest()}")
    notes.append(
        f"traced ops={len(traced)} in {traced_s:.3f} s; untraced ops={len(untraced)} "
        f"in {untraced_s:.3f} s"
    )
    return metrics


def run(workload, seed, seconds, trace):
    """Run one workload; returns the result object and the note lines."""
    cls = WORKLOADS[workload]
    tally = Tally()
    notes = [f"workload={workload} seed={seed} seconds={seconds} trace={trace}"]
    measure = measure_per_layer if trace else measure_end_to_end
    values = measure(cls, seed, seconds, tally, notes)
    units = PER_LAYER if trace else END_TO_END
    attempted, failed = tally.attempted, tally.failed
    notes.append(f"failed_frac={failed / attempted:.6g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }
    return result, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        result, notes = run(args.workload, args.seed, args.seconds, args.trace)
    except LibraryMissing as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for line in notes:
        print(f"# {line}")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
