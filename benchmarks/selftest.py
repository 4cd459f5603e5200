"""Self-test of the benchmark.

    python3 benchmarks/selftest.py

For every workload it makes one short untraced run and two short traced
runs with the same seed, as separate processes, and checks that

- each run exits 0 and its last line is the result object, with every
  metric that BENCHMARK.json names for that mode and no other;
- no operation failed (failed_frac = 0);
- the input digest is the same in all three runs, and the per-layer
  counts of the two traced runs are identical;
- the end-to-end run timed enough ops for its p90 to have at least ten
  samples beyond it.

Finally it checks that the benchmark refuses to run, with a nonzero exit
code and no result, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "1"
TIMEOUT_S = 300


def bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc


def note(stdout, key):
    """The value of a ``# key=value`` or ``# key value`` note line."""
    for line in stdout.splitlines():
        m = re.match(rf"# {re.escape(key)}[= ](.*)$", line)
        if m:
            return m.group(1)
    return None


def check_run(proc, names, errors, label):
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        errors.append(f"{label}: metrics missing {sorted(missing)}, extra {sorted(extra)}")
    for name, m in result["metrics"].items():
        if name in names and m["unit"] != names[name]:
            errors.append(f"{label}: {name} has unit {m['unit']}, not {names[name]}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = bench(ROOT, name, 0)
        traced = [bench(ROOT, name, 1) for _ in range(2)]
        check_run(plain, e2e, errors, f"{name} trace 0")
        for n, proc in enumerate(traced):
            check_run(proc, layers, errors, f"{name} trace 1 #{n + 1}")
        digests = {note(p.stdout, "inputs_digest") for p in [plain, *traced]}
        if len(digests) != 1 or None in digests:
            errors.append(f"{name}: input digests differ between same-seed runs: {digests}")
        counts = [note(p.stdout, "counts") for p in traced]
        if counts[0] is None or counts[0] != counts[1]:
            errors.append(f"{name}: per-layer counts differ between same-seed runs")
        timed = re.search(r"# timed ops=(\d+)", plain.stdout)
        if timed is None or int(timed.group(1)) < 100:
            errors.append(f"{name}: fewer than 100 timed ops, p90 lacks 10 samples beyond it")
        print(f"{name}: checked; counts {counts[0]}")

    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        bare = bench(tmp, spec["workloads"][0]["name"], 0)
        if bare.returncode == 0 or bare.stdout.strip():
            errors.append("benchmark ran without the library's sources")
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
