"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

For every workload, in its own process each time:
- two traced runs with seed 1 must report identical counts (every
  per-layer metric whose unit is "count") and an identical est_error,
  and no wrong output;
- an untraced run with the hold-out seed 2 must pass every output check
  with no failed fit.
Fits that raise are listed with their exception.  Exits 1 if any check
fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sparse-fit", "rate-study", "matrix-fit")


def _run(workload: str, seed: int, trace: int, tag: str) -> dict:
    OUT.mkdir(exist_ok=True)
    record = OUT / f"smoke_{workload}_{tag}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
           "--record", str(record)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(record.read_text())


def _counts(record: dict) -> dict:
    metrics = record["result"]["metrics"]
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}
    counts["est_error"] = repr(record["est_error"])  # nan must equal nan
    return counts


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first = _run(workload, 1, 1, "a")
        second = _run(workload, 1, 1, "b")
        holdout = _run(workload, 2, 0, "holdout")
        a, b = _counts(first), _counts(second)
        diff = sorted(k for k in a if a[k] != b.get(k))
        checks = {
            "seed 1 outputs correct": first["result"]["correct"] and second["result"]["correct"],
            "seed 1 counts repeat": not diff,
            "seed 2 outputs correct, no failed fit": (
                holdout["result"]["correct"] and holdout["result"]["failed"] == 0),
        }
        for tag, rec in (("seed 1", first), ("seed 2", holdout)):
            if rec["raised"]:
                print(f"{workload}: {tag}: {rec['result']['failed']}/"
                      f"{rec['result']['attempted']} fits failed; raised: "
                      + "; ".join(rec["raised"]))
        for name, passed in checks.items():
            print(f"{workload}: {name}: {'ok' if passed else 'FAIL'}")
        if diff:
            print(f"{workload}: differing counts: " + ", ".join(
                f"{k} {a[k]} != {b.get(k)}" for k in diff))
        ok = ok and all(checks.values())
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
