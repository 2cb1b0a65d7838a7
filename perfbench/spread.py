"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workloads matrix-fit --seeds 1-5 --seconds 20

Runs perfbench/run.py once per workload and seed, each in its own
process, one after another.  For every end-to-end metric it prints the
median of the runs and the spread, (q3 - q1) / median with the
quartiles of statistics.quantiles(values, n=4), next to the metric's
bound in BENCHMARK.json.  --out writes every run's result, the summary
and each workload's machine facts as JSON under the key trace0 or
trace1, keeping the other key of an existing file.  The baseline was written this way:

    python3 perfbench/spread.py --seeds 1-10 --trace 0 --out perfbench/BENCH_baseline.json
    python3 perfbench/spread.py --seeds 1-3 --trace 1 --out perfbench/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for name in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            record = ROOT / ".perfbench_out" / f"BENCH_{name}_seed{seed}_trace{args.trace}.json"
            record = json.loads(record.read_text())
            machine = record["machine"]
            runs[-1].update(wall_s=record["wall_s"], est_error=record["est_error"],
                            raised=record["raised"], elapsed_s=elapsed)
            print(f"{name} seed {seed} ({elapsed:.1f} s): correct={result['correct']} "
                  f"failed={result['failed']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {"wall_s (not bounded)": summarize([r["wall_s"] for r in runs])}
        print(f"  {name:11s} {'wall_s (not bounded)':40s} median "
              f"{summary['wall_s (not bounded)']['median']:.6g} "
              f"spread {summary['wall_s (not bounded)']['spread']:.4f}")
        for metric in runs[0]["metrics"]:
            summary[metric] = summarize([r["metrics"][metric]["value"] for r in runs])
            s = summary[metric]
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                worst = max(worst, s["spread"] / bound)
                flag = "  OVER BOUND/3" if s["spread"] > bound / 3 else ""
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:11s} {metric:40s} median {s['median']:.6g} "
                  f"spread {spread} bound {bound}{flag}")
        report["workloads"][name] = {"runs": runs, "summary": summary, "machine": machine}
    if args.out:
        out = Path(args.out)
        merged = json.loads(out.read_text()) if out.is_file() else {}
        merged[f"trace{args.trace}"] = report
        out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
