"""remlpc benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload sparse-fit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  A run builds its inputs from --seed,
sets them up several times (set-up time is the median), then runs
closed-loop passes (each starts after the previous one ends) until the
passes have taken --seconds in total.  Each call into the program (one
fit, or one rate experiment) is timed on its own, and every pass
repeats the same calls.  wall_s is the time of one sweep over every
call, each taken at the median of its repeats.  A fixed reference
kernel (perfbench/reference.py) runs before every pass and after the
last; wall_rel divides each call's time by the reference time around
its pass, which cancels the host's slow spells, and sums the medians
of those ratios.  Every pass's outputs are checked
against the repo's own oracles outside the timed region, and each fit
is counted once in attempted and failed, however often it repeats.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
spends half the time untraced and half traced, and reports the
per-layer metrics from the traced half (see perfbench/README.md).  The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full record, machine facts
included, goes to .perfbench_out/; so do the spans of a traced run.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# keep the checkout free of bytecode caches and import cost the same on every run
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sparse-fit", "rate-study", "matrix-fit")
SETUP_REPEATS = 3
E2E_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy, remlpc; print(time.perf_counter() - t)"
)
EXIT_NO_PROGRAM = 3
EXIT_RUN_FAILED = 4


def _import_program():
    """Import remlpc from this checkout's src/, never from anywhere else."""
    if not (SRC / "remlpc" / "__init__.py").is_file():
        print(f"error: no remlpc sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import remlpc

    if Path(remlpc.__file__).resolve().parent != (SRC / "remlpc").resolve():
        print(f"error: imported remlpc from {remlpc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def _blas_build(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError) as exc:  # numpy without the dict form
        return f"unknown ({type(exc).__name__})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas_build(numpy),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _import_seconds() -> float:
    """Median time to import numpy, scipy and remlpc in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


VERDICT_RANK = {"ok": 0, "failed": 1, "wrong": 2}


def _passes(wl, seconds, tracer=None) -> dict:
    """Closed-loop passes until their summed wall time reaches `seconds`
    and every operation of the workload has run at least once.

    Each fit is a fixed operation that every cycle of passes repeats, so
    a fit's verdict is the worst it got in any pass and its estimation
    error is the one of its first pass.
    """
    from reference import Reference
    from tracer import assert_unwrapped

    reference = Reference()
    reference.run()
    out = {"walls": [], "refs": [], "pass_times": [], "verdicts": {}, "errors": {}, "raised": [],
           "spans": []}
    while True:
        gc.collect()
        out["refs"].append(reference.samples())
        if tracer is None:
            assert_unwrapped()
        else:
            tracer.install()
        try:
            t0 = time.perf_counter()
            times, result = wl.run_pass(len(out["walls"]))
            t1 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["walls"].append(t1 - t0)
        out["pass_times"].append(times)
        if tracer is not None:
            out["spans"].append(tracer.take())
        checked = wl.check(result)
        _merge_verdicts(out["verdicts"], checked.verdicts)
        for key, err in checked.errors.items():
            out["errors"].setdefault(key, err)
        out["raised"].extend(checked.raised)
        if sum(out["walls"]) >= seconds and len(out["walls"]) >= wl.cycle:
            out["refs"].append(reference.samples())
            return out


def _merge_verdicts(into: dict, verdicts: dict) -> None:
    for key, verdict in verdicts.items():
        if VERDICT_RANK[verdict] >= VERDICT_RANK[into.get(key, "ok")]:
            into[key] = verdict


def operation_samples(run: dict) -> tuple[dict, dict]:
    """Each operation's times, and the same times divided by the median of
    the reference kernel's runs just before and just after the pass."""
    times, rel = {}, {}
    refs = run["refs"]
    for i, pass_times in enumerate(run["pass_times"]):
        ref = statistics.median(refs[i] + refs[i + 1])
        for key, seconds_taken in pass_times.items():
            times.setdefault(key, []).append(seconds_taken)
            rel.setdefault(key, []).append(seconds_taken / ref)
    return times, rel


def sweep(samples: dict) -> float:
    """One sweep over every operation, each at the median of its repeats."""
    return sum(statistics.median(v) for v in samples.values())


def _write_spans(path: Path, passes) -> None:
    with gzip.open(path, "wt") as fh:
        for i, spans in enumerate(passes):
            base = min((sp[3] for sp in spans), default=0.0)
            for sid, parent, layer, t0, t1, extra, error in spans:
                fh.write(json.dumps({
                    "pass": i, "id": sid, "parent": parent, "name": layer,
                    "start": t0 - base, "end": t1 - base, "extra": extra, "error": error,
                }) + "\n")


def run_workload(args) -> int:
    _import_program()
    import tracer as tr
    from workloads import WORKLOADS

    own_imports_s = time.perf_counter() - T_START
    imports_s = _import_seconds()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, workdir, args.scale)
            wl.setup()
            wl.warm_up()
            setups.append(time.perf_counter() - t0)
        setup_s = imports_s + statistics.median(setups)

        plain = _passes(wl, args.seconds / 2 if args.trace else args.seconds)
        traced = _passes(wl, args.seconds / 2, tr.Tracer()) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = plain["walls"]
    times, rel = operation_samples(plain)
    wall_s = sweep(times)
    wall_rel = sweep(rel)
    reference_s = statistics.median(x for samples in plain["refs"] for x in samples)
    runs = [plain] + ([traced] if traced else [])
    verdicts = {}
    for r in runs:
        _merge_verdicts(verdicts, r["verdicts"])
    attempted = len(verdicts)
    failed = sum(v != "ok" for v in verdicts.values())
    wrong = sum(v == "wrong" for v in verdicts.values())
    errors = list(plain["errors"].values())
    est_error = statistics.median(errors) if errors else float("nan")
    repeats = [len(v) for v in times.values()]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "machine": machine_facts(wl.workers),
        "loop": "closed: one pass at a time, each starting when the previous one ends",
        "imports_s": imports_s,
        "own_imports_s": own_imports_s,
        "setup_samples_s": setups,
        "pass_wall_samples_s": walls,
        "reference_samples_s": plain["refs"],
        "reference_s": reference_s,
        "operation_samples_s": times,
        "operation_repeats_min": min(repeats),
        "wall_s": wall_s,
        "wall_rel": wall_rel,
        "setup_s": setup_s,
        "attempted": attempted,
        "error_rate": failed / attempted,
        "wrong_outputs": wrong,
        "fit_verdicts": verdicts,
        "raised": sorted(set(r for run in runs for r in run["raised"])),
        "est_error": est_error,
    }
    if traced:
        # per sweep: the spans of each complete cycle of passes together
        spans = traced["spans"]
        layers = [tr.layer_metrics([sp for p in spans[c:c + wl.cycle] for sp in p], wl.workers)
                  for c in range(0, len(spans) - wl.cycle + 1, wl.cycle)]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.overhead_s"] = sweep(operation_samples(traced)[0]) - wall_s
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
        _write_spans(spans_path, traced["spans"])
        record.update(traced_wall_samples_s=traced["walls"], absent_layers=tr.absent_layers(),
                      spans_file=str(spans_path.relative_to(ROOT)))
    else:
        metrics = {
            "wall_rel": wall_rel,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or tr.unit_of(k)}
                    for k, v in metrics.items()},
    }
    record["result"] = result
    path = Path(args.record) if args.record else (
        OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload}: wall_s {wall_s:.6g} s, wall_rel {wall_rel:.6g} (medians of at "
          f"least {min(repeats)} repeats of each of {len(repeats)} operations, "
          f"{len(walls)} untraced passes; reference kernel median "
          f"{reference_s:.6g} s); error_rate {failed}/{attempted} fits; "
          f"est_error {est_error:.6g}")
    if record["raised"]:
        print(f"raised: {'; '.join(record['raised'])}")
    if traced and record["absent_layers"]:
        print(f"absent layers (reported as 0): {', '.join(record['absent_layers'])}")
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        record = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--record", str(record)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return EXIT_RUN_FAILED
        results[name] = json.loads(record.read_text())
    for name, rec in results.items():
        print(f"[{name}] seed {args.seed}, {len(rec['pass_wall_samples_s'])} untraced passes")
        print(f"  {'wall_s':40s} {rec['wall_s']:>14.6g} s")
        for metric, m in rec["result"]["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'error_rate':40s} {rec['error_rate']:>14.6g} ratio "
              f"({rec['result']['failed']}/{rec['result']['attempted']} fits)")
        print(f"  {'est_error':40s} {rec['est_error']:>14.6g} norm")
    ok = all(rec["result"]["correct"] for rec in results.values())
    summary = {
        "correct": ok,
        "attempted": sum(r["result"]["attempted"] for r in results.values()),
        "failed": sum(r["result"]["failed"] for r in results.values()),
        "workloads": {name: rec["result"] for name, rec in results.items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for perfbench/smoke.py only")
    p.add_argument("--record", default=None, help="where to write the full JSON record")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
