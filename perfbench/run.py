"""slmprecode benchmark: Monte Carlo report throughput end to end, or its layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cheap_kinds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` times the workload's reports with tracing off and prints the
end-to-end metrics; ``--trace 1`` runs the same reports again with spans
around the package's layer calls and prints the per-layer metrics. Each
report is checked byte for byte against a golden captured by
``capture_goldens.py``. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines give
the environment, every metric with its unit, and the sample counts behind
the medians.

A timed run is split over ``TIME_PROCESSES`` fresh interpreters, run one
after another, and its times are pooled over them; each process also
measures its own set-up, so ``setup_s`` is a median over them. The host's
speed drifts a lot on a small shared VM, so every cycle's times are divided
by a speed factor measured around it with a fixed calibration kernel (see
``calibration.py``; ``slm_large_n_serial`` has none and is not adjusted);
the raw figures are printed as notes beside them. The benchmark sets no
thread-count variable; the program runs as users run it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import calibration
import workloads

TIME_PROCESSES = 8
RUN_TIMEOUT_S = 170.0  # a run (all its processes) ends within this, or fails


def _spec() -> Dict:
    with open(workloads.REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _child(mode: str, args, seconds: float, start: int = 0) -> Dict:
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(workloads.BENCH_DIR / "bench.py"), mode, args.workload,
           str(args.seed), repr(seconds), repr(t_spawn), "--start", str(start),
           "--golden-set", args.golden_set]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=workloads.REPO_ROOT)
    try:
        out, err = proc.communicate(timeout=max(args.deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} process for {args.workload} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process for {args.workload} failed "
                           f"(exit {proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _tail(values: List[float]):
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    Below 21 samples that percentile is under the median (or does not
    exist), so the median is given instead, with percentile 50.
    """
    v = sorted(values)
    r = len(v)
    if r >= 21:
        return v[r - 11], 100.0 * (r - 10) / r
    return statistics.median(v), 50.0


def _speed_factors(wl, part: Dict) -> List[float]:
    """Per cycle: mean of the kernel times before and after it, over the reference time."""
    if wl.calibration is None:
        return [1.0] * len(part["cycles"])
    cal = part["calibration"]
    ref = calibration.REFERENCE_S[wl.calibration]
    return [(cal[i] + cal[i + 1]) / (2.0 * ref) for i in range(len(part["cycles"]))]


def end_to_end(wl, parts: List[Dict]):
    """End-to-end metrics from the timing processes, pooled; plus notes.

    Times are divided by their cycle's speed factor (see calibration.py);
    the raw figures are given among the notes.
    """
    names = [name for name, _ in wl.slots]
    trials = {name: cfg["trials"] for name, cfg in wl.slots}
    cycles, raw_cycles, speeds = [], [], []
    slot_times: Dict[str, List[float]] = {name: [] for name in names}
    for part in parts:
        for times, speed in zip(part["cycles"], _speed_factors(wl, part)):
            speeds.append(speed)
            for name, dt in times.items():
                slot_times[name].append(dt / speed)
            if len(times) == len(names):
                raw_cycles.append(sum(times.values()))
                cycles.append(raw_cycles[-1] / speed)
    per_report = [c / len(names) for c in cycles]
    tail_value, tail_pct = _tail(per_report)
    metrics = {
        "trials_per_s": wl.trials_per_cycle / statistics.median(cycles),
        "report_s_p50": statistics.median(per_report),
        "report_s_tail": tail_value,
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }
    notes = {
        "processes": len(parts),
        "cycles": len(cycles),
        "reports": sum(len(t) for t in slot_times.values()),
        "reports_per_cycle": len(names),
        "report_s_tail.percentile": tail_pct,
        "speed_factor.median": statistics.median(speeds),
        "speed_factor.min": min(speeds),
        "speed_factor.max": max(speeds),
        "raw.trials_per_s": wl.trials_per_cycle / statistics.median(raw_cycles),
        "raw.report_s_p50": statistics.median(raw_cycles) / len(names),
    }
    if len(names) > 1:
        for name in names:
            metrics[f"trials_per_s.{name}"] = trials[name] / statistics.median(slot_times[name])
    return metrics, notes


def run_workload(args) -> Dict:
    spec = _spec()
    wl = workloads.get(args.workload, args.tiny)
    if args.trace:
        res = _child("trace", args, float(args.seconds))
        parts = [res]
        metrics = dict(res["layers"])
        metrics["cli.import_s"] = res["import_s"]
        if len(wl.slots) > 1:
            for slot, vals in res["slots"].items():
                metrics.update({f"{k}.{slot}": v for k, v in vals.items()})
        declared = spec["per_layer"]
        notes = {"cycles": res["cycles"]}
    else:
        parts = [_child("time", args, args.seconds / TIME_PROCESSES,
                        start=i * wl.pool_size // TIME_PROCESSES)
                 for i in range(TIME_PROCESSES)]
        metrics, notes = end_to_end(wl, parts)
        declared = spec["end_to_end"]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    print(f"workload {wl.name} seed {args.seed} golden_set {args.golden_set} "
          f"trace {args.trace} workers {wl.workers}")
    for k, v in parts[0]["env"].items():
        print(f"env {k} {v}")
    for k, v in notes.items():
        print(f"note {k} {v!r}")
    for p in parts:
        for err in p["errors"]:
            print(f"error {err}")
    units = {m["name"]: m["unit"] for m in declared}
    print(f"metric fail_ratio {failed / attempted!r} ratio")
    for name, value in metrics.items():
        if name not in units:  # a per-kind figure: the declared metric's unit
            print(f"metric {name} {value!r} {units[name.rsplit('.', 1)[0]]}")
    out = {}
    for name, unit in units.items():
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"metric {name} {metrics[name]!r} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {sorted(workloads.WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, default=0, help="chooses the master-seed order")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden-set", default="default", choices=sorted(workloads.GOLDEN_SETS),
                    help="master-seed pool; 'heldout' re-checks a claim on unseen seeds")
    ap.add_argument("--tiny", action="store_true", help="tiny configs, for the self-test")
    args = ap.parse_args(argv)

    if not (workloads.SRC_DIR / "slmprecode" / "__init__.py").is_file():
        print(f"error: no slmprecode sources under {workloads.SRC_DIR}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        args.workload = name
        args.deadline = time.monotonic() + RUN_TIMEOUT_S
        try:
            results.append(run_workload(args))
        except (RuntimeError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    ok = all(r["correct"] for r in results)
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
