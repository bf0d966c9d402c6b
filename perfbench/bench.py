"""One benchmark process: set up a workload, then time it or trace it.

Run by ``run.py`` as a fresh interpreter::

    python3 perfbench/bench.py {time|trace} WORKLOAD SEED SECONDS T_SPAWN [--start N] [--tiny] [--golden-set SET]

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` counts interpreter start-up too. The process prints
one JSON object on its last stdout line. Set-up is: ``import slmprecode``,
the workload's inputs generated and loaded, and one 1-trial warm-up report
per config slot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List

import workloads

_ENV_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_package():
    sys.path.insert(0, str(workloads.SRC_DIR))
    t0 = time.monotonic()
    import slmprecode
    import_s = time.monotonic() - t0
    origin = os.path.realpath(slmprecode.__file__)
    if not origin.startswith(os.path.realpath(workloads.SRC_DIR) + os.sep):
        raise SystemExit(f"slmprecode was imported from {origin}, not from this checkout")
    return import_s


def _setup(wl) -> None:
    """Generate and load the workload's inputs, then run the warm-up reports."""
    from slmprecode import harness, regions

    workloads.write_channel_files(regions.channel_stream)
    for _, slot_cfg in wl.slots:
        cfg = harness.ExperimentConfig.from_dict(workloads.report_config(slot_cfg, 0, trials=1))
        harness.run_experiment(cfg, workers=wl.workers)


def environment() -> Dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
    }
    for var in _ENV_THREAD_VARS:
        env[var] = os.environ.get(var, "unset")
    return env


def peak_rss_mb(workers: int) -> float:
    """Own high-water mark plus the largest worker's times the worker count (upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child * workers) / 1024.0


# ---------------------------------------------------------------------------
# Timed run (tracing off)
# ---------------------------------------------------------------------------


def time_workload(wl, seed: int, seconds: float, goldens: Dict[str, str],
                  golden_set: str = "default", start: int = 0) -> Dict:
    """Run whole cycles (one report per slot) until ``seconds`` would be exceeded.

    Cycle i uses the master seed at position ``start + i`` of the seed plan.
    The workload's calibration kernel, if it has one, is timed before the
    first cycle and after every cycle (``calibration`` has one more entry
    than ``cycles``; all 0 without a kernel).

    Every report is serialized and compared byte for byte with its golden; a
    mismatch or an exception counts as failed, and an exception leaves the
    slot's time out of its cycle.
    """
    from slmprecode import harness
    import calibration  # after _import_package, so cli.import_s includes numpy's import

    def kernel_s() -> float:
        return calibration.measure(wl.calibration) if wl.calibration else 0.0

    plan = workloads.seed_plan(wl, seed, golden_set)
    kernel_s()  # warm-up, not counted
    cal = [kernel_s()]
    cycles: List[Dict[str, float]] = []
    attempted = failed = 0
    errors: List[str] = []
    t_begin = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        ms = plan[(start + len(cycles)) % len(plan)]
        times: Dict[str, float] = {}
        for name, slot_cfg in wl.slots:
            cfg = harness.ExperimentConfig.from_dict(workloads.report_config(slot_cfg, ms))
            attempted += 1
            t0 = time.perf_counter()
            try:
                rep = harness.run_experiment(cfg, workers=wl.workers)
                text = harness.write_report(rep, "json", None)
            except Exception as exc:  # a failed report is counted, not fatal
                failed += 1
                errors.append(f"{name}/{ms}: {type(exc).__name__}: {exc}")
                continue
            times[name] = time.perf_counter() - t0
            if text != goldens.get(workloads.golden_key(name, ms)):
                failed += 1
                errors.append(f"{name}/{ms}: report differs from golden")
        cycles.append(times)
        cal.append(kernel_s())
        elapsed = time.perf_counter() - t_begin
        if elapsed + (time.perf_counter() - t_cycle) > seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "cycles": cycles,
        "calibration": cal,
        "peak_rss_mb": peak_rss_mb(wl.workers),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def _timed(fn, *args):
    """(fn(*args), wall seconds)."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _median_time(fn, reps: int) -> float:
    return statistics.median(_timed(fn)[1] for _ in range(reps))


def _microbench(slot_cfg) -> Dict[str, float]:
    """Per-call costs of ``write_report`` and of the CLI's ``run`` on a 1-trial config."""
    from slmprecode import cli, harness

    one = workloads.report_config(slot_cfg, 0, trials=1)
    cfg = harness.ExperimentConfig.from_dict(one)
    rep = harness.run_experiment(cfg)

    cfg_path = workloads.WORK_DIR / "cli_config.json"
    out_path = workloads.WORK_DIR / "cli_report.json"
    cfg_path.write_text(json.dumps(one), encoding="utf-8")
    argv = ["run", "--config", str(cfg_path), "--format", "json", "--out", str(out_path)]

    def via_cli():
        if cli.main(argv) != 0:
            raise RuntimeError("cli run failed")

    def via_api():
        harness.write_report(harness.run_experiment(cfg), "json", str(out_path))

    return {
        "harness.write_report_us": 1e6 * _median_time(
            lambda: harness.write_report(rep, "json", None), 41),
        "cli.run_overhead_ms": 1e3 * statistics.median(
            _timed(via_cli)[1] - _timed(via_api)[1] for _ in range(15)),
    }


def energy_cost(rows: int, calls: int, m: int):
    """Computed flops and bytes of ``rows`` rows in ``calls`` energy calls at dimension m.

    Per row: x @ chol is 2M^2 flops and the row norm 2M. Bytes count reading
    the rows, writing and re-reading the whitened rows, writing one result
    per row, and reading the M x M factor once per call; cache effects are
    ignored.
    """
    flops = rows * (2 * m * m + 2 * m)
    nbytes = 8 * (3 * rows * m + rows) + 8 * m * m * calls
    return flops, nbytes


def _new_acc() -> Dict:
    return {"trials": 0, "reports": 0, "serial_s": 0.0, "pool_s": 0.0, "traced_s": 0.0,
            "energy_flops": 0, "energy_bytes": 0, "layers": {}, "counts": {}}


def _add_acc(acc: Dict, other: Dict) -> None:
    for k in ("trials", "reports", "serial_s", "pool_s", "traced_s", "energy_flops",
              "energy_bytes"):
        acc[k] += other[k]
    for lname, la in other["layers"].items():
        o = acc["layers"].setdefault(lname, [0.0, 0.0, 0])
        for i in range(3):
            o[i] += la[i]
    for cname, v in other["counts"].items():
        acc["counts"][cname] = acc["counts"].get(cname, 0) + v


def _report(cfg, workers: int = 1, tracer=None):
    """(JSON text, seconds in ``run_experiment``) of one report.

    With ``tracer``, the report runs serially with the span wrappers of
    ``tracing`` installed, inside a ``harness.run_experiment`` root span.
    """
    from slmprecode import harness
    import tracing

    t0 = time.perf_counter()
    if tracer is None:
        rep = harness.run_experiment(cfg, workers=workers)
    else:
        with tracing.installed(tracer), tracer.span("harness.run_experiment"):
            rep = harness.run_experiment(cfg)
    seconds = time.perf_counter() - t0
    return harness.write_report(rep, "json", None), seconds


def trace_workload(wl, seed: int, seconds: float, goldens: Dict[str, str],
                   golden_set: str = "default") -> Dict:
    """Per-layer split of the workload's reports, plus the self-checks.

    Each cycle runs, per slot, one untraced serial report, the same report
    traced (the package's own run, with spans around its layer calls, see
    ``tracing``) and the same report at ``workers=2`` (pool speed-up). All
    three must match the golden. Cycles come in pairs on the same master
    seed, so every count is seen twice and must repeat exactly. Pairs run
    while the next one is expected to end within ``seconds``; at least one
    runs.
    """
    from slmprecode import harness
    import tracing

    plan = workloads.seed_plan(wl, seed, golden_set)
    per_slot = {name: _new_acc() for name, _ in wl.slots}
    attempted = failed = 0
    errors: List[str] = []
    counts_seen: Dict[str, Dict] = {}
    cycles = 0
    first_spans = None
    t_begin = t_pair = time.perf_counter()
    while True:
        if cycles % 2 == 0 and cycles:
            now = time.perf_counter()
            if 2 * now - t_pair - t_begin > seconds:  # the next pair would overrun
                break
            t_pair = now
        ms = plan[(cycles // 2) % len(plan)]
        for name, slot_cfg in wl.slots:
            cfg = harness.ExperimentConfig.from_dict(workloads.report_config(slot_cfg, ms))
            key = workloads.golden_key(name, ms)
            tr = tracing.Tracer()
            jobs = {"serial": lambda: _report(cfg), "traced": lambda: _report(cfg, tracer=tr)}
            # Odd cycles run them in reverse order, so that a drift of the
            # host's speed cancels over a pair in traced / serial.
            order = list(jobs) if cycles % 2 == 0 else list(jobs)[::-1]
            done = {job: jobs[job]() for job in order}
            done["workers=2"] = _report(cfg, workers=2)
            attempted += len(done)
            for label, (text, _) in done.items():
                if text != goldens.get(key):
                    failed += 1
                    errors.append(f"{key} ({label}): report differs from golden")

            layers = tracing.layer_times(tr.spans)
            counts = dict(tr.counts)
            counts.update({f"calls.{k}": v[2] for k, v in layers.items()})
            if key in counts_seen and counts_seen[key] != counts:
                failed += 1
                errors.append(f"{key}: counts did not repeat: {counts_seen[key]} vs {counts}")
            counts_seen.setdefault(key, counts)

            rows = sum(v for k, v in counts.items() if k.startswith("rows."))
            flops, nbytes = energy_cost(rows, counts.get("calls.theory.energy", 0), cfg.m)
            _add_acc(per_slot[name], {
                "trials": cfg.trials, "reports": 1, "serial_s": done["serial"][1],
                "pool_s": done["workers=2"][1], "traced_s": done["traced"][1],
                "energy_flops": flops, "energy_bytes": nbytes,
                "layers": layers, "counts": counts})
            if first_spans is None:
                first_spans = tr.spans
        cycles += 1

    micro = {name: _microbench(slot_cfg) for name, slot_cfg in wl.slots}
    slots = {name: layer_metrics(per_slot[name], micro[name]) for name, _ in wl.slots}
    pooled_acc = _new_acc()
    for acc in per_slot.values():
        _add_acc(pooled_acc, acc)
    pooled_micro = {k: statistics.mean(m[k] for m in micro.values())
                    for k in next(iter(micro.values()))}
    _write_spans(wl.name, seed, first_spans)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "layers": layer_metrics(pooled_acc, pooled_micro),
        "slots": slots,
        "cycles": cycles,
    }


def layer_metrics(acc: Dict, micro: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of accumulated traced reports (see BENCHMARK.json per_layer)."""
    trials = acc["trials"]
    reports = acc["reports"]
    layers = acc["layers"]
    counts = acc["counts"]

    def total(name):
        return layers.get(name, (0.0, 0.0, 0))[0]

    def self_time(name):
        return layers.get(name, (0.0, 0.0, 0))[1]

    def per_call(name):
        return total(name) / max(layers.get(name, (0.0, 0.0, 0))[2], 1)

    rows = sum(v for k, v in counts.items() if k.startswith("rows."))
    leaves = counts.get("rows.shaping.trellis_shape", 0)
    builds = max(counts.get("calls.theory.build_channel", 0), 1)
    flops, nbytes = acc["energy_flops"], acc["energy_bytes"]
    draw_s = total("regions.region") + total("regions.draw") + total("regions.make_stream")
    return {
        "harness.pool_speedup": acc["serial_s"] / acc["pool_s"],
        "harness.self_us_per_trial": 1e6 * self_time("harness.run_experiment") / trials,
        "harness.channel_loads_per_report": counts["harness.channel_loads"] / reports,
        "harness.config_validations_per_report": counts["harness.config_validations"] / reports,
        "harness.write_report_us": micro["harness.write_report_us"],
        "regions.draw_us_per_trial": 1e6 * draw_s / trials,
        "regions.make_stream_us": 1e6 * self_time("regions.make_stream") / max(
            counts.get("calls.regions.make_stream", 0), 1),
        "regions.bytes_per_trial": counts.get("regions.draw_bytes", 0) / trials,
        "theory.energies_us_per_trial": 1e6 * total("theory.energy") / trials,
        "theory.energy_rows_per_trial": rows / trials,
        "theory.energy_flops_per_trial": flops / trials,
        "theory.energy_bytes_per_trial": nbytes / trials,
        "theory.energy_ops_per_byte": flops / nbytes if nbytes else 0.0,
        "theory.build_channel_us": 1e6 * per_call("theory.build_channel"),
        "theory.report_us": 1e6 * per_call("theory.report"),
        "linalg.factor_us": 1e6 * total("linalg.factor") / builds,
        "linalg.calls_per_report": counts.get("calls.linalg.factor", 0) / reports,
        "precoders.self_us_per_trial": 1e6 * self_time("precoders.select") / trials,
        "precoders.candidates_per_trial": counts.get("candidates", 0) / trials,
        "shaping.search_ms_per_trial": 1e3 * total("shaping.trellis_shape") / trials,
        "shaping.leaves_per_trial": leaves / trials,
        "shaping.leaf_ratio": leaves / counts["codewords"] if counts.get("codewords") else 0.0,
        "shaping.rebuild_us_per_trial": 1e6 * total("shaping.rebuild") / trials,
        "shaping.nested_us_per_trial": 1e6 * total("shaping.nested_select") / trials,
        "cli.run_overhead_ms": micro["cli.run_overhead_ms"],
        "trace.overhead_ratio": acc["traced_s"] / acc["serial_s"],
    }


def _write_spans(name: str, seed: int, spans) -> None:
    """Write the first traced report's spans as JSON lines: id, parent, name, start, end."""
    path = workloads.WORK_DIR / f"spans-{name}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in spans:
            fh.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("time", "trace"))
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("t_spawn", type=float)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--golden-set", default="default", choices=sorted(workloads.GOLDEN_SETS))
    ap.add_argument("--start", type=int, default=0, help="first position in the seed plan")
    args = ap.parse_args(argv)

    wl = workloads.get(args.workload, args.tiny)
    import_s = _import_package()
    _setup(wl)
    setup_s = time.monotonic() - args.t_spawn
    out: Dict = {"setup_s": setup_s, "import_s": import_s, "env": environment()}
    goldens = workloads.load_goldens(wl.name, args.tiny, args.golden_set)
    if args.mode == "time":
        out.update(time_workload(wl, args.seed, args.seconds, goldens, args.golden_set,
                                 args.start))
    else:
        out.update(trace_workload(wl, args.seed, args.seconds, goldens, args.golden_set))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
