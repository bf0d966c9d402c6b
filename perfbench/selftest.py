"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload in BENCHMARK.json, timed and traced, prints every metric by
  name with its unit, and ends in the JSON line the benchmark promises;
* the golden check fires on a deliberately altered report, in the timed and
  in the traced run;
* the benchmark refuses to run, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads

RUN = [sys.executable, str(workloads.BENCH_DIR / "run.py")]


def check_metrics(spec) -> None:
    for wl in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                RUN + ["--workload", wl["name"], "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300, cwd=workloads.REPO_ROOT)
            where = f"{wl['name']} --trace {trace}"
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, where
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, f"{where}: metrics {got} != {expected}"
            for name, unit in expected.items():
                value = result["metrics"][name]["value"]
                assert isinstance(value, (int, float)), f"{where}: {name} = {value!r}"
                assert f"metric {name} {value!r} {unit}" in lines, f"{where}: {name} not printed"
            print(f"ok   {where}: {len(expected)} metrics")


def check_golden_fires() -> None:
    sys.path.insert(0, str(workloads.SRC_DIR))
    import bench
    from slmprecode import regions

    workloads.write_channel_files(regions.channel_stream)
    wl = workloads.get("cheap_kinds", tiny=True)
    goldens = workloads.load_goldens(wl.name, True, "default")
    seed = 5
    first = workloads.golden_key(wl.slots[0][0], workloads.seed_plan(wl, seed)[0])
    altered = dict(goldens)
    altered[first] = altered[first].replace('"mean_gamma": ', '"mean_gamma": 1', 1)
    assert altered[first] != goldens[first]
    for run in (bench.time_workload, bench.trace_workload):
        clean = run(wl, seed, 0.0, goldens)
        assert clean["failed"] == 0, f"{run.__name__}: {clean['errors']}"
        res = run(wl, seed, 0.0, altered)
        assert res["failed"] >= 1 and any(first in e for e in res["errors"]), \
            f"{run.__name__} did not flag the altered golden: {res['errors']}"
        print(f"ok   golden check fires in {run.__name__}")


def check_refuses_without_sources() -> None:
    bare = workloads.WORK_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(workloads.REPO_ROOT / "BENCHMARK.json", bare)
        shutil.copytree(workloads.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cheap_kinds", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare)
        assert proc.returncode != 0, "ran without the package sources"
        assert '"metrics"' not in proc.stdout, "printed a result without the package sources"
        print("ok   refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(workloads.REPO_ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_refuses_without_sources()
    check_golden_fires()
    check_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
