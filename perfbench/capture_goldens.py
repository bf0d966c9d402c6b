"""Capture the golden JSON reports the benchmark checks every timed report against.

Run from the root of a checkout, at the commit whose reports are the
reference::

    python3 perfbench/capture_goldens.py [--tiny] [WORKLOAD ...]

For every workload, golden set (``default`` and ``heldout``), config slot and
master seed in the pool it writes the exact bytes of
``write_report(run_experiment(cfg), "json", None)`` to
``perfbench/goldens/<workload>[-tiny].json``. Reports are byte-identical for
any worker count, so they are captured serially.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def capture(wl, tiny: bool) -> None:
    from slmprecode import harness, regions

    workloads.write_channel_files(regions.channel_stream)
    out = {}
    for golden_set in sorted(workloads.GOLDEN_SETS):
        reports = {}
        for ms in workloads.master_seeds(wl, golden_set):
            for name, slot_cfg in wl.slots:
                cfg = harness.ExperimentConfig.from_dict(workloads.report_config(slot_cfg, ms))
                reports[workloads.golden_key(name, ms)] = harness.write_report(
                    harness.run_experiment(cfg), "json", None)
        out[golden_set] = reports
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.golden_path(wl.name, tiny)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({sum(len(r) for r in out.values())} reports)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", help="default: all")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(workloads.SRC_DIR))
    names = args.workloads or sorted(workloads.WORKLOADS)
    for name in names:
        capture(workloads.get(name, args.tiny), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
