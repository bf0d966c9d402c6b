"""Golden report bytes above M = 8: trellis reports at the sizes where group products grow.

(7,5) PAM 4 on random channels at M = 16 and 20, whose whole code trees of
2^6 and 2^8 codewords are scanned a group of trials at a time, and at
M = 26, whose 2^11 codewords are searched. Each report runs 300 trials, two
256-trial chunks, so a run at ``workers=2`` starts a pool. Every report is
checked three ways: serially, at ``workers=2``, and in a child process whose
own environment sets ``OPENBLAS_NUM_THREADS=1``, so report bytes depend
neither on pooling nor on how many threads BLAS runs. Regenerate
``golden_reports_wide.json`` only when report bytes are meant to change::

    PYTHONPATH=src python tests/test_golden_wide.py
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from slmprecode import harness

GOLDENS = pathlib.Path(__file__).with_name("golden_reports_wide.json")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# name: (m, seed of the random channel)
CONFIGS = {"trellis_m16": (16, 16), "trellis_m20": (20, 20), "trellis_m26": (26, 26)}


def _config(name):
    m, seed = CONFIGS[name]
    return {
        "m": m,
        "channel_source": {"kind": "random", "seed": seed},
        "tau": 4.0,
        "precoder": {"kind": "trellis", "generators": "7,5", "k_s": 1, "pam": 4},
        "trials": 300,
        "master_seed": 2024,
    }


def _report_bytes(name, workers=1):
    cfg = harness.ExperimentConfig.from_dict(_config(name))
    rep = harness.run_experiment(cfg, workers=workers)
    return {fmt: harness.write_report(rep, fmt, None) for fmt in ("csv", "json")}


def _all_reports():
    return {name: _report_bytes(name) for name in sorted(CONFIGS)}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wide_report_bytes_match_golden(name, goldens):
    assert _report_bytes(name) == goldens[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wide_report_bytes_match_golden_two_workers(name, goldens):
    assert _report_bytes(name, workers=2) == goldens[name]


def test_wide_report_bytes_match_golden_one_blas_thread(goldens):
    # the child's environment is its own: nothing outside it changes
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, __file__, "--stdout"], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == goldens


if __name__ == "__main__":
    reports = _all_reports()
    if sys.argv[1:] == ["--stdout"]:
        print(json.dumps(reports))
    else:
        GOLDENS.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
