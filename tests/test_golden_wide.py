"""Golden report bytes above M = 8, at the sizes where group products grow.

(7,5) PAM 4 trellis reports on random channels at M = 16, 20, 26 and 32,
whose whole code trees of 2^6 to 2^14 codewords are scanned a group of
trials at a time (the trees at M = 26 and 32 were searched when their
entries were captured), and at M = 34, whose 2^15 codewords, the smallest
tree past the scan's limit, are searched a trial at a time; vector perturbation at b = 2, M = 12 (2^12
candidates a trial) and b = 3, M = 10 (3^10, a group of its own); nested
K = 3, n_u = 2, q = 2 at M = 12; and ``slm_random`` on the expanded
hypercube at M = 20, N = 4096 and at M = 64, N = 1024, whose candidates
make products past OpenBLAS's GEMM path switch (10^6 multiply-adds) unless
``ChannelMatrix.energies`` blocks them (one product a trial when captured).
Each report runs 300 trials, two 256-trial chunks, so a run at
``workers=2`` starts a pool. Every report is checked three ways: serially,
at ``workers=2``, and in a child process whose own environment sets
``OPENBLAS_NUM_THREADS=1``, so report bytes depend neither on pooling nor on
how many threads BLAS runs. Capture the entries of new ``CONFIGS`` with::

    PYTHONPATH=src python tests/test_golden_wide.py

It adds only the entries that ``golden_reports_wide.json`` lacks, and exits
non-zero, naming the entry, if an existing entry's bytes would change. To
change an entry on purpose, delete it from the file first.
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

_TRELLIS = {"kind": "trellis", "generators": "7,5", "k_s": 1, "pam": 4}

# name: (m, seed of the random channel, precoder)
CONFIGS = {
    "trellis_m16": (16, 16, _TRELLIS),
    "trellis_m20": (20, 20, _TRELLIS),
    "trellis_m26": (26, 26, _TRELLIS),
    "vector_perturb_b2_m12": (12, 12, {"kind": "vector_perturb", "b": 2}),
    "vector_perturb_b3_m10": (10, 10, {"kind": "vector_perturb", "b": 3}),
    "nested_k3_m12": (12, 13, {"kind": "nested", "k": 3, "n_u": 2, "q": 2}),
    "trellis_m32": (32, 32, _TRELLIS),
    "trellis_m34": (34, 34, _TRELLIS),
    "slm_random_m20_n4096": (20, 20, {"kind": "slm_random", "n": 4096}),
    "slm_random_m64_n1024": (64, 64, {"kind": "slm_random", "n": 1024}),
}


def _config(name):
    m, seed, precoder = CONFIGS[name]
    return {
        "m": m,
        "channel_source": {"kind": "random", "seed": seed},
        "tau": 4.0,
        "precoder": precoder,
        "trials": 300,
        "master_seed": 2024,
    }


def _report_bytes(name, workers=1):
    cfg = harness.ExperimentConfig.from_dict(_config(name))
    rep = harness.run_experiment(cfg, workers=workers)
    return {fmt: harness.write_report(rep, fmt, None) for fmt in ("csv", "json")}


def _all_reports():
    return {name: _report_bytes(name) for name in sorted(CONFIGS)}


def _capture_new():
    """Add the reports of configs the golden file lacks; refuse to change an existing one."""
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    reports = _all_reports()
    changed = [name for name, old in sorted(goldens.items()) if reports.get(name, old) != old]
    if changed:
        sys.exit(f"{GOLDENS.name}: the bytes of {', '.join(changed)} would change; "
                 "delete an entry first to change it on purpose")
    added = sorted(reports.keys() - goldens.keys())
    GOLDENS.write_text(json.dumps({**goldens, **reports}, indent=2, sort_keys=True) + "\n")
    print(f"added {', '.join(added) or 'nothing'}")


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
    if sys.argv[1:] == ["--stdout"]:
        print(json.dumps(_all_reports()))
    else:
        _capture_new()
