"""Golden report bytes: one pinned CSV and JSON report per precoder path.

Each config runs 300 trials, i.e. two 256-trial chunks, so the chunked
reduction is pinned as well. A change that alters any byte of any report
fails here. Regenerate ``golden_reports.json`` only when report bytes are
meant to change::

    PYTHONPATH=src python tests/test_golden_reports.py

The benchmark's tiny goldens (``perfbench/goldens/*-tiny.json``, both seed
sets) are replayed too: they add M = 8 trellis reports and channels read
from files. So are the trellis slot of the full-size ``cheap_kinds``
goldens, 512 trials per report, and the full-size ``trellis_deep`` goldens,
whose M = 24 code trees are searched. Those replays only read
``perfbench/``; the channel files go to a temporary directory.
"""

import importlib
import json
import pathlib
import sys

import pytest

from slmprecode import harness, regions

GOLDENS = pathlib.Path(__file__).with_name("golden_reports.json")
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TINY_GOLDENS = sorted(PERFBENCH.glob("goldens/*-tiny.json"))

# A well-conditioned 4x4 channel, written with repr floats so it loads exactly.
CHANNEL_ROWS = (
    (1.0, 0.25, -0.5, 0.125),
    (0.375, 1.5, 0.25, -0.25),
    (-0.125, 0.5, 0.875, 0.375),
    (0.25, -0.375, 0.125, 1.25),
)

PRECODERS = {
    "plain": {"kind": "plain"},
    "slm_expanded": {
        "kind": "slm_random", "n": 16, "region": {"kind": "hypercube", "expand": True}
    },
    "slm_fixed": {
        "kind": "slm_random", "n": 16, "region": {"kind": "hypercube", "expand": False}
    },
    "slm_ball": {"kind": "slm_random", "n": 16, "region": {"kind": "ball", "radius": 1.5}},
    "vector_perturb": {"kind": "vector_perturb", "b": 3},
    "trellis": {"kind": "trellis", "generators": "7,5", "k_s": 1, "pam": 4},
    "nested": {"kind": "nested", "k": 2, "n_u": 1, "q": 2},
    "file_channel": {"kind": "vector_perturb", "b": 2},
}


def _config(name, workdir):
    source = {"kind": "random", "seed": 11}
    if name == "file_channel":
        path = pathlib.Path(workdir) / "channel.csv"
        path.write_text("".join(", ".join(repr(x) for x in row) + "\n" for row in CHANNEL_ROWS))
        source = {"kind": "file", "path": str(path)}
    return {
        "m": 4,
        "channel_source": source,
        "tau": 4.0,
        "precoder": PRECODERS[name],
        "trials": 300,
        "master_seed": 2024,
    }


def _report_bytes(name, workdir, workers=1):
    cfg = harness.ExperimentConfig.from_dict(_config(name, workdir))
    rep = harness.run_experiment(cfg, workers=workers)
    return {fmt: harness.write_report(rep, fmt, None) for fmt in ("csv", "json")}


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("name", sorted(PRECODERS))
def test_report_bytes_match_golden(name, tmp_path, goldens):
    assert _report_bytes(name, tmp_path) == goldens[name]


@pytest.mark.parametrize("name", sorted(PRECODERS))
def test_report_bytes_match_golden_two_workers(name, tmp_path, goldens):
    # each pooled chunk owns its stream and re-keys it per trial
    assert _report_bytes(name, tmp_path, workers=2) == goldens[name]


@pytest.fixture
def replay(tmp_path, monkeypatch):
    """replay(path, tiny, slots): run the goldens of a perfbench golden file, from both seed sets.

    ``slots`` names the workload slots to replay, all of them if None.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # perfbench/ is only read
    workloads = importlib.import_module("workloads")
    for key, (seed, m) in workloads.FILE_CHANNELS.items():
        h = regions.channel_stream(seed).standard_normal((m, m))
        text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in h)
        (tmp_path / f"{key}.csv").write_text(text, encoding="utf-8")

    def run(path, tiny, slots=None):
        wl = workloads.get(path.stem[: -len("-tiny")] if tiny else path.stem, tiny=tiny)
        goldens = json.loads(path.read_text(encoding="utf-8"))
        assert sorted(goldens) == sorted(workloads.GOLDEN_SETS)
        for golden_set, reports in goldens.items():
            for ms in workloads.master_seeds(wl, golden_set):
                for slot, slot_cfg in wl.slots:
                    if slots is not None and slot not in slots:
                        continue
                    d = workloads.report_config(slot_cfg, ms)
                    source = d["channel_source"]
                    if source["kind"] == "file":
                        source["path"] = str(tmp_path / pathlib.Path(source["path"]).name)
                    rep = harness.run_experiment(harness.ExperimentConfig.from_dict(d))
                    key = workloads.golden_key(slot, ms)
                    assert harness.write_report(rep, "json", None) == reports[key], key

    return run


@pytest.mark.parametrize("path", TINY_GOLDENS, ids=lambda p: p.stem)
def test_perfbench_tiny_goldens_replay(path, replay):
    replay(path, tiny=True)


def test_perfbench_trellis_goldens_replay(replay):
    # the M = 8 trellis slot of cheap_kinds at benchmark size: 512 trials on
    # each master seed of both sets, so the row kernel's bits are pinned as
    # timed
    replay(PERFBENCH / "goldens" / "cheap_kinds.json", tiny=False, slots={"trellis"})


def test_perfbench_trellis_deep_goldens_replay(replay):
    # trellis_deep at benchmark size: M = 24, 2^10 codewords, which
    # shaping.shape_rows searches; 16 trials on each master seed of both sets
    replay(PERFBENCH / "goldens" / "trellis_deep.json", tiny=False)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {name: _report_bytes(name, tmp) for name in sorted(PRECODERS)}
    GOLDENS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
