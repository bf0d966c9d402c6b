"""Tests for experiment configs, the Monte Carlo runner, and reports."""

import dataclasses
import importlib
import json
import math
import os
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from slmprecode import harness, shaping, theory
from slmprecode.errors import ConfigError, ParseError, PrecodingError, ReportIOError


def _base_cfg(**overrides):
    d = {
        "m": 2,
        "channel_source": {"kind": "inline", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "tau": 2.0,
        "precoder": {"kind": "plain"},
        "trials": 512,
        "master_seed": 7,
    }
    d.update(overrides)
    return d


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_roundtrip():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg())
    again = harness.ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    # a built config pickles with its scheme, whose trial is a partial of a module function
    assert pickle.loads(pickle.dumps(cfg)) == cfg


def test_config_requires_all_keys():
    d = _base_cfg()
    del d["tau"]
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict(d)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict(_base_cfg(bogus=1))


def test_config_rejects_non_dict():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict([1, 2, 3])


def test_config_scalar_validation():
    for bad in (
        _base_cfg(m=0),
        _base_cfg(tau=0.0),
        _base_cfg(trials=0),
        _base_cfg(condition_limit=0.5),
        _base_cfg(tau=1e-200),  # the source power underflows to 0
    ):
        with pytest.raises(ConfigError):
            harness.ExperimentConfig.from_dict(bad)


def test_config_channel_source_validation():
    for src in (
        {"kind": "nope"},
        {"kind": "file"},
        {"kind": "random"},
        {"kind": "inline"},
        {"kind": "file", "path": 0},  # a file descriptor, not a path
        {"kind": ["random"], "seed": 1},
        {"kind": "random", "seed": 1, "path": "h.csv"},
    ):
        with pytest.raises(ConfigError):
            harness.ExperimentConfig.from_dict(_base_cfg(channel_source=src))


def test_config_precoder_validation():
    cases = [
        _base_cfg(precoder={"kind": "nope"}),
        _base_cfg(precoder={"kind": "slm_random"}),  # missing n
        _base_cfg(precoder={"kind": "slm_random", "n": 4, "region": {"kind": "oval"}}),
        _base_cfg(precoder={"kind": "slm_random", "n": 4, "region": {"kind": "ball"}}),
        _base_cfg(precoder={"kind": "slm_random", "n": 4,
                            "region": {"kind": "ball", "radius": 1e-200}}),  # volume 0
        _base_cfg(precoder={"kind": "vector_perturb"}),  # missing b
        _base_cfg(precoder={"kind": "trellis", "pam": 3}),
        _base_cfg(m=5, precoder={"kind": "trellis"}),  # 5 not divisible by n_s=2
        _base_cfg(m=4, precoder={"kind": "nested", "k": 3, "q": 2}),  # 3*2 != 4
        _base_cfg(precoder={"kind": "nested", "k": 0, "q": 2}),
        _base_cfg(precoder={"kind": "nested", "k": 1, "q": 1}),  # sends zero: 0/0 gain
        _base_cfg(precoder={"kind": "plain", "b": 3}),
        _base_cfg(precoder={"kind": {"x": 1}}),
        _base_cfg(precoder={"kind": "slm_random", "n": 4,
                            "region": {"kind": "hypercube", "expand": "no"}}),
        _base_cfg(precoder={"kind": "slm_random", "n": 4,
                            "region": {"kind": "ball", "radius": 1.0, "expand": True}}),
        _base_cfg(precoder={"kind": "trellis", "pam": 0}),
    ]
    for bad in cases:
        with pytest.raises(ConfigError):
            harness.ExperimentConfig.from_dict(bad)


def test_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_base_cfg()))
    cfg = harness.load_config(str(p))
    assert cfg.m == 2
    assert cfg.precoder == {"kind": "plain"}


def test_load_config_missing_file():
    with pytest.raises(ReportIOError):
        harness.load_config("/no/such/config.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not valid json")
    with pytest.raises(ParseError):
        harness.load_config(str(p))
    # an integer literal beyond Python's int-from-string digit limit
    p.write_text('{"m": 1' + "0" * 5000 + "}")
    with pytest.raises(ParseError):
        harness.load_config(str(p))
    # not UTF-8, and nested beyond the JSON decoder's recursion limit
    for raw in (b"\xff" + json.dumps(_base_cfg()).encode(), b"[" * 200000):
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            harness.load_config(str(p))


# ---------------------------------------------------------------------------
# channel loading
# ---------------------------------------------------------------------------


def test_load_channel_inline():
    ch = harness.load_channel({"kind": "inline", "matrix": [[2.0, 0.0], [0.0, 1.0]]}, 2)
    assert ch.m == 2
    assert np.allclose(ch.h, [[2.0, 0.0], [0.0, 1.0]])


def test_load_channel_file(tmp_path):
    p = tmp_path / "chan.csv"
    p.write_text("1.0, 0.0\n0.0, 1.0\n")
    ch = harness.load_channel({"kind": "file", "path": str(p)}, 2)
    assert np.array_equal(ch.h, np.eye(2))


def test_load_channel_file_parse_errors(tmp_path):
    cases = {
        "nonnum.csv": b"1.0, x\n0.0, 1.0\n",
        "ragged.csv": b"1.0, 0.0\n0.0\n",
        "nonsquare.csv": b"1.0, 0.0\n",
        "empty.csv": b"\n\n",
        "nan.csv": b"nan, 0.0\n0.0, 1.0\n",
        "not_utf8.csv": b"\xff\xfe1,0\n0,1\n",
    }
    for name, raw in cases.items():
        p = tmp_path / name
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            harness.load_channel({"kind": "file", "path": str(p)}, 2)


def test_load_channel_missing_file():
    with pytest.raises(ReportIOError):
        harness.load_channel({"kind": "file", "path": "/no/such/chan.csv"}, 2)


def test_load_channel_random_reproducible():
    a = harness.load_channel({"kind": "random", "seed": 42}, 4)
    b = harness.load_channel({"kind": "random", "seed": 42}, 4)
    assert np.array_equal(a.h, b.h)
    c = harness.load_channel({"kind": "random", "seed": 43}, 4)
    assert not np.array_equal(a.h, c.h)


def test_load_channel_dimension_mismatch():
    with pytest.raises(ConfigError):
        harness.load_channel({"kind": "inline", "matrix": [[1.0]]}, 2)


def test_load_channel_checks_the_source_schema():
    # the same check as building an ExperimentConfig: a missing key or a source
    # that is not an object is a ConfigError, not a KeyError or AttributeError
    for source in ({"kind": "file"}, {"kind": "random"}, {"kind": "inline"},
                   {"kind": "qr"}, [["file", "c.csv"]], "random"):
        with pytest.raises(ConfigError):
            harness.load_channel(source, 2)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_run_experiment_zero_mean_is_an_error():
    # with one trial, master seed 3 gives the nested user the all-zero coset
    # representative, so both energies are 0 and the gain in dB is undefined
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(trials=1, master_seed=3, precoder={"kind": "nested", "k": 1, "q": 2})
    )
    with pytest.raises(PrecodingError):
        harness.run_experiment(cfg)


def test_run_experiment_plain_identity():
    # identity channel: gamma = ||u||^2, E = M tau^2 / 12 = 2/3
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=4096))
    rep = harness.run_experiment(cfg)
    want = 2 * 2.0**2 / 12
    assert abs(rep.mean_gamma - want) <= 4 * rep.stderr_gamma
    assert rep.mean_plain == rep.mean_gamma
    assert rep.gain_vs_plain_db == 0.0
    assert rep.precoder == "plain"
    assert rep.n_candidates == 1
    assert rep.trials == 4096


def test_run_experiment_deterministic_rerun():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=300))
    a = harness.run_experiment(cfg)
    b = harness.run_experiment(cfg)
    assert a.mean_gamma == b.mean_gamma
    assert a.stderr_gamma == b.stderr_gamma


def test_run_experiment_workers_byte_identical():
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(trials=600, precoder={"kind": "vector_perturb", "b": 3})
    )
    seq = harness.run_experiment(cfg, workers=1)
    par = harness.run_experiment(cfg, workers=3)
    assert harness.write_report(seq, "json", None) == harness.write_report(par, "json", None)
    assert seq.mean_gamma == par.mean_gamma
    assert seq.stderr_gamma == par.stderr_gamma


def test_run_experiment_loads_channel_once(monkeypatch):
    calls = []
    real = harness.load_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "load_channel", counting)
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=600))
    harness.run_experiment(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("trials", [256, 1024])
def test_run_experiment_builds_scheme_once_per_report(monkeypatch, trials):
    # a serial report builds its snapshot of the config, and with it the
    # scheme, once; every chunk reads that scheme
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=trials))
    calls = []
    real = harness._scheme

    def counting(c):
        calls.append(1)
        return real(c)

    monkeypatch.setattr(harness, "_scheme", counting)
    harness.run_experiment(cfg)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "m,precoder",
    [(2, {"kind": "plain"}), (2, {"kind": "slm_random", "n": 4}),
     (2, {"kind": "vector_perturb", "b": 3}), (4, {"kind": "trellis"}),
     (4, {"kind": "nested", "k": 2, "n_u": 1, "q": 2})],
    ids=["plain", "slm_random", "vector_perturb", "trellis", "nested"],
)
def test_pooled_report_builds_scheme_once_in_parent(monkeypatch, m, precoder):
    # pool workers run the trial the parent built; the patched _scheme is
    # inherited by forked workers, so a build in one raises there
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    parent = os.getpid()
    pids = []
    real = harness._scheme

    def recording(c):
        assert os.getpid() == parent, "a pool worker built the scheme"
        pids.append(os.getpid())
        return real(c)

    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=m, channel_source={"kind": "random", "seed": 7}, trials=1024,
                  precoder=precoder)
    )
    monkeypatch.setattr(harness, "_scheme", recording)
    reports = []
    for workers in (1, 2):
        reports.append(harness.write_report(harness.run_experiment(cfg, workers), "json", None))
        assert pids == [parent]
        pids.clear()
    assert reports[0] == reports[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_report_runs_the_config_it_checks(monkeypatch, workers):
    # a precoder dict changed after the config was built: the N column and
    # the trials both follow the change, at any worker count
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    d = _base_cfg(m=4, channel_source={"kind": "random", "seed": 7}, trials=600,
                  precoder={"kind": "slm_random", "n": 4})
    cfg = harness.ExperimentConfig.from_dict(d)
    cfg.precoder["n"] = 64
    rep = harness.run_experiment(cfg, workers=workers)
    d["precoder"] = {"kind": "slm_random", "n": 64}
    fresh = harness.run_experiment(harness.ExperimentConfig.from_dict(d))
    assert rep.n_candidates == fresh.n_candidates == 64
    assert rep.mean_gamma == fresh.mean_gamma


def test_replace_checks_the_config():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg())
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, trials=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, precoder={"kind": "slm_random", "n": 0})


@pytest.mark.parametrize(
    "precoder",
    [{"kind": "vector_perturb", "b": 3}, {"kind": "trellis", "generators": "7,5", "pam": 4},
     {"kind": "slm_random", "n": 16}, {"kind": "nested", "k": 2, "n_u": 1, "q": 2}],
    ids=["vector_perturb", "trellis", "slm_random", "nested"],
)
def test_report_scales_exactly_with_tau(precoder):
    # scaling tau by 2^e scales every energy by 2^(2e) exactly; the squares
    # of energies near 2^(+-520) leave the float range unless the sums are
    # taken at the scale of e_opt
    def report(tau):
        d = _base_cfg(m=4, channel_source={"kind": "random", "seed": 3}, tau=tau,
                      trials=300, precoder=precoder)
        return harness.run_experiment(harness.ExperimentConfig.from_dict(d))

    base = report(2.0)
    assert base.stderr_gamma > 0.0
    for e in (260, -260):
        rep = report(math.ldexp(2.0, e))
        assert rep.mean_gamma == math.ldexp(base.mean_gamma, 2 * e)
        assert rep.stderr_gamma == math.ldexp(base.stderr_gamma, 2 * e)
        assert rep.mean_plain == math.ldexp(base.mean_plain, 2 * e)
        assert rep.gain_vs_plain_db == base.gain_vs_plain_db


def test_run_experiment_energy_overflow_is_an_error():
    # tau^2 fits a float, but the inverse of a channel of gain 1e-3 scales
    # every energy by 1e6 past the float range
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(channel_source={"kind": "inline", "matrix": [[1e-3, 0.0], [0.0, 1e-3]]},
                  tau=1e154, trials=4)
    )
    # numpy's overflow warning is not raised: filterwarnings = error would fail the test
    with pytest.raises(PrecodingError):
        harness.run_experiment(cfg)


def test_benchmark_trace_hooks_install(monkeypatch):
    # the benchmark's traced run wraps every (owner, attr) in its TARGETS
    # list; renaming or removing one in the package must fail these tests,
    # not only the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=4, channel_source={"kind": "random", "seed": 3}, trials=3,
                  precoder={"kind": "nested", "k": 2, "n_u": 1, "q": 2})
    )
    with tracing.installed(tracing.Tracer()) as tr:
        harness.run_experiment(cfg)
    restored = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(restored, originals))
    assert tr.counts["harness.channel_loads"] == 1
    # a nested trial's 2^4 candidates are counted once, not again by the
    # vector perturbation search it runs on
    assert tr.counts["candidates"] == 3 * 16
    # perfbench's shaping.leaves_per_trial reads these two counters
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=8, channel_source={"kind": "random", "seed": 3}, trials=3,
                  precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
    )
    with tracing.installed(tracing.Tracer()) as tr:
        harness.run_experiment(cfg)
    assert tr.counts["codewords"] == 3 * shaping.default_code().codeword_count(4)
    assert tr.counts["rows.shaping.trellis_shape"] >= 3


def test_run_experiment_single_trial():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=1))
    rep = harness.run_experiment(cfg)
    assert rep.stderr_gamma == 0.0
    assert math.isfinite(rep.mean_gamma)


def test_run_experiment_selection_beats_plain():
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(
            m=2,
            trials=512,
            precoder={"kind": "slm_random", "n": 64, "region": {"kind": "hypercube", "expand": True}},
        )
    )
    rep = harness.run_experiment(cfg)
    assert rep.mean_gamma < rep.mean_plain
    assert rep.gain_vs_plain_db == pytest.approx(
        10 * math.log10(rep.mean_plain / rep.mean_gamma), rel=1e-12
    )
    assert rep.gain_vs_plain_db > 0
    assert rep.n_candidates == 64


def test_run_experiment_gain_spot_check():
    # a report whose selection exactly halves the energy shows 3.0103 dB
    assert 10 * math.log10(2.0) == pytest.approx(3.0103, abs=1e-4)


def test_run_experiment_reference_ratio():
    # e_slm_limit / e_opt is the closed-form Gamma(1 + 2/M) for every report
    for m, pre in [
        (2, {"kind": "plain"}),
        (4, {"kind": "vector_perturb", "b": 2}),
        (4, {"kind": "nested", "k": 2, "n_u": 1, "q": 2}),
    ]:
        cfg = harness.ExperimentConfig.from_dict(
            _base_cfg(
                m=m,
                channel_source={"kind": "random", "seed": 5},
                trials=16,
                precoder=pre,
            )
        )
        rep = harness.run_experiment(cfg)
        assert rep.e_slm_limit / rep.e_opt == pytest.approx(
            math.gamma(1 + 2 / m), rel=1e-12
        )
        assert rep.channel_gain_db >= -1e-12


def test_run_experiment_trellis_smoke():
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(
            m=8,
            channel_source={"kind": "random", "seed": 3},
            trials=64,
            precoder={"kind": "trellis", "generators": "7,5", "pam": 4},
        )
    )
    rep = harness.run_experiment(cfg)
    # selection can only reduce energy relative to the zero-codeword coset
    assert rep.mean_gamma <= rep.mean_plain * (1 + 1e-12)
    assert rep.n_candidates == 4  # 4 trellis steps, 2 free inputs
    assert rep.precoder == "trellis"


def test_trellis_trial_maps_payload_once(monkeypatch):
    # the trial maps its payload to the zero-codeword point once and hands
    # that vector to the search, which does not map it again
    calls = []
    real = shaping.payload_to_coset

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(shaping, "payload_to_coset", counting)
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=8, channel_source={"kind": "random", "seed": 3}, trials=5,
                  precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
    )
    harness.run_experiment(cfg)
    assert len(calls) == 5


def test_run_experiment_nested_smoke():
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(
            m=4,
            channel_source={"kind": "random", "seed": 3},
            trials=64,
            precoder={"kind": "nested", "k": 2, "n_u": 1, "q": 2},
        )
    )
    rep = harness.run_experiment(cfg)
    assert rep.mean_gamma <= rep.mean_plain * (1 + 1e-12)
    assert rep.n_candidates == 16


def test_nested_validation_builds_no_coset_table():
    # q^m = 2^20 is within the budget; validating the config must not
    # build the partition's 2^20-row coset table
    d = _base_cfg(m=20, channel_source={"kind": "random", "seed": 3},
                  precoder={"kind": "nested", "k": 1, "n_u": 10, "q": 2})
    tracemalloc.start()
    try:
        harness.ExperimentConfig.from_dict(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_information_sigma2():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(tau=4.0))
    # uniform interval of length 4: 2 bits/dim -> 16 / (2 pi e)
    assert harness.information_sigma2(cfg) == pytest.approx(
        16.0 / (2 * math.pi * math.e), rel=1e-12
    )
    cfg_ball = harness.ExperimentConfig.from_dict(
        _base_cfg(
            precoder={"kind": "slm_random", "n": 4, "region": {"kind": "ball", "radius": 1.0}}
        )
    )
    # unit disk: entropy (1/2) log2 pi per dim -> sigma2 = 1 / (2 e)
    assert harness.information_sigma2(cfg_ball) == pytest.approx(
        1.0 / (2 * math.e), rel=1e-12
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_monotone_in_candidates():
    # fixed region: more candidates can only help
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(
            trials=512,
            precoder={"kind": "slm_random", "n": 4, "region": {"kind": "hypercube", "expand": False}},
        )
    )
    reports = harness.sweep_experiment(cfg, "n", [4, 16, 64])
    assert [r.n_candidates for r in reports] == [4, 16, 64]
    for lo, hi in zip(reports[1:], reports[:-1]):
        pooled = math.hypot(lo.stderr_gamma, hi.stderr_gamma)
        assert lo.mean_gamma <= hi.mean_gamma + 2 * pooled


def test_sweep_uses_one_pool(monkeypatch):
    built = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(trials=600, precoder={"kind": "slm_random", "n": 4})
    )
    serial = harness.write_report(harness.sweep_experiment(cfg, "n", [4, 16, 64]), "csv", None)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    pooled = harness.sweep_experiment(cfg, "n", [4, 16, 64], workers=2)
    assert len(built) == 1
    assert harness.write_report(pooled, "csv", None) == serial


def test_sweep_of_a_deeply_nested_matrix_is_a_parse_error():
    # a sweep point is the config with its precoder changed, not a copy of
    # the whole config, so a matrix nested 900 deep reaches load_channel
    deep = 1.0
    for _ in range(900):
        deep = [deep]
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(channel_source={"kind": "inline", "matrix": deep},
                  precoder={"kind": "slm_random", "n": 4})
    )
    with pytest.raises(ParseError):
        harness.sweep_experiment(cfg, "n", [2, 3])


def test_pool_sized_by_chunks_and_cpus(monkeypatch):
    # a fake executor records the process count asked for and maps in this
    # process, so no real pool with a large count is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=600))  # 3 chunks
    serial = harness.write_report(harness.run_experiment(cfg), "csv", None)
    for cpus, expected in ((64, [3]), (2, [2]), (1, [])):
        sizes.clear()
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        rep = harness.run_experiment(cfg, workers=10**6)
        assert sizes == expected
        assert harness.write_report(rep, "csv", None) == serial
    # sweep points of one chunk each cannot run in parallel: no pool
    sizes.clear()
    small = harness.ExperimentConfig.from_dict(
        _base_cfg(trials=200, precoder={"kind": "slm_random", "n": 4})
    )
    harness.sweep_experiment(small, "n", [4, 16], workers=8)
    assert sizes == []


def test_sweep_param_validation():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg())
    with pytest.raises(ConfigError):
        harness.sweep_experiment(cfg, "tau", [1, 2])
    # vector_perturb takes no n, so the sweep must not rerun one point
    vp = harness.ExperimentConfig.from_dict(_base_cfg(precoder={"kind": "vector_perturb", "b": 3}))
    with pytest.raises(ConfigError):
        harness.sweep_experiment(vp, "n", [4, 16])


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_csv_header_pinned():
    assert harness.CSV_HEADER == (
        "precoder,M,N,trials,mean_gamma,stderr_gamma,e_opt,e_slm_limit,"
        "channel_gain_db,gain_vs_plain_db,seed"
    )


def test_format_csv_shape():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=8))
    rep = harness.run_experiment(cfg)
    text = harness.format_csv([rep])
    lines = text.strip().split("\n")
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 11
    assert cells[0] == "plain"
    assert int(cells[1]) == 2
    assert float(cells[4]) == rep.mean_gamma  # repr round-trips exactly
    assert int(cells[10]) == 7


def test_format_json_roundtrip():
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=8))
    rep = harness.run_experiment(cfg)
    obj = json.loads(harness.format_json(rep))
    assert obj["precoder"] == "plain"
    assert obj["M"] == 2
    assert obj["mean_gamma"] == rep.mean_gamma
    assert obj["eigenvalues"] == [1.0, 1.0]
    # a sequence (sweep output) is an array, whatever its length
    for count in (1, 2):
        objs = json.loads(harness.format_json([rep] * count))
        assert objs == [obj] * count


def test_write_report_to_file(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=8))
    rep = harness.run_experiment(cfg)
    p = tmp_path / "out.csv"
    text = harness.write_report(rep, "csv", str(p))
    assert p.read_text() == text
    with pytest.raises(ConfigError):
        harness.write_report(rep, "xml", None)


def test_write_report_io_error(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=8))
    rep = harness.run_experiment(cfg)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(ReportIOError):
        harness.write_report(rep, "csv", str(blocker / "out.csv"))
    with pytest.raises(ReportIOError):
        harness.write_report(rep, "csv", "a\0b")


def test_report_excludes_runtime():
    # serialized reports must not depend on wall-clock runtime
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(trials=8))
    a = harness.run_experiment(cfg)
    b = harness.run_experiment(cfg)
    assert harness.write_report(a, "csv", None) == harness.write_report(b, "csv", None)
    assert harness.write_report(a, "json", None) == harness.write_report(b, "json", None)


def test_theory_report_matches_run_references():
    h = [[1.0, 0.2], [0.1, 0.9]]
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(channel_source={"kind": "inline", "matrix": h}, trials=8)
    )
    rep = harness.run_experiment(cfg)
    ch = theory.build_channel(np.array(h))
    sigma2 = harness.information_sigma2(cfg)
    assert rep.e_opt == pytest.approx(theory.e_opt(ch, sigma2), rel=1e-12)
    assert rep.e_slm_limit == pytest.approx(theory.e_slm(ch, sigma2), rel=1e-12)
    assert rep.channel_gain_db == pytest.approx(
        10 * math.log10(theory.channel_gain(ch.eigenvalues)), rel=1e-12
    )
