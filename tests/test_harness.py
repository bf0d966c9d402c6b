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

from slmprecode import harness, regions, shaping, theory
from slmprecode.errors import ConfigError, ParseError, PrecodingError, ReportIOError

from oracles import exhaustive_shape, precoder_trial


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


def _build(how, **changes):
    """A config built from a valid one with fields changed, by the constructor or replace."""
    cfg = harness.ExperimentConfig.from_dict(_base_cfg())
    if how == "replace":
        return dataclasses.replace(cfg, **changes)
    return harness.ExperimentConfig(**{**cfg.to_dict(), **changes})


_HOW = pytest.mark.parametrize("how", ["constructor", "replace"])


@_HOW
@pytest.mark.parametrize(
    "field,value",
    [("master_seed", 1.5), ("master_seed", True), ("trials", True), ("tau", True),
     ("tau", "2"), ("tau", math.inf), ("condition_limit", "x"), ("precoder", [1])],
    ids=["fractional_seed", "boolean_seed", "boolean_trials", "boolean_tau", "string_tau",
         "infinite_tau", "string_condition_limit", "list_precoder"],
)
def test_every_build_checks_the_fields(how, field, value):
    # from_dict refuses each of these; so must the other two ways to build a config
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        _build(how, **{field: value})


@_HOW
def test_every_build_parses_the_fields(how):
    cfg = _build(how, m=2.0, trials=2.0)
    assert type(cfg.m) is int and cfg.m == 2
    assert type(cfg.trials) is int and cfg.trials == 2
    precoder = {"kind": "vector_perturb", "b": 2}
    source = {"kind": "random", "seed": 3}
    cfg = _build(how, precoder=precoder, channel_source=source)
    # the config holds copies: changing the caller's dicts cannot change it
    assert cfg.precoder == precoder and cfg.precoder is not precoder
    assert cfg.channel_source == source and cfg.channel_source is not source


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
    precoders_by_kind = {
        "plain": {"kind": "plain"},
        "slm_random": {"kind": "slm_random", "n": 4},
        "vector_perturb": {"kind": "vector_perturb", "b": 2},
        "trellis": {"kind": "trellis", "generators": "7,5", "pam": 4},
        "nested": {"kind": "nested", "k": 4, "n_u": 1, "q": 2},
    }
    counts = {}
    runs = [(kind, 8, precoder) for kind, precoder in precoders_by_kind.items()]
    # M = 24, as in the benchmark's trellis_deep: 2^10 codewords, one search per trial
    runs.append(("trellis_search", 24, precoders_by_kind["trellis"]))
    for kind, m, precoder in runs:
        cfg = harness.ExperimentConfig.from_dict(
            _base_cfg(m=m, channel_source={"kind": "random", "seed": 3}, trials=3,
                      precoder=precoder)
        )
        with tracing.installed(tracing.Tracer()) as tr:
            harness.run_experiment(cfg)
        restored = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
        assert all(a is b for a, b in zip(restored, originals))
        counts[kind] = tr.counts
    # perfbench's per-report layer metrics index these two counters: one
    # channel load and one checked snapshot per report, whatever the kind
    for kind, count in counts.items():
        assert count["harness.channel_loads"] == 1, kind
        assert count["harness.config_validations"] == 1, kind
    # a nested trial's 2^8 candidate rows reach ChannelMatrix.energies once,
    # in the energies call of its group of trials; the harness calls no
    # traced span around it, so they count under "rows.", next to one
    # ChannelMatrix.energy row per trial for the gamma with no selection
    assert counts["nested"]["rows."] == 3 * 2**8 + 3
    # the M = 8 trellis trials' 4 codewords each reach ChannelMatrix.energies
    # in one call for the group, outside any traced span, next to the plain
    # energy of each trial; no near set holds two leaves, so none is rescored
    assert counts["trellis"]["rows."] == 3 * 4 + 3
    assert "codewords" not in counts["trellis"]
    # perfbench's shaping.leaves_per_trial reads these two counters, which a
    # code tree too large for the row kernel still sets through trellis_shape
    search = counts["trellis_search"]
    assert search["codewords"] == 3 * shaping.default_code().codeword_count(12)
    assert search["rows.shaping.trellis_shape"] >= 3


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
    # each trial's payload is mapped to its zero-codeword point once, by the
    # PAM map behind payload_to_coset run on its group of trials, and the
    # row kernel that shapes the group does not map it again
    rows = []
    real = shaping._pam_map

    def counting(bits, cons):
        out = real(bits, cons)
        rows.append(len(out))
        return out

    monkeypatch.setattr(shaping, "_pam_map", counting)
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=8, channel_source={"kind": "random", "seed": 3}, trials=5,
                  precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
    )
    harness.run_experiment(cfg)
    assert rows == [5]


def test_trellis_group_stays_within_group_rows(monkeypatch):
    # at M = 20 (7,5) has 2^8 codewords, so a group is 16 trials whose
    # candidates fill one _GROUP_ROWS energies call; 40 trials are 16 + 16 + 8
    calls = []
    real = theory.ChannelMatrix.energies

    def counting(self, u_rows):
        calls.append(len(u_rows))
        return real(self, u_rows)

    monkeypatch.setattr(theory.ChannelMatrix, "energies", counting)
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=20, channel_source={"kind": "random", "seed": 3}, trials=40,
                  precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
    )
    harness.run_experiment(cfg)
    assert harness._GROUP_ROWS == 16 * 2**8
    assert calls == [16 * 2**8, 16 * 2**8, 8 * 2**8]


def _chunk_cases():
    # (m, precoder, trials, group rows): every kind that runs a group of
    # trials at once, on trial ranges that start past 0 and, where a group
    # holds fewer trials than the range, cross group boundaries
    cases = [(m, {"kind": "plain"}, range(5, 300)) for m in (1, 3, 4, 8)]
    for m in (1, 3, 4, 8):
        for b in (1, 2, 3):
            # groups of 4096 // b^m trials: 50 at b = 3, m = 4; b = 3, m = 8 runs alone
            cases.append((m, {"kind": "vector_perturb", "b": b}, range(250, 370)))
    for m, k, n_u in ((4, 2, 1), (8, 2, 2), (8, 4, 1)):
        for q in (2, 3):
            cases.append((m, {"kind": "nested", "k": k, "n_u": n_u, "q": q}, range(3, 130)))
    # trellis: whole code trees of 2^2 to 2^8 codewords (M = 20) go through
    # the row kernel a group of trials at a time, 2^9 (M = 22) through one
    # search per trial
    for m, gens in ((4, "7,5"), (8, "7,5"), (16, "7,5"), (20, "7,5"), (22, "7,5"),
                    (9, "7,7,5"), (12, "17,15"), (8, "0,0"), (8, "1,1")):
        cases.append((m, {"kind": "trellis", "generators": gens, "k_s": 1, "pam": 4},
                      range(7, 60)))
    cases = [(m, precoder, trials, harness._GROUP_ROWS, None) for m, precoder, trials in cases]
    # with groups of up to 4 energy blocks, one group of 2731 trials of 3
    # candidates: 8193 rows, so energies folds a 1-row tail into its last block
    cases.append((1, {"kind": "vector_perturb", "b": 3}, range(2731), 4 * theory.ENERGY_BLOCK,
                  None))
    trellis = {"kind": "trellis", "generators": "7,5", "k_s": 1, "pam": 4}
    # H = I: every leaf ties, so every trial rescores its whole near set
    cases.append((8, trellis, range(7, 60), harness._GROUP_ROWS, "identity"))
    # groups of 16 rows: 4 trials of 4 codewords, so a chunk is many groups
    cases.append((8, trellis, range(7, 60), 16, None))
    return [
        pytest.param(m, precoder, trials, rows, channel, id="-".join(
            [f"m{m}", *(str(v) for v in precoder.values()), f"{len(trials)}trials-{rows}rows",
             *([channel] if channel else [])]))
        for m, precoder, trials, rows, channel in cases
    ]


@pytest.mark.parametrize("m,precoder,trials,group_rows,channel", _chunk_cases())
def test_chunk_matches_per_trial_oracle(m, precoder, trials, group_rows, channel, monkeypatch):
    # a chunk's (gamma, plain gamma) of each trial equals, bit for bit, what
    # the public precoders give on that trial's re-keyed stream
    monkeypatch.setattr(harness, "_GROUP_ROWS", group_rows)
    tau = 3.0
    source = {"kind": "random", "seed": 20 + m}
    if channel == "identity":
        source = {"kind": "inline", "matrix": np.eye(m).tolist()}
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=m, channel_source=source, tau=tau, precoder=precoder, trials=len(trials))
    )
    ch = harness.load_channel(cfg.channel_source, m)
    trial = cfg._built_scheme[2]
    got = list(trial(ch, regions.Streams(cfg.master_seed), trials))
    streams = regions.Streams(cfg.master_seed)
    want = [precoder_trial(precoder, ch, tau, streams.at(t)) for t in trials]
    assert got == want
    if precoder["kind"] != "trellis":
        return
    code = shaping.code_from_octal(precoder["generators"])
    if code.codeword_count(m // code.n_s) > shaping._BATCH:
        return
    # precoder_trial's trellis_shape runs the same row kernel as the chunk:
    # a whole tree's gammas are also checked against a scan that shares no
    # code with shaping
    cons = shaping.pam_constellation(4, spacing=tau / 4)
    for t, (gamma, _) in zip(trials, got):
        payload = streams.at(t).integers(0, 2, size=m * cons.bits_per_symbol)
        u0 = shaping.payload_to_coset(payload, cons)
        assert gamma == exhaustive_shape(ch, u0, code).gamma, t


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
    # build anything with 2^20 rows
    d = _base_cfg(m=20, channel_source={"kind": "random", "seed": 3},
                  precoder={"kind": "nested", "k": 1, "n_u": 10, "q": 2})
    tracemalloc.start()
    try:
        harness.ExperimentConfig.from_dict(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_nested_report_memory_at_budget_corner():
    # one trial at q^m = 2^20 holds the 160 MiB offset grid and the 160 MiB
    # candidates, and nothing else of that size
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=20, channel_source={"kind": "random", "seed": 3}, trials=1,
                  precoder={"kind": "nested", "k": 1, "n_u": 10, "q": 2})
    )
    tracemalloc.start()
    try:
        rep = harness.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_candidates == 2**20
    assert peak < 400 * 2**20


def test_vector_perturb_report_frees_its_offset_grid():
    # a chunk builds its scaled offset grid, 2^16 rows of 16 (8 MiB) here,
    # and frees it when the chunk ends: nothing of that size outlives the report
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=16, channel_source={"kind": "random", "seed": 3}, trials=1,
                  precoder={"kind": "vector_perturb", "b": 2})
    )
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = harness.run_experiment(cfg)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert rep.n_candidates == 2**16
    assert held < 1 << 20


@pytest.mark.parametrize(
    "overrides,field",
    [({"tau": 10**400}, "tau"),
     ({"condition_limit": 10**400}, "condition_limit"),
     ({"precoder": {"kind": "slm_random", "n": 4,
                    "region": {"kind": "ball", "radius": 10**400}}}, "region.radius")],
    ids=["tau", "condition_limit", "radius"],
)
def test_config_integer_beyond_float_range(overrides, field):
    with pytest.raises(ConfigError, match=f"^{field} must be a finite number"):
        harness.ExperimentConfig.from_dict(_base_cfg(**overrides))


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


@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "boolean"])
def test_sweep_refuses_a_value_it_would_truncate(monkeypatch, value):
    # each swept value reaches the config check as given, so a value that is
    # not an integer is refused, before any point runs, and not run as int(v)
    def no_run(*args):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(harness, "_run", no_run)
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(precoder={"kind": "slm_random", "n": 4}))
    with pytest.raises(ConfigError, match=f"^precoder.n must be an integer, got {value}$"):
        harness.sweep_experiment(cfg, "n", [4, value])


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
