"""Tests for experiment configs, the Monte Carlo runner, and reports."""

import dataclasses
import functools
import importlib
import itertools
import json
import math
import os
import pickle
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from slmprecode import harness, regions, shaping, theory
from slmprecode.errors import (
    ConfigError,
    IllConditionedError,
    ParseError,
    PrecodingError,
    ReportIOError,
    SingularMatrixError,
)

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
    # an ndarray or tuple inline matrix compares, and its config dumps to JSON
    for matrix in (np.eye(2), ((1.0, 0.0), (0.0, 1.0))):
        cfg = harness.ExperimentConfig.from_dict(
            _base_cfg(channel_source={"kind": "inline", "matrix": matrix}))
        assert harness.ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        dumped = json.loads(json.dumps(cfg.to_dict()))
        assert dumped["channel_source"]["matrix"] == np.eye(2).tolist()


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
    # an inline matrix is checked when the config is built: a boolean entry
    # is refused whatever numpy would cast the array to
    for matrix in (
        [[np.True_, 0.5], [0, 1]],  # float64
        [[np.True_, 2], [0, 1]],  # int64
        [np.array([True, False]), [0.5, 1.0]],  # a row of numpy booleans
        np.eye(2, dtype=bool),
        [[True, 0.5], [0, 1]],
        [["1", "0"], ["0", "1"]],
        [[1.0, 0.0], [0.0]],  # ragged
    ):
        src = {"kind": "inline", "matrix": matrix}
        with pytest.raises(ParseError, match="matrix of numbers"):
            harness.ExperimentConfig.from_dict(_base_cfg(channel_source=src))
        with pytest.raises(ParseError, match="matrix of numbers"):
            harness.load_channel(src, 2)
    for matrix in ([[1, 0.5], [0, 1]], np.eye(2), np.eye(2, dtype=np.int32)):
        harness.ExperimentConfig.from_dict(
            _base_cfg(channel_source={"kind": "inline", "matrix": matrix}))
    # a 2-D memoryview, which numpy reads as float64, is the matrix it views
    reports = [harness.run_experiment(harness.ExperimentConfig.from_dict(
        _base_cfg(channel_source={"kind": "inline", "matrix": matrix}, trials=8)))
        for matrix in (memoryview(np.eye(2)), np.eye(2))]
    assert harness.write_report(reports[0], "json", None) == harness.write_report(
        reports[1], "json", None)


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
    cfg = harness.ExperimentConfig.from_dict(harness.read_config(str(p)))
    assert cfg.m == 2
    assert cfg.precoder == {"kind": "plain"}


def test_load_config_missing_file():
    with pytest.raises(ReportIOError):
        harness.ExperimentConfig.from_dict(harness.read_config("/no/such/config.json"))


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not valid json")
    with pytest.raises(ParseError):
        harness.ExperimentConfig.from_dict(harness.read_config(str(p)))
    # an integer literal beyond Python's int-from-string digit limit
    p.write_text('{"m": 1' + "0" * 5000 + "}")
    with pytest.raises(ParseError):
        harness.ExperimentConfig.from_dict(harness.read_config(str(p)))
    # not UTF-8, and nested beyond the JSON decoder's recursion limit
    for raw in (b"\xff" + json.dumps(_base_cfg()).encode(), b"[" * 200000):
        p.write_bytes(raw)
        with pytest.raises(ParseError):
            harness.ExperimentConfig.from_dict(harness.read_config(str(p)))


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


def _counting_builds(monkeypatch):
    """What each theory.build_channel call from now on returns (None if it raised)."""
    built = []
    real = theory.build_channel

    def counting(*args, **kwargs):
        built.append(None)
        built[-1] = real(*args, **kwargs)
        return built[-1]

    monkeypatch.setattr(theory, "build_channel", counting)
    return built


def test_sweep_builds_its_channel_once(monkeypatch):
    built = _counting_builds(monkeypatch)
    seen = []
    real_report = theory.theory_report
    monkeypatch.setattr(theory, "theory_report",
                        lambda ch, sigma2: seen.append(ch) or real_report(ch, sigma2))
    cfg = _base_cfg(m=4, channel_source={"kind": "random", "seed": 5}, trials=8,
                    precoder={"kind": "slm_random", "n": 2})
    harness.sweep_experiment(cfg, "n", [2, 4, 8])
    assert len(built) == 1 and len(seen) == 3
    assert all(ch is built[0] for ch in seen)
    # a config built apart, from an equal source dict, reports on that channel too
    harness.run_experiment(harness.ExperimentConfig.from_dict(cfg))
    assert len(built) == 1 and seen[-1] is built[0]


def test_load_channel_keys_on_what_determines_the_matrix(monkeypatch):
    built = _counting_builds(monkeypatch)
    random5 = harness.load_channel({"kind": "random", "seed": 5}, 4)
    assert harness.load_channel({"kind": "random", "seed": 5.0}, 4) is random5
    assert harness.load_channel({"kind": "random", "seed": 5}, 4, 1e9) is not random5
    assert harness.load_channel({"kind": "random", "seed": 5}, 5).m == 5
    inline = harness.load_channel({"kind": "inline", "matrix": [[2, 0], [0, 1]]}, 2)
    assert harness.load_channel({"kind": "inline", "matrix": np.diag([2.0, 1.0])}, 2) is inline
    # the same bytes in another shape are another matrix, refused at m = 2
    with pytest.raises(ConfigError):
        harness.load_channel({"kind": "inline", "matrix": [[2, 0, 0, 1]]}, 2)
    assert len(built) == 4


def test_load_channel_rereads_a_rewritten_file(tmp_path):
    p = tmp_path / "chan.csv"
    p.write_text("1.0, 0.0\n0.0, 1.0\n")
    src = {"kind": "file", "path": str(p)}
    first = harness.load_channel(src, 2)
    assert harness.load_channel(src, 2) is first
    p.write_text("2.0, 0.0\n0.0, 1.0\n")
    assert np.array_equal(harness.load_channel(src, 2).h, np.diag([2.0, 1.0]))
    p.write_text("1.0, 0.0\n0.0, 1.0\n")
    assert harness.load_channel(src, 2) is first
    p.unlink()
    with pytest.raises(ReportIOError):
        harness.load_channel(src, 2)


def test_load_channel_keeps_no_refused_channel(monkeypatch, tmp_path):
    built = _counting_builds(monkeypatch)
    singular = {"kind": "inline", "matrix": [[1.0, 1.0], [1.0, 1.0]]}
    spread_1e10 = {"kind": "inline", "matrix": [[1.0, 0.0], [0.0, 1e-5]]}
    p = tmp_path / "chan.csv"
    p.write_text("1.0, x\n0.0, 1.0\n")
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            harness.load_channel(singular, 2)
        with pytest.raises(IllConditionedError):
            harness.load_channel(spread_1e10, 2)
        with pytest.raises(ParseError):
            harness.load_channel({"kind": "file", "path": str(p)}, 2)
    # a looser limit accepts it; the stricter default, a different key, still refuses
    assert harness.load_channel(spread_1e10, 2, 1e12).condition == pytest.approx(1e10)
    with pytest.raises(IllConditionedError):
        harness.load_channel(spread_1e10, 2)
    assert built[-1] is None and len(built) == 6
    assert harness._kept_channel.cache_info().currsize == 1
    assert harness.load_channel(spread_1e10, 2, 1e12) is built[-2] and len(built) == 6


def test_loaded_channel_is_read_only():
    ch = harness.load_channel({"kind": "random", "seed": 5}, 3)
    for a in (ch.h, ch.h_inv, ch.q, ch.chol, ch.eig.eigenvalues, ch.eig.eigenvectors):
        with pytest.raises(ValueError):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.h = np.eye(3)
    assert np.array_equal(ch.h, regions.channel_stream(5).standard_normal((3, 3)))
    h = np.eye(3)
    theory.build_channel(h)
    h[0, 0] = 2.0  # the caller's array stays its own, and writeable


def test_kept_channels_are_the_two_most_recently_used(monkeypatch):
    built = _counting_builds(monkeypatch)
    assert harness.KEPT_CHANNELS == 2

    def load(seed):
        return harness.load_channel({"kind": "random", "seed": seed}, 4)

    one, two = load(1), load(2)
    assert load(1) is one and len(built) == 2  # a hit: seed 1 is now the most recently used
    load(3)  # a third channel drops the least recently used, seed 2
    assert harness._kept_channel.cache_info().currsize == 2
    assert load(1) is one and len(built) == 3
    again = load(2)  # rebuilt on its next load, which drops seed 3
    assert again is not two and again.h.tobytes() == two.h.tobytes() and len(built) == 4
    assert load(1) is one and len(built) == 4


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
    # plain selects nothing, so every trial's gamma is its energy with no
    # selection, bit for bit, also off the identity channel, where
    # ||H^-1 u||^2 and ||chol^T u||^2 differ in the last bits of most rows
    # (though their sums over a report often agree)
    random3 = {"kind": "random", "seed": 3}
    for m in (4, 8):
        cfg = harness.ExperimentConfig.from_dict(
            _base_cfg(m=m, channel_source=random3, trials=4096))
        rep = harness.run_experiment(cfg)
        assert rep.mean_plain == rep.mean_gamma, m
        assert rep.gain_vs_plain_db == 0.0, m
        ch = harness.load_channel(random3, m)
        trial = cfg._built_scheme[2]
        chosen, unselected = trial(ch, cfg.master_seed, range(512))
        gammas = ch.gamma(chosen)
        plain = gammas if unselected is chosen else ch.energy(unselected)
        assert np.array_equal(gammas, plain), m
        assert not np.array_equal(gammas, ch.energy(chosen)), m
        # each trial's sums, as the chunk makes them (k = 0: not scaled)
        for t in range(64):
            [(g, _, g_plain)] = harness._run_chunk(trial, cfg.master_seed, ch, 0, range(t, t + 1))
            assert g == g_plain, (m, t)


def _ldexp(x, e):
    """math.ldexp, inf where it overflows, as numpy's ldexp gives."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def test_chunk_sums_are_the_trial_order_loop():
    # a task's sums are, chunk by chunk, bit for bit, the loop that adds each
    # of the chunk's trials' gamma / 2^k, its square and plain gamma / 2^k to
    # 0.0 in trial order: tasks of 1 to 3 chunks, the last short or whole, over
    # magnitudes from subnormal to overflow, and an empty task
    size = harness.TRIAL_CHUNK
    rng = np.random.default_rng(11)
    for case in range(300):
        last = size if case % 7 == 0 else int(rng.integers(1, size))
        n = case % 3 * size + last if case else 0
        gammas = rng.exponential(10.0 ** rng.uniform(-320, 300), n)
        plain = rng.exponential(10.0 ** rng.uniform(-320, 300), n)
        if n and case % 5 == 0:
            gammas[rng.integers(n)] = [np.inf, 5e-324, 0.0, 1e308, 2.0**-1022][case // 5 % 5]
        k = int(rng.integers(-60, 1100))
        # the trial's rows only select the energies that the stub channel returns
        ch = types.SimpleNamespace(gamma=lambda _u, g=gammas: g, energy=lambda _u, p=plain: p)
        rows = np.zeros((n, 1)), np.ones((n, 1))
        got = harness._run_chunk(lambda *_args, r=rows: r, 0, ch, k, range(n))
        want = []
        for start in range(0, n, size):
            sums = [0.0, 0.0, 0.0]
            for g, g_plain in zip(gammas[start:start + size].tolist(),
                                  plain[start:start + size].tolist()):
                g = _ldexp(g, -k)
                sums = [sums[0] + g, sums[1] + g * g, sums[2] + _ldexp(g_plain, -k)]
            want.append(sums)
        assert [[x.hex() for x in c] for c in got] == [[x.hex() for x in c] for c in want], case


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


def test_sweep_builds_scheme_once_per_point(monkeypatch):
    # each point's config is built once, before any point runs, and its
    # report runs that config: no second build per point
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(trials=16, precoder={"kind": "slm_random", "n": 4}))
    calls = []
    real = harness._scheme

    def counting(c):
        calls.append(c.precoder["n"])
        return real(c)

    monkeypatch.setattr(harness, "_scheme", counting)
    harness.sweep_experiment(cfg, "n", [2, 4, 8])
    assert calls == [2, 4, 8]


def test_reports_do_not_copy_the_config(monkeypatch):
    # a report and a sweep build their configs from the fields, so to_dict,
    # which copies an inline matrix, is never called
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(trials=16, precoder={"kind": "slm_random", "n": 4}))

    def refuse(self):
        raise AssertionError("to_dict called")

    monkeypatch.setattr(harness.ExperimentConfig, "to_dict", refuse)
    assert harness.run_experiment(cfg).trials == 16
    assert [r.n_candidates for r in harness.sweep_experiment(cfg, "n", [2, 4])] == [2, 4]


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


def _ball_cfg(radius, **overrides):
    return _base_cfg(m=4, channel_source={"kind": "random", "seed": 7}, trials=64,
                     precoder={"kind": "slm_random", "n": 4,
                               "region": {"kind": "ball", "radius": radius}}, **overrides)


def test_configs_built_from_one_template_report_as_fresh_ones():
    # the template's nested region changes between builds; each config keeps
    # the radius it was built with, so its report is a fresh config's
    template = _ball_cfg(None)
    built = {}
    for radius in (0.5, 1.0, 2.0):
        template["precoder"]["region"]["radius"] = radius
        built[radius] = harness.ExperimentConfig.from_dict(template)
    for radius, cfg in built.items():
        rep = harness.run_experiment(cfg)
        fresh = harness.run_experiment(harness.ExperimentConfig.from_dict(_ball_cfg(radius)))
        assert (rep.mean_gamma, rep.e_opt) == (fresh.mean_gamma, fresh.e_opt)
        assert harness.write_report(rep, "json", None) == harness.write_report(fresh, "json", None)


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_editing_the_callers_matrix_leaves_the_report(as_array):
    rows = [[1.0, 0.2], [0.1, 0.9]]
    matrix = np.array(rows) if as_array else [list(r) for r in rows]
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(channel_source={"kind": "inline", "matrix": matrix}, trials=64))
    matrix[0][0] = 2.0
    rep = harness.run_experiment(cfg)
    fresh = harness.run_experiment(harness.ExperimentConfig.from_dict(
        _base_cfg(channel_source={"kind": "inline", "matrix": rows}, trials=64)))
    assert harness.write_report(rep, "json", None) == harness.write_report(fresh, "json", None)


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
    # nor can changing in place what they nest: a region, an inline matrix
    rows = [[1.0, 0.5], [0.0, 1.0]]
    for matrix in ([list(r) for r in rows], tuple(list(r) for r in rows), np.array(rows)):
        region = {"kind": "ball", "radius": 1.0}
        cfg = _build(how, precoder={"kind": "slm_random", "n": 4, "region": region},
                     channel_source={"kind": "inline", "matrix": matrix})
        region["radius"] = 2.0
        matrix[0][0] = 9.0
        assert cfg.precoder["region"] == {"kind": "ball", "radius": 1.0}
        # a list or tuple keeps its type; an ndarray is held as an equal list
        assert cfg.channel_source["matrix"] == (rows if isinstance(matrix, np.ndarray)
                                                else type(matrix)(rows))


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
    # M = 40: 2^18 codewords, more than shape_rows scans, so one search per trial
    runs.append(("trellis_search", 40, precoders_by_kind["trellis"]))
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
    # a sweep builds, so checks, each point once and loads its channel once a point
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=8, channel_source={"kind": "random", "seed": 3}, trials=3,
                  precoder=precoders_by_kind["slm_random"])
    )
    with tracing.installed(tracing.Tracer()) as tr:
        harness.sweep_experiment(cfg, "n", [2, 4])
    assert tr.counts["harness.config_validations"] == 2
    assert tr.counts["harness.channel_loads"] == 2
    # a nested trial's 2^8 candidate rows reach ChannelMatrix.energies once,
    # in the energies call of its group of trials, and its unselected row
    # reaches ChannelMatrix.energy once, in the harness's call for the chunk;
    # the harness calls no traced span around either, so they count under
    # "rows." (the chosen rows' ChannelMatrix.gamma is not traced)
    assert counts["nested"]["rows."] == 3 * 2**8 + 3
    # the M = 8 trellis trials' 4 leaves are scored by the scan's own metric,
    # and no trial keeps two of them, so none reaches ChannelMatrix.energy;
    # each unselected row does, outside any traced span
    assert counts["trellis"]["rows."] == 3
    assert "codewords" not in counts["trellis"]
    # perfbench's shaping.leaves_per_trial reads these two counters, which a
    # code tree too large for the row kernel still sets through trellis_shape
    search = counts["trellis_search"]
    assert search["codewords"] == 3 * shaping.default_code().codeword_count(20)
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
    # a task draws its trials' rows, and maps trellis payloads to their
    # zero-codeword points by the PAM map behind payload_to_coset, once for
    # every trial of the task; the kernel that selects, scanning (M = 8, and
    # M = 24 a trial a group) or searching (M = 40) a code tree or perturbing
    # (101 trials a group at b = 3, M = 4, where a task holds both of a
    # 512-trial report's chunks), splits the rows into groups and does not
    # map them again
    rows = []

    def counting(real):
        def wrapper(*args):
            out = real(*args)
            rows.append(len(out))
            return out
        return wrapper

    monkeypatch.setattr(shaping, "_pam_map", counting(shaping._pam_map))
    monkeypatch.setattr(regions, "draw_rows", counting(regions.draw_rows))
    trellis = {"kind": "trellis", "generators": "7,5", "pam": 4}
    for m, seed, trials, precoder, want in (
        (8, 3, 5, trellis, [5]),
        (24, 23, 16, trellis, [16]),
        (40, 23, 3, trellis, [3]),
        (4, 3, 512, {"kind": "vector_perturb", "b": 3}, [512]),
    ):
        rows.clear()
        cfg = harness.ExperimentConfig.from_dict(
            _base_cfg(m=m, channel_source={"kind": "random", "seed": seed}, trials=trials,
                      precoder=precoder)
        )
        harness.run_experiment(cfg)
        assert rows == want, (m, precoder["kind"])


def _spy_scan_energy(monkeypatch, record):
    """Call ``record`` with the rows of each ``ChannelMatrix.energy`` call that ``shape_rows`` makes.

    The harness's own energy calls, a chunk's unselected rows, are not recorded.
    """
    real = theory.ChannelMatrix.energy

    def counting(self, u_rows):
        if sys._getframe(1).f_code is shaping.shape_rows.__code__:
            record(len(u_rows))
        return real(self, u_rows)

    monkeypatch.setattr(theory.ChannelMatrix, "energy", counting)


def test_trellis_group_stays_within_group_rows(monkeypatch):
    # a scan group holds at most theory.GROUP_ENTRIES = 2^13 leaf metrics,
    # one row at least. H = I ties every leaf, so each group scores all its
    # rows' leaves in one energy call: (7,5) has 2^8 codewords at M = 20,
    # so 40 trials are groups of 32 + 8, and 2^14 at M = 32, one trial a group
    calls = []
    _spy_scan_energy(monkeypatch, calls.append)
    assert theory.GROUP_ENTRIES == 2**13
    for m, trials, want in ((20, 40, [32 * 2**8, 8 * 2**8]), (32, 2, [2**14] * 2)):
        calls.clear()
        cfg = harness.ExperimentConfig.from_dict(
            _base_cfg(m=m, channel_source={"kind": "inline", "matrix": np.eye(m).tolist()},
                      trials=trials, precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
        )
        harness.run_experiment(cfg)
        assert calls == want, m


class _SearchSpy:
    """shaping's numpy, recording (entries, nodes) of each search batch the search sums.

    A popped batch of n nodes storing c components sums its children's new
    components over a view of their (2n, c) array, and at the leaves its
    (n, c) completed tails, each with ``einsum("ij,ij->i")``. The rounding
    bound's sum over the one M-vector |u0| |L| holds no batch.
    """

    def __init__(self, held):
        self.held = held

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, spec, x, y):
        if x.ndim == 2:
            rows = x if x.base is None else x.base
            n = len(rows) // (1 if x.base is None else 2)
            self.held.append((n * rows.shape[1], n))
        return np.einsum(spec, x, y)


def _held(kernel, monkeypatch):
    """(entries, rows) of each group, batch or pass that ``kernel`` held, and a row's entries."""
    held = []
    if kernel == "philox":
        real_philox = regions._philox

        def passes(key, n):
            held.append((key.shape[1] * 4 * n, key.shape[1]))
            return real_philox(key, n)

        monkeypatch.setattr(regions, "_philox", passes)
        # one row wider than a pass, then passes of several rows and a tail
        regions.draw_rows(regions.hypercube(1.0, theory.GROUP_ENTRIES + 3), 4, range(3))
        regions.integer_rows(4, range(3000), 2, 1001, np.uint8)
        regions.draw_rows(regions.hypercube(1.0, 5), 4, range(5000))
        return held, 8
    if kernel == "search":
        monkeypatch.setattr(shaping, "np", _SearchSpy(held))
        ch = harness.load_channel({"kind": "random", "seed": 3}, 40)
        con = shaping.pam_constellation(4, spacing=0.5)
        for t in range(3):
            u0 = shaping.payload_to_coset(regions.make_stream(11, t).integers(0, 2, size=80), con)
            shaping.trellis_shape(ch, u0, shaping.default_code())
        return held, 2
    random = {"kind": "random", "seed": 3}
    m, precoder, per_row, source = {
        "vector_perturb": (4, {"kind": "vector_perturb", "b": 3}, 3**4, random),
        "nested": (8, {"kind": "nested", "k": 2, "n_u": 2, "q": 2}, 2**8, random),
        # H = I ties every leaf, so each scan group scores all its rows' leaves
        "scan": (20, {"kind": "trellis", "generators": "7,5", "pam": 4}, 2**8,
                 {"kind": "inline", "matrix": np.eye(20).tolist()}),
    }[kernel]

    def record(rows):
        held.append((rows, rows // per_row))

    if kernel == "scan":  # the kept leaves the scan scores in ch.energy
        _spy_scan_energy(monkeypatch, record)
    else:
        real = theory.ChannelMatrix.energies

        def counting(self, u_rows):
            record(len(u_rows))
            return real(self, u_rows)

        monkeypatch.setattr(theory.ChannelMatrix, "energies", counting)
    harness.run_experiment(harness.ExperimentConfig.from_dict(
        _base_cfg(m=m, channel_source=source, trials=300, precoder=precoder)))
    return held, per_row


@pytest.mark.parametrize("entries", [None, 1000, 50])
@pytest.mark.parametrize("kernel", ["vector_perturb", "nested", "scan", "search", "philox"])
def test_every_kernel_holds_at_most_group_entries(kernel, entries, monkeypatch):
    # one law sizes every working set: a VP or nested group's candidates, a
    # scan group's leaves, a search batch's stored components of G u and a
    # Philox pass's words are at most theory.GROUP_ENTRIES, one row at least
    if entries:
        monkeypatch.setattr(theory, "GROUP_ENTRIES", entries)
    held, per_row = _held(kernel, monkeypatch)
    monkeypatch.undo()
    limit = entries or theory.GROUP_ENTRIES
    assert held and all(n <= limit or rows == 1 for n, rows in held), held
    # the limit is reached: some group is as full as a row's entries allow
    assert max(n for n, _ in held) > limit - per_row, held


def _chunk_cases():
    # (m, precoder, trials, group rows): every kind that runs a group of
    # trials at once, on trial ranges that start past 0 and, where a group
    # holds fewer trials than the range, cross group boundaries
    cases = [(m, {"kind": "plain"}, range(5, 300)) for m in (1, 3, 4, 8)]
    for m in (1, 3, 4, 8):
        for b in (1, 2, 3):
            # groups of 8192 // b^m trials: 101 at b = 3, m = 4; b = 3, m = 8 runs alone
            cases.append((m, {"kind": "vector_perturb", "b": b}, range(250, 370)))
    for m, k, n_u in ((4, 2, 1), (8, 2, 2), (8, 4, 1)):
        for q in (2, 3):
            cases.append((m, {"kind": "nested", "k": k, "n_u": n_u, "q": q}, range(3, 130)))
    # slm_random selects once per trial, from each region its scheme builds
    for m in (1, 4, 8):
        for n in (1, 4, 64):
            for region in ({"kind": "hypercube", "expand": True},
                           {"kind": "hypercube", "expand": False},
                           {"kind": "ball", "radius": 1.5}):
                cases.append((m, {"kind": "slm_random", "n": n, "region": region},
                              range(260, 300)))
    # trellis: shaping.shape_rows scans code trees of 2^2 to 2^9 codewords
    # (M = 22) a group of trials at a time and searches 2^15 (M = 34) per
    # trial; the oracle's trellis_shape always searches
    for m, gens in ((4, "7,5"), (8, "7,5"), (16, "7,5"), (20, "7,5"), (22, "7,5"),
                    (34, "7,5"), (9, "7,7,5"), (12, "17,15"), (8, "0,0"), (8, "1,1")):
        cases.append((m, {"kind": "trellis", "generators": gens, "k_s": 1, "pam": 4},
                      range(7, 60)))
    # group entries None: groups of theory.GROUP_ENTRIES entries; the id then
    # names energies' block of 4096 rows at M = 1
    cases = [(m, precoder, trials, None, None) for m, precoder, trials in cases]
    # groups of 4 energy blocks: one group of 2731 trials of 3 candidates is
    # 8193 rows, so energies folds a 1-row tail into its last block
    cases.append((1, {"kind": "vector_perturb", "b": 3}, range(2731), 4 * theory.energy_block(1),
                  None))
    trellis = {"kind": "trellis", "generators": "7,5", "k_s": 1, "pam": 4}
    # H = I: every leaf ties, so every trial scores all its leaves with
    # ch.energy, in the scan as in the search, at 2^2, 2^6 and 2^8 codewords
    for m in (8, 16, 20):
        cases.append((m, trellis, range(7, 60), None, "identity"))
    # groups of 16 leaves: 4 trials of 4 codewords, so a chunk is many groups
    cases.append((8, trellis, range(7, 60), 16, None))
    return [
        pytest.param(m, precoder, trials, entries, channel, id="-".join(
            [f"m{m}", *_id_values(precoder),
             f"{len(trials)}trials-{entries or theory.energy_block(1)}rows",
             *([channel] if channel else [])]))
        for m, precoder, trials, entries, channel in cases
    ]


def _id_values(spec):
    """The values of a spec dict as strings, a nested dict's (a region's) in line."""
    for v in spec.values():
        yield from _id_values(v) if isinstance(v, dict) else [str(v)]


@pytest.mark.parametrize("m,precoder,trials,entries,channel", _chunk_cases())
def test_chunk_matches_per_trial_oracle(m, precoder, trials, entries, channel, monkeypatch):
    # a chunk's (gamma, plain gamma) of each trial equals, bit for bit, what
    # the public precoders give on that trial's stream
    if entries:
        # the groups, scan groups and Philox passes alone hold `entries`
        # entries; ChannelMatrix.energies keeps its own blocks
        monkeypatch.setattr(theory, "GROUP_ENTRIES", entries)
    tau = 3.0
    source = {"kind": "random", "seed": 20 + m}
    if channel == "identity":
        source = {"kind": "inline", "matrix": np.eye(m).tolist()}
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=m, channel_source=source, tau=tau, precoder=precoder, trials=len(trials))
    )
    ch = harness.load_channel(cfg.channel_source, m)
    trial = cfg._built_scheme[2]
    chosen, unselected = trial(ch, cfg.master_seed, trials)
    gammas = ch.gamma(chosen)
    plain = gammas if unselected is chosen else ch.energy(unselected)
    got = list(zip(gammas.tolist(), plain.tolist()))
    stream = functools.partial(regions.make_stream, cfg.master_seed)
    want = [precoder_trial(precoder, ch, tau, stream(t)) for t in trials]
    assert got == want
    if precoder["kind"] != "trellis":
        return
    code = shaping.code_from_octal(precoder["generators"])
    if code.codeword_count(m // code.n_s) > 2**8:
        return
    # up to 2^8 codewords, its gammas are also checked against a scan that
    # shares no code with shaping (too slow in Python for larger trees)
    cons = shaping.pam_constellation(4, spacing=tau / 4)
    for t, (gamma, _) in zip(trials, got):
        payload = stream(t).integers(0, 2, size=m * cons.bits_per_symbol)
        u0 = shaping.payload_to_coset(payload, cons)
        assert gamma == exhaustive_shape(ch, u0, code).gamma, t


def test_nested_rows_redrawn_after_a_lemire_rejection(monkeypatch):
    # q = 3, n_u = 6, K = 1 draws one index below 3^12 a trial, which numpy's
    # Lemire rule rejects about once in 8000 draws (a leftover under
    # (2^32 - 3^12) % 3^12) and draws again; regions.integer_rows draws such a
    # row from its own stream. Trials 4 to 7 of seeds 1, 2, ... are searched
    # for one, 1024 seeds a Philox pass.
    high, threshold = 3**12, (2**32 - 3**12) % 3**12
    for start in itertools.count(1, 1024):
        key = np.stack([a.ravel() for a in np.meshgrid(
            np.arange(start, start + 1024), np.arange(4, 8), indexing="ij")]).astype(np.uint64)
        first = regions._philox(key, 1)[:, 0] % 2**32
        hits = np.flatnonzero(first * np.uint64(high) % 2**32 < threshold)
        if hits.size:
            break
    seed, t = (int(k) for k in key[:, hits[0]])
    first = int(np.random.Philox(key=regions.stream_key(seed, t)).random_raw(1)[0]) % 2**32
    assert first * high % 2**32 < threshold  # numpy rejects the first value
    real, redrawn = regions.make_stream, []
    monkeypatch.setattr(regions, "make_stream", lambda s, i: redrawn.append((s, i)) or real(s, i))
    row = regions.integer_rows(seed, range(t, t + 1), high, 1, np.int64)[0]
    monkeypatch.setattr(regions, "make_stream", real)
    assert redrawn == [(seed, t)]
    assert np.array_equal(row, real(seed, t).integers(0, high, size=1))
    # the config's whole chunk of rows, against a reference drawn a trial at a time
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(
        m=12, channel_source={"kind": "random", "seed": 3}, tau=3.0, trials=8, master_seed=seed,
        precoder={"kind": "nested", "k": 1, "n_u": 6, "q": 3}))
    part = shaping.lattice_partition(6, 3, spacing=1.0)
    want = [part.representatives(real(seed, s).integers(0, high, size=1)).ravel() for s in range(8)]
    assert np.array_equal(cfg._built_scheme[2].args[0](seed, range(8)), want)
    # in 4-trial chunks the row's chunk runs in a worker at workers=2
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 4)
    serial, pooled = (harness.write_report(harness.run_experiment(cfg, workers=w), "json", None)
                      for w in (1, 2))
    assert serial == pooled


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


def test_trellis_report_memory_at_scan_limit():
    # (7,5) at M = 32 has 2^14 codewords, the largest tree shape_rows scans:
    # one trial holds two 2^8-row half sign tables and one group's 2^14 leaf
    # metrics, far under the bound
    shaping._half_signs.cache_clear()
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=32, channel_source={"kind": "random", "seed": 3}, trials=1,
                  precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
    )
    assert shaping.default_code().codeword_count(16) == shaping._SCAN_LIMIT
    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_trellis_chunk_memory_at_scan_limit():
    # a whole 256-trial chunk at M = 32 holds one group's leaf metrics at a
    # time, besides the chunk's rows: 0.7 MiB measured, where a scan of every
    # candidate row held 12 MiB
    shaping._half_signs.cache_clear()
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=32, channel_source={"kind": "random", "seed": 3}, trials=harness.TRIAL_CHUNK,
                  precoder={"kind": "trellis", "generators": "7,5", "pam": 4})
    )
    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert harness.TRIAL_CHUNK == 256
    assert peak < 2 * 2**20


def test_slm_random_report_holds_one_candidate_array():
    # n * m = 2^20, the budget: each trial's candidates take 8 MiB, and a
    # trial frees them before the next one draws
    cfg = harness.ExperimentConfig.from_dict(
        _base_cfg(m=64, channel_source={"kind": "random", "seed": 3}, trials=4,
                  precoder={"kind": "slm_random", "n": 2**14})
    )
    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_trellis_payload_bits_take_a_byte_each():
    # a chunk's payload bits are uint8: 64 trials at M = 256 with PAM 2^53
    # draw 64 * 256 * 53 bits, 0.8 MiB, where int64 bits would take 6.6 MiB
    cons = shaping.pam_constellation(2**53, spacing=1.0)
    tracemalloc.start()
    try:
        u = harness._trellis_rows(cons, 256, 7, range(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    for t in (0, 63):
        bits = regions.make_stream(7, t).integers(0, 2, size=256 * cons.bits_per_symbol)
        assert np.array_equal(u[t], shaping.payload_to_coset(bits, cons))


def test_plain_chunk_draw_holds_its_rows_and_a_bounded_pass():
    # the Philox pass runs a bounded number of blocks at a time, so at M = 1024
    # a 256-trial chunk's draw holds its 2 MiB of rows and less than 0.75 MiB
    # of temporaries (the whole chunk in one pass would take several MiB)
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(
        m=1024, channel_source={"kind": "random", "seed": 3}, trials=256))
    draw = cfg._built_scheme[2].args[0]
    tracemalloc.start()
    try:
        u = draw(cfg.master_seed, range(256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.nbytes == 2 * 2**20
    assert peak < 2.75 * 2**20


def test_vector_perturb_report_frees_its_offset_grid():
    # the kernel builds its scaled offset grid, 2^16 rows of 16 (8 MiB) here,
    # once per chunk and frees it: nothing of that size outlives the report
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
    # a precoder changed through the config is read as it now is, as a report reads it
    cfg_ball.precoder["region"]["radius"] = 2.0
    ball = {"kind": "ball", "radius": 2.0}
    fresh = harness.ExperimentConfig.from_dict(
        _base_cfg(precoder={"kind": "slm_random", "n": 4, "region": ball}))
    assert harness.information_sigma2(cfg_ball) == harness.information_sigma2(fresh)
    assert harness.information_sigma2(cfg_ball) == pytest.approx(4.0 / (2 * math.e), rel=1e-12)


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
    # the whole config, so a matrix nested 900 deep meets the inline matrix
    # check when each point's config is built
    deep = 1.0
    for _ in range(900):
        deep = [deep]
    d = _base_cfg(channel_source={"kind": "inline", "matrix": deep},
                  precoder={"kind": "slm_random", "n": 4})
    with pytest.raises(ParseError):
        harness.sweep_experiment(d, "n", [2, 3])
    with pytest.raises(ParseError):
        harness.ExperimentConfig.from_dict(d)


def _recording_pool(sizes):
    """A fake executor that appends the process count asked for to ``sizes`` and maps in this
    process, so no real pool is started."""

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return RecordingPool


def test_pool_sized_by_chunks_and_cpus(monkeypatch):
    # no real pool with a large count is ever started
    sizes = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _recording_pool(sizes))
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


@pytest.mark.parametrize("m,precoder", [
    (4, {"kind": "plain"}), (4, {"kind": "vector_perturb", "b": 3}),
    (4, {"kind": "nested", "k": 2, "n_u": 1, "q": 2}), (4, {"kind": "trellis"}),
    (8, {"kind": "plain"}), (8, {"kind": "vector_perturb", "b": 2}),
    (8, {"kind": "nested", "k": 2, "n_u": 2, "q": 2}), (8, {"kind": "trellis"}),
], ids=lambda v: v if isinstance(v, int) else v["kind"])
def test_tasks_of_several_chunks_leave_the_report(monkeypatch, m, precoder):
    # 2049 trials are 9 chunks, the last of one trial. A task holds at most
    # theory.group_rows(256 * M) chunks (8 at M = 4, 4 at M = 8), and pooled
    # at most ceil(9 / processes): with GROUP_ENTRIES = 1 a task is one chunk,
    # and by default and at 2 and 3 CPUs tasks of 3 to 8 chunks split the
    # report in other places; every run gives the same bytes, and a task's
    # rows hold at most max(256 * M, GROUP_ENTRIES) entries
    held = []
    real = harness._run_chunk

    def spying(trial, *args):
        def spy(*trial_args):
            chosen, unselected = trial(*trial_args)
            held.append(chosen.size)
            return chosen, unselected
        return real(spy, *args)

    sizes = []
    monkeypatch.setattr(harness, "_run_chunk", spying)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _recording_pool(sizes))
    cfg = harness.ExperimentConfig.from_dict(_base_cfg(
        m=m, channel_source={"kind": "random", "seed": 5}, tau=3.0, trials=2049,
        precoder=precoder))
    reports = []
    for entries, cpus in ((1, 1), (None, 1), (None, 2), (None, 3)):
        held.clear()
        with monkeypatch.context() as patch:
            if entries:
                patch.setattr(theory, "GROUP_ENTRIES", entries)
            patch.setattr(harness, "_usable_cpus", lambda: cpus)
            reports.append(harness.write_report(harness.run_experiment(cfg, 3), "json", None))
            limit = max(harness.TRIAL_CHUNK * m, theory.GROUP_ENTRIES)
        assert sum(held) == 2049 * m and max(held) <= limit, (entries, cpus, held)
        if entries:
            assert held == [harness.TRIAL_CHUNK * m] * 8 + [m]
    # the 3-CPU run's tasks hold ceil(9 / 3) chunks, its last two and one trial
    assert held == [3 * harness.TRIAL_CHUNK * m] * 2 + [(2 * harness.TRIAL_CHUNK + 1) * m]
    assert sizes == [2, 3]
    assert reports[1:] == reports[:1] * 3


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
