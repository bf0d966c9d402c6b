"""Tests for the command-line interface and its exit codes."""

import json
import os
import subprocess
import sys

import pytest

import slmprecode
from slmprecode import cli, harness


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    d = {
        "m": 2,
        "channel_source": {"kind": "inline", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "tau": 2.0,
        "precoder": {"kind": "plain"},
        "trials": 64,
        "master_seed": 7,
    }
    d.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def test_theory_text(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli.main(["theory", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "M = 2" in out
    assert "e_opt = " in out
    assert "channel_gain = " in out


def test_theory_json(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli.main(["theory", "--config", cfg, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["m"] == 2
    assert obj["channel_gain"] == pytest.approx(1.0)
    assert obj["e_opt"] == pytest.approx(2 * obj["r_eq2"], rel=1e-12)
    assert len(obj["eigenvalues"]) == 2


def test_run_stdout_csv(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("plain,2,1,64,")


def test_run_out_file_json(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out_path = tmp_path / "report.json"
    assert cli.main(["run", "--config", cfg, "--format", "json", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    obj = json.loads(out_path.read_text())
    assert obj["precoder"] == "plain"
    assert obj["trials"] == 64


def test_run_seed_override(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--seed", "99"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert row.split(",")[-1] == "99"


def test_run_byte_deterministic(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, precoder={"kind": "vector_perturb", "b": 3})
    assert cli.main(["run", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", "--config", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_run_workers_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, trials=600)
    assert cli.main(["run", "--config", cfg]) == 0
    seq = capsys.readouterr().out
    assert cli.main(["run", "--config", cfg, "--workers", "3"]) == 0
    par = capsys.readouterr().out
    assert seq == par


def test_sweep(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        trials=128,
        precoder={"kind": "slm_random", "n": 4, "region": {"kind": "hypercube", "expand": True}},
    )
    assert cli.main(["sweep", "--config", cfg, "--param", "n", "--values", "4,16"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "4"
    assert lines[2].split(",")[2] == "16"


@pytest.mark.parametrize("values", ["4", "4,16"])
def test_sweep_json_is_an_array(tmp_path, capsys, values):
    cfg = _write_cfg(tmp_path, precoder={"kind": "slm_random", "n": 4})
    argv = ["sweep", "--config", cfg, "--param", "n", "--values", values, "--format", "json"]
    assert cli.main(argv) == 0
    objs = json.loads(capsys.readouterr().out)
    assert [obj["N"] for obj in objs] == [int(v) for v in values.split(",")]


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_exit_code_workers_below_one(tmp_path, capsys, command, workers):
    cfg = _write_cfg(tmp_path, precoder={"kind": "slm_random", "n": 4})
    argv = [command, "--config", cfg, "--workers", workers]
    if command == "sweep":
        argv += ["--param", "n", "--values", "4"]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"m": 2}))  # missing required keys
    assert cli.main(["run", "--config", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert cli.main(["run", "--config", str(p)]) == 2
    capsys.readouterr()


def test_exit_code_sweep_values(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, precoder={"kind": "slm_random", "n": 4})
    assert cli.main(["sweep", "--config", cfg, "--param", "n", "--values", "a,b"]) == 2
    capsys.readouterr()


def test_sweep_values_error_line_is_short(tmp_path, capsys):
    # a malformed --values string is abbreviated in the error line, however long it is
    cfg = _write_cfg(tmp_path, precoder={"kind": "slm_random", "n": 4})
    assert cli.main(["sweep", "--config", cfg, "--param", "n", "--values", "x" * 50_000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --values must be comma-separated integers")
    assert err.count("\n") == 1
    assert len(err.encode()) < 200, err[:300]


# stands in for a matrix nested 100000 deep, which json.dumps cannot write
_DEEP = "<matrix nested 100000 deep>"


@pytest.mark.parametrize(
    "overrides,code",
    [
        ({"tau": float("nan")}, 2),
        ({"channel_source": {"kind": "inline", "matrix": [[1.0, "x"], [0.0, 1.0]]}}, 2),
        ({"channel_source": {"kind": "inline", "matrix": [[float("nan"), 0.0], [0.0, 1.0]]}}, 2),
        # strings and booleans are not numbers, though numpy casts them to floats
        ({"channel_source": {"kind": "inline", "matrix": [["1", "0"], ["0", "1"]]}}, 2),
        ({"channel_source": {"kind": "inline", "matrix": [[True, False], [False, True]]}}, 2),
        # a boolean among numbers, which numpy casts to a float or an integer
        ({"channel_source": {"kind": "inline", "matrix": [[True, 0.5], [0, 1]]}}, 2),
        ({"channel_source": {"kind": "inline", "matrix": [[True, 2], [0, 1]]}}, 2),
        ({"channel_source": "abc"}, 2),
        ({"precoder": [1]}, 2),
        ({"m": 2.7}, 2),
        ({"trials": True}, 2),
        ({"precoder": {"kind": "slm_random", "n": 4,
                       "region": {"kind": "ball", "radius": 1e300}}}, 2),
        ({"tau": 1e300}, 2),
        ({"tau": 1e300, "precoder": {"kind": "vector_perturb", "b": 3}}, 2),
        ({"precoder": {"kind": "trellis", "generators": "7,5", "k_s": 2, "pam": 4}}, 2),
        # n beyond precoders.SEARCH_BUDGET is refused before a trial
        # allocates its (n, m) candidate array
        ({"precoder": {"kind": "slm_random", "n": 2**40}}, 3),
        # n * m beyond the budget: one draw would hold n * m doubles
        ({"precoder": {"kind": "slm_random", "n": 2**20}}, 3),
        # nested objects take only their kind's keys
        ({"precoder": {"kind": "trellis", "genrators": "17,15"}}, 2),
        ({"precoder": {"kind": "slm_random", "n": 4,
                       "region": {"kind": "hypercube", "expnad": False}}}, 2),
        ({"precoder": {"kind": "vector_perturb", "b": 3, "B": 5}}, 2),
        ({"channel_source": {"kind": "random", "seed": 1, "matrix": [[1.0]]}}, 2),
        # refused before the m x m channel is allocated
        ({"m": 100000, "tau": 1.0, "channel_source": {"kind": "random", "seed": 1}}, 3),
        # refused before the runner lays out its trial chunks
        ({"trials": 2**40}, 3),
        ({"channel_source": {"kind": "file", "path": "chan\0.csv"}}, 2),
        ({"channel_source": {"kind": "inline", "matrix": _DEEP}}, 2),
        # integers beyond the float range
        ({"tau": 10**400}, 2),
        ({"condition_limit": 10**400}, 2),
        ({"precoder": {"kind": "slm_random", "n": 4,
                       "region": {"kind": "ball", "radius": 10**400}}}, 2),
    ],
    ids=["nan_tau", "non_numeric_matrix", "nan_matrix", "string_matrix", "boolean_matrix",
         "boolean_among_floats_matrix", "boolean_among_integers_matrix", "string_channel_source",
         "list_precoder", "fractional_m", "boolean_trials", "huge_ball_radius",
         "huge_tau_plain", "huge_tau_vector_perturb", "trellis_k_s_2",
         "slm_n_over_budget", "slm_n_times_m_over_budget", "trellis_misspelled_key",
         "region_misspelled_key", "vector_perturb_extra_keys", "channel_source_extra_key",
         "m_over_budget", "trials_over_budget", "nul_in_channel_path", "matrix_nested_100000_deep",
         "tau_401_digits", "condition_limit_401_digits", "ball_radius_401_digits"],
)
def test_exit_code_malformed_config(tmp_path, capsys, overrides, code):
    cfg = _write_cfg(tmp_path, **overrides)
    with open(cfg, encoding="utf-8") as fh:
        text = fh.read().replace(json.dumps(_DEEP), "[" * 100000 + "1" + "]" * 100000)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    # an exception escaping main fails the test, as a traceback would
    assert cli.main(["run", "--config", cfg]) == code
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [{"tau": 10**400}, {"precoder": [0] * 10**5}, {"precoder": {"kind": "k" * 10**5}},
     {"channel_source": {"kind": "file", "path": [0] * 10**5}}],
    ids=["tau_401_digits", "precoder_long_list", "precoder_long_kind", "channel_path_long_list"],
)
def test_error_line_shows_a_short_value(tmp_path, capsys, overrides):
    # a malformed value is abbreviated in the error line, however long it is
    cfg = _write_cfg(tmp_path, **overrides)
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 200, err[:300]


@pytest.mark.parametrize("pam", [10**400, 2**60, 3, 0], ids=["401_digits", "2_60", "3", "0"])
def test_trellis_pam_error_names_the_pam_size(tmp_path, capsys, pam):
    # the PAM size is checked before tau / pam is formed
    cfg = _write_cfg(tmp_path, precoder={"kind": "trellis", "pam": pam})
    assert cli.main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: precoder.pam must be a power of two") and err.count("\n") == 1
    assert len(err.encode()) < 200, err[:300]


@pytest.mark.parametrize("where", ["config", "channel", "out"])
def test_io_error_line_shows_a_short_path(tmp_path, capsys, where):
    # a path too long to open is abbreviated, and the OS's reason does not repeat it
    long_path = str(tmp_path / ("p" * 10**5))
    argv = ["run", "--config", _write_cfg(tmp_path)]
    if where == "config":
        argv[2] = long_path
    elif where == "channel":
        argv[2] = _write_cfg(tmp_path, channel_source={"kind": "file", "path": long_path})
    else:
        argv += ["--out", long_path]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot") and err.count("\n") == 1
    assert len(err.encode()) < 200, err[:300]


def test_sweep_checks_only_its_points(tmp_path, capsys):
    # the file's own n * m = 2^21 is over the budget, the swept points are not
    cfg = _write_cfg(tmp_path, m=4, channel_source={"kind": "random", "seed": 7}, trials=16,
                     precoder={"kind": "slm_random", "n": 2**19})
    assert cli.main(["sweep", "--config", cfg, "--param", "n", "--values", "4,8"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [row.split(",")[2] for row in rows] == ["4", "8"]
    # a swept point over the budget is still refused, before any point runs
    assert cli.main(["sweep", "--config", cfg, "--param", "n", "--values", f"4,{2**19}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "m,matrix",
    [(1, [[0.0]]), (2, [[0.0, 0.0], [0.0, 0.0]]), (2, [[1e-300, 0.0], [0.0, 1e-300]]),
     (1, [[1e-200]])],
    ids=["zero_1x1", "zero_2x2", "tiny_2x2", "tiny_1x1"],
)
def test_exit_code_zero_or_tiny_channel(tmp_path, capsys, m, matrix):
    # no inverse, or an inverse whose energies overflow a float: exit 3
    cfg = _write_cfg(tmp_path, m=m, channel_source={"kind": "inline", "matrix": matrix})
    for command in ("run", "theory"):
        assert cli.main([command, "--config", cfg]) == 3
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "precoder",
    [{"kind": "plain"}, {"kind": "slm_random", "n": 4}, {"kind": "vector_perturb", "b": 3},
     {"kind": "trellis"}, {"kind": "nested", "k": 1, "n_u": 1, "q": 2}],
    ids=["plain", "slm_random", "vector_perturb", "trellis", "nested"],
)
def test_exit_code_energy_overflow(tmp_path, capsys, precoder):
    # tau^2 fits a float but the energies do not: one error line and exit 3,
    # with no numpy warning (filterwarnings = error would raise it out of main)
    cfg = _write_cfg(tmp_path, tau=1e154, precoder=precoder,
                     channel_source={"kind": "inline", "matrix": [[1e-3, 0.0], [0.0, 1e-3]]})
    assert cli.main(["run", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_module_entry_point_exit_code(tmp_path):
    # python -m slmprecode.cli maps an error to its exit code, as main does
    cfg = _write_cfg(tmp_path, tau=float("nan"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(slmprecode.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "slmprecode.cli", "run", "--config", cfg],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "overrides",
    [
        # tau^m = 4^600 overflows a float, and nothing on the run path needs it
        {"m": 600, "tau": 4.0},
        # math.gamma(1 + m/2) in the unit ball's volume overflows from m = 342
        {"m": 400, "precoder": {"kind": "slm_random", "n": 2,
                                "region": {"kind": "ball", "radius": 1.0}}},
    ],
    ids=["plain_m600_tau4", "slm_ball_m400"],
)
def test_exit_code_large_valid_config(tmp_path, capsys, overrides):
    cfg = _write_cfg(tmp_path, channel_source={"kind": "random", "seed": 7},
                     condition_limit=1e14, trials=2, **overrides)
    assert cli.main(["run", "--config", cfg]) == 0, capsys.readouterr().err
    capsys.readouterr()


def test_exit_code_numerical_error(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, channel_source={"kind": "inline", "matrix": [[1.0, 1.0], [1.0, 1.0]]}
    )
    assert cli.main(["run", "--config", cfg]) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path, capsys):
    assert cli.main(["run", "--config", "/no/such/file.json"]) == 4
    capsys.readouterr()
    cfg = _write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("regular file")
    assert cli.main(["run", "--config", cfg, "--out", str(blocker / "x.csv")]) == 4
    capsys.readouterr()


def test_bad_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main([])
