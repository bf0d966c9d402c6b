"""Refusals and edge branches that no other test reaches, one case each.

A refusal case must be raised by the function it names, not by one it
calls, so each case fails if its own check is deleted.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from slmprecode import cli, linalg, precoders, regions, theory
from slmprecode.errors import NonSquareError, NotSymmetricError


def _sweep_exit(values):
    """Run ``slmprecode sweep --values values`` on a valid config; raise SystemExit("code: stderr")."""
    cfg = {"m": 2, "channel_source": {"kind": "random", "seed": 1}, "tau": 2.0,
           "precoder": {"kind": "slm_random", "n": 2}, "trials": 4, "master_seed": 1}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        code = cli.main(["sweep", "--config", path, "--param", "n", "--values", values])
    raise SystemExit(f"{code}: {err.getvalue()}")


def _volume(region):
    return region.volume


_EYE2 = theory.build_channel(np.eye(2))


# name: (function, its arguments, the exception it raises or the value it returns)
CASES = {
    "as_matrix_1d": (linalg.as_matrix, ([1.0, 2.0],), ValueError("must be 2-D")),
    "as_matrix_3d": (linalg.as_matrix, (np.ones((1, 1, 1)),), ValueError("must be 2-D")),
    "as_matrix_empty": (linalg.as_matrix, (np.ones((0, 2)),), ValueError("at least one row")),
    "as_vector_2d": (linalg.as_vector, ([[1.0]],), ValueError("must be 1-D")),
    "as_vector_nan": (linalg.as_vector, ([1.0, math.nan],), ValueError("non-finite")),
    "as_vector_inf": (linalg.as_vector, ([math.inf],), ValueError("non-finite")),
    "ball_dimension_0": (regions.ball, (1.0, 0), ValueError("dimension must be >= 1")),
    "ball_radius_nan": (regions.ball, (math.nan, 2),
                        ValueError("radius must be positive and finite")),
    "ball_radius_inf": (regions.ball, (math.inf, 2),
                        ValueError("radius must be positive and finite")),
    "hypercube_tau_nan": (regions.hypercube, (math.nan, 2),
                          ValueError("tau must be positive and finite")),
    "hypercube_tau_inf": (regions.hypercube, (math.inf, 2),
                          ValueError("tau must be positive and finite")),
    "fold_interval_tau_nan": (precoders.fold_interval, ([0.1, 0.2], math.nan),
                              ValueError("tau must be positive and finite")),
    "fold_interval_tau_inf": (precoders.fold_interval, ([0.1, 0.2], math.inf),
                              ValueError("tau must be positive and finite")),
    "gaussian_not_square": (regions.gaussian, (np.ones((2, 3)),),
                            ValueError("covariance must be square")),
    "draw_rows_ball": (regions.draw_rows, (regions.ball(1.0, 2), 1, range(2)),
                       ValueError("draws from a hypercube, got ball")),
    "gaussian_volume": (_volume, (regions.gaussian(np.eye(2)),), None),
    "volume_overflow": (_volume, (regions.hypercube(2.0**600, 2),), math.inf),
    "build_channel_not_square": (theory.build_channel, (np.ones((2, 3)),),
                                 NonSquareError("must be square")),
    "build_channel_limit_nan": (theory.build_channel, (np.diag([1.0, 1e-9]), math.nan),
                                ValueError("condition_limit must exceed 1")),
    "build_channel_limit_1": (theory.build_channel, (np.eye(2), 1.0),
                              ValueError("condition_limit must exceed 1")),
    "sigma_from_entropy_inf": (theory.sigma_from_entropy, (math.inf,),
                               ValueError("entropy must be finite")),
    "average_energy_skew": (theory.average_energy,
                            (theory.build_channel(np.eye(2)), np.zeros(2), [[1.0, 0.0], [0.5, 1.0]]),
                            NotSymmetricError("sigma must be symmetric")),
    "ball_volume_0": (theory.ball_volume, (0,), ValueError("dimension must be >= 1")),
    "log_ball_volume_0": (theory.log_ball_volume, (0,), ValueError("dimension must be >= 1")),
    "slm_limit_uniform_r_0": (theory.slm_limit_uniform, (2, 0.0, 1.0),
                              ValueError("order r must be positive")),
    "slm_limit_uniform_r_nan": (theory.slm_limit_uniform, (2, math.nan, 1.0),
                                ValueError("order r must be positive and finite")),
    "slm_limit_uniform_r_inf": (theory.slm_limit_uniform, (2, math.inf, 1.0),
                                ValueError("order r must be positive and finite")),
    "slm_limit_uniform_volume_nan": (theory.slm_limit_uniform, (2, 2.0, math.nan),
                                     ValueError("region_volume must be positive and finite")),
    "slm_limit_uniform_volume_inf": (theory.slm_limit_uniform, (2, 2.0, math.inf),
                                     ValueError("region_volume must be positive and finite")),
    "slm_limit_general_g_0": (theory.slm_limit_general, (2, 2.0, 0.0),
                              ValueError("g_rho must be positive")),
    "slm_limit_general_g_nan": (theory.slm_limit_general, (2, 2.0, math.nan),
                                ValueError("g_rho must be positive and finite")),
    "slm_limit_general_g_inf": (theory.slm_limit_general, (2, 2.0, math.inf),
                                ValueError("g_rho must be positive and finite")),
    "theory_report_sigma2_nan": (theory.theory_report, (_EYE2, math.nan),
                                 ValueError("sigma2 must be positive and finite")),
    "theory_report_sigma2_inf": (theory.theory_report, (_EYE2, math.inf),
                                 ValueError("sigma2 must be positive and finite")),
    "sweep_values_empty": (_sweep_exit, (",",), SystemExit("^2: error: --values is empty\n$")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusals_and_edge_branches(name):
    fn, args, want = CASES[name]
    if not isinstance(want, BaseException):
        assert fn(*args) == want
        return
    with pytest.raises(type(want), match=str(want)) as err:
        fn(*args)
    assert err.traceback[-1].name == fn.__name__
