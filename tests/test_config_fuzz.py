"""Property test of the config contract: every config ends in a documented exit code.

``slmprecode run`` must return 0, 2 (configuration error), 3 (numerical
error or budget) or 4 (I/O error) for any JSON config, and never let an
exception escape. Configs are drawn valid and small (m <= 8, a few trials),
then corrupted: a value replaced by one of the wrong type or range, a key
added or removed, or m set above the dimension budget.
"""

import copy
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from slmprecode import cli

JUNK = [None, True, False, "x", "", [], {}, [1], -1, 0, 0.5, 1e-200, 2**62, math.nan, math.inf]

_channel = st.one_of(
    st.fixed_dictionaries({"kind": st.just("random"), "seed": st.integers(-5, 50)}),
    st.fixed_dictionaries({"kind": st.just("file"), "path": st.just("no-such-channel.csv")}),
    st.just({"kind": "inline"}),  # the matrix is filled in once m is known
)
_region = st.one_of(
    st.fixed_dictionaries({"kind": st.just("hypercube"), "expand": st.booleans()}),
    st.fixed_dictionaries({"kind": st.just("ball"), "radius": st.floats(0.1, 3.0)}),
)
_precoder = st.one_of(
    st.just({"kind": "plain"}),
    st.fixed_dictionaries(
        {"kind": st.just("slm_random"), "n": st.integers(1, 64)}, optional={"region": _region}
    ),
    st.fixed_dictionaries({"kind": st.just("vector_perturb"), "b": st.integers(1, 3)}),
    st.fixed_dictionaries(
        {"kind": st.just("trellis")},
        optional={
            "generators": st.sampled_from(["7,5", "5,7", "1,1", "17,15", "7,7,5"]),
            "k_s": st.just(1),
            "pam": st.sampled_from([2, 4, 8]),
        },
    ),
    st.fixed_dictionaries(
        {"kind": st.just("nested"), "k": st.integers(1, 4), "q": st.integers(1, 3)},
        optional={"n_u": st.integers(1, 2)},
    ),
)
_config = st.fixed_dictionaries(
    {
        "m": st.sampled_from([1, 2, 4, 6, 8]),
        "channel_source": _channel,
        "tau": st.floats(0.5, 8.0),
        "precoder": _precoder,
        "trials": st.integers(1, 4),
        "master_seed": st.integers(0, 2**64),
    },
    optional={"condition_limit": st.sampled_from([1e4, 1e8, 1e12])},
)


def _paths(obj, prefix=()):
    """Every key path into the nested dicts of obj."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path[:-1]:
        obj = obj[key]
    return obj


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_config, data=st.data())
def test_run_exit_code_contract(cfg, data):
    cfg = copy.deepcopy(cfg)  # st.just shares its value between examples
    m = cfg["m"]
    if cfg["channel_source"]["kind"] == "inline":
        cfg["channel_source"]["matrix"] = [[float(i == j) + 0.1 * (j > i) for j in range(m)]
                                           for i in range(m)]
    for _ in range(data.draw(st.integers(0, 2), label="corruptions")):
        paths = sorted(_paths(cfg), key=str)
        how = data.draw(st.sampled_from(["junk", "add", "drop", "m_over_budget"]), label="how")
        if how == "m_over_budget":
            cfg["m"] = data.draw(st.integers(1025, 10**6), label="m")
            continue
        path = data.draw(st.sampled_from(paths), label="path")
        parent = _at(cfg, path)
        if how == "junk":
            parent[path[-1]] = data.draw(st.sampled_from(JUNK), label="value")
        elif how == "drop":
            del parent[path[-1]]
        elif isinstance(parent.get(path[-1]), dict):
            parent[path[-1]]["bogus"] = 1
        else:
            parent["bogus"] = 1
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code = cli.main(["run", "--config", path])
    assert code in (0, 2, 3, 4)
