"""Workload definitions, generated inputs and golden reports for the benchmark.

A workload is a fixed list of report configs ("slots") run over a pool of
master seeds. The benchmark's ``--seed`` only chooses the order in which the
pool is used, so every report it times has a golden captured beforehand
(``capture_goldens.py``). Two pools exist: ``default``, used by every run,
and ``heldout``, kept for re-checking a claim on seeds nobody tuned on.

Nothing here sets a thread-count variable or otherwise changes how the
package runs; the program only sees the configs and channel files built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
GOLDEN_DIR = BENCH_DIR / "goldens"

GOLDEN_SETS = {"default": 1000, "heldout": 2000}

# Channels written once as CSV files (repr floats load bit-identically), as
# (random-channel seed, dimension).
FILE_CHANNELS = {"ch21": (21, 4), "ch22": (22, 8)}


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    pool_size: int
    slots: Tuple[Tuple[str, Dict], ...]  # (slot name, config dict without master_seed)
    # kernel in calibration.KERNELS shaped like this workload's inner loop,
    # or None for times that are not speed-adjusted
    calibration: Optional[str]

    @property
    def trials_per_cycle(self) -> int:
        return sum(cfg["trials"] for _, cfg in self.slots)


def _cfg(m: int, channel: Dict, precoder: Dict, trials: int, tau: float = 2.0) -> Dict:
    return {"m": m, "channel_source": channel, "tau": tau, "precoder": precoder,
            "trials": trials}


def _file_channel(key: str) -> Dict:
    return {"kind": "file", "path": str(WORK_DIR / f"{key}.csv")}


def _build(tiny: bool) -> Dict[str, Workload]:
    slm_n = 2**8 if tiny else 2**16
    trials = 300 if tiny else 512
    deep_m = 8 if tiny else 24
    pool = 4 if tiny else None
    # acceptance 3's largest point, run serially: at workers=2 the report
    # time is bimodal (BLAS oversubscription), too unsteady to bound.
    slm = Workload(
        name="slm_large_n_serial",
        workers=1,
        pool_size=pool or 12,
        slots=(("slm_random", _cfg(
            4, {"kind": "random", "seed": 11},
            {"kind": "slm_random", "n": slm_n,
             "region": {"kind": "hypercube", "expand": True}},
            trials)),),
        # Not speed-adjusted: the energies run on two BLAS threads, which no
        # single-threaded, BLAS-free kernel tracks. Over ten 30-s runs on a
        # 2-vCPU VM such a kernel widened the spread of trials_per_s from
        # 0.06 raw to 0.12.
        calibration=None,
    )
    cheap = Workload(
        name="cheap_kinds",
        workers=1,
        pool_size=pool or 24,
        slots=(
            ("plain", _cfg(4, _file_channel("ch21"), {"kind": "plain"}, trials)),
            ("vector_perturb", _cfg(4, _file_channel("ch21"),
                                    {"kind": "vector_perturb", "b": 3}, trials)),
            ("nested", _cfg(4, _file_channel("ch21"),
                            {"kind": "nested", "k": 2, "n_u": 1, "q": 2}, trials)),
            ("trellis", _cfg(8, _file_channel("ch22"),
                             {"kind": "trellis", "generators": "7,5", "pam": 4}, trials)),
        ),
        calibration="small",
    )
    deep = Workload(
        name="trellis_deep",
        workers=1,
        pool_size=pool or 24,
        slots=(("trellis", _cfg(
            deep_m, {"kind": "random", "seed": 23},
            {"kind": "trellis", "generators": "7,5", "pam": 4}, 16)),),
        calibration="search",
    )
    return {w.name: w for w in (slm, cheap, deep)}


WORKLOADS = _build(tiny=False)
TINY_WORKLOADS = _build(tiny=True)


def get(name: str, tiny: bool = False) -> Workload:
    table = TINY_WORKLOADS if tiny else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def master_seeds(wl: Workload, golden_set: str) -> List[int]:
    base = GOLDEN_SETS[golden_set]
    return [base + i for i in range(wl.pool_size)]


def seed_plan(wl: Workload, seed: int, golden_set: str = "default") -> List[int]:
    """The pool's master seeds in the order ``seed`` chooses; runs cycle through it."""
    order = master_seeds(wl, golden_set)
    random.Random(seed).shuffle(order)
    return order


def report_config(slot_cfg: Dict, master_seed: int, trials: int = 0) -> Dict:
    d = json.loads(json.dumps(slot_cfg))
    d["master_seed"] = master_seed
    if trials:
        d["trials"] = trials
    return d


def golden_key(slot: str, master_seed: int) -> str:
    return f"{slot}/{master_seed}"


def golden_path(wl_name: str, tiny: bool) -> Path:
    return GOLDEN_DIR / f"{wl_name}{'-tiny' if tiny else ''}.json"


def load_goldens(wl_name: str, tiny: bool, golden_set: str) -> Dict[str, str]:
    with open(golden_path(wl_name, tiny), "r", encoding="utf-8") as fh:
        return json.load(fh)[golden_set]


def write_channel_files(channel_stream) -> None:
    """Write the file-sourced channels from the package's own channel streams."""
    WORK_DIR.mkdir(exist_ok=True)
    for key, (seed, m) in FILE_CHANNELS.items():
        h = channel_stream(seed).standard_normal((m, m))
        text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in h)
        path = WORK_DIR / f"{key}.csv"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
