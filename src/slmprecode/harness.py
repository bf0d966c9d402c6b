"""Experiment runner: configuration, Monte Carlo trials, and reports.

An experiment fixes one channel and one precoder, runs ``trials``
independent trials (trial t draws everything it needs from the counter
stream keyed by (master_seed, t)), and aggregates the empirical transmit
energy against the closed-form references. Trials are chunked into
fixed-size blocks reduced in block order, so reports are byte-identical
for any worker count and across reruns. ``trials`` is at most
``precoders.SEARCH_BUDGET`` (2^20), checked at validation; a process pool
gets no more processes than the largest config has chunks or than there
are usable CPUs.

Every trial draws a data vector and hands it to its precoder: the trellis
trial maps its payload bits to the zero-codeword point once, with
``shaping.payload_to_coset``, and the nested trial stacks its users' coset
representatives into one M-vector.

Config files are JSON mirroring ExperimentConfig field names::

    {
      "m": 4,
      "channel_source": {"kind": "random", "seed": 7},
      "tau": 4.0,
      "precoder": {"kind": "vector_perturb", "b": 3},
      "trials": 10000,
      "master_seed": 12345,
      "condition_limit": 1e8
    }

Precoder variants:
  {"kind": "plain"}
  {"kind": "slm_random", "n": 4096,
   "region": {"kind": "hypercube", "expand": true}}      # or
   "region": {"kind": "ball", "radius": 1.0}
  {"kind": "vector_perturb", "b": 3}
  {"kind": "trellis", "generators": "7,5", "k_s": 1, "pam": 4}   # k_s must be 1
  {"kind": "nested", "k": 2, "n_u": 1, "q": 2}

For ``slm_random`` the hypercube region may be expanded so the carrier
volume is N times the information volume (side tau * N^(1/M)); the ball
region is always used as-is (the fixed-region law). The information
entropy — hence sigma^2 and the theory references — always comes from the
base region: log2(tau) bits per dimension for hypercube-family precoders,
(1/M) log2(volume) for the ball.

Shaping codes have rate 1/n_s, so ``k_s`` may be omitted and any value
other than 1 is rejected. ``nested`` is vector perturbation of the K
users' stacked blocks with period q*spacing (spacing = tau/q) and q
offsets per coordinate.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import precoders, regions, shaping, theory
from .errors import (
    ConfigError,
    ParseError,
    PrecodingError,
    ReportIOError,
    SearchBudgetExceededError,
)
from .theory import ChannelMatrix

CSV_HEADER = (
    "precoder,M,N,trials,mean_gamma,stderr_gamma,e_opt,e_slm_limit,"
    "channel_gain_db,gain_vs_plain_db,seed"
)

TRIAL_CHUNK = 256


def _int(value, name: str) -> int:
    """An integer config field; booleans and non-integral numbers are rejected."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _float(value, name: str) -> float:
    """A real config field; booleans and non-finite numbers are rejected."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _object(value, name: str) -> Dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    return dict(value)


def _within_budget(base: int, power: int, what: str) -> int:
    """base**power, refused above SEARCH_BUDGET before anything that large is allocated."""
    if base > precoders.SEARCH_BUDGET or base**power > precoders.SEARCH_BUDGET:
        raise SearchBudgetExceededError(f"{what} exceeds the budget {precoders.SEARCH_BUDGET}")
    return base**power


def _kind(obj: Dict, keys: Dict[str, Tuple[str, ...]], name: str) -> str:
    """``obj["kind"]``, a key of ``keys``; obj may hold only the keys that kind takes."""
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"{name}.kind must be {'/'.join(keys)}, got {kind!r}")
    unknown = obj.keys() - {"kind", *keys[kind]}
    if unknown:
        raise ConfigError(f"{name} has unknown keys: {sorted(unknown, key=str)}")
    return kind


# The keys each kind of channel source, precoder and region takes besides "kind".
_CHANNEL_KEYS = {"file": ("path",), "random": ("seed",), "inline": ("matrix",)}
_PRECODER_KEYS = {
    "plain": (),
    "slm_random": ("n", "region"),
    "vector_perturb": ("b",),
    "trellis": ("generators", "k_s", "pam"),
    "nested": ("k", "n_u", "q"),
}
_REGION_KEYS = {"hypercube": ("expand",), "ball": ("radius",)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the module docstring for the schema."""

    m: int
    channel_source: Dict
    tau: float
    precoder: Dict
    trials: int
    master_seed: int
    condition_limit: float

    @staticmethod
    def from_dict(d: Dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        required = {"m", "channel_source", "tau", "precoder", "trials", "master_seed"}
        allowed = required | {"condition_limit"}
        missing = required - d.keys()
        if missing:
            raise ConfigError(f"config is missing keys: {sorted(missing)}")
        unknown = d.keys() - allowed
        if unknown:
            raise ConfigError(f"config has unknown keys: {sorted(unknown)}")
        cfg = ExperimentConfig(
            m=_int(d["m"], "m"),
            channel_source=_object(d["channel_source"], "channel_source"),
            tau=_float(d["tau"], "tau"),
            precoder=_object(d["precoder"], "precoder"),
            trials=_int(d["trials"], "trials"),
            master_seed=_int(d["master_seed"], "master_seed"),
            condition_limit=_float(
                d.get("condition_limit", theory.CONDITION_LIMIT), "condition_limit"
            ),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {self.m}")
        _within_budget(self.m, 2, f"the m x m channel, m = {self.m},")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        _within_budget(self.trials, 1, f"trials = {self.trials}")
        if self.condition_limit <= 1:
            raise ConfigError("condition_limit must exceed 1")
        src = self.channel_source
        kind = _kind(src, _CHANNEL_KEYS, "channel_source")
        (key,) = _CHANNEL_KEYS[kind]
        if key not in src:
            raise ConfigError(f"channel_source.kind={kind} requires a {key}")
        if kind == "file" and not isinstance(src["path"], str):
            raise ConfigError(f"channel_source.path must be a string, got {src['path']!r}")
        if kind == "random":
            _int(src["seed"], "channel_source.seed")
        try:
            sigma2 = _scheme(self)[1]
        except OverflowError:
            # tau**m, radius**m or 2**(2h) beyond the float range
            raise ConfigError(
                "tau or region size is too large: the region volume or the "
                "source power overflows a float"
            ) from None
        if sigma2 == 0.0:
            raise ConfigError("tau or region size is too small: the source power underflows")

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ReportIOError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # also an integer literal beyond Python's digit limit
        raise ParseError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(data)


def _parse_channel_csv(text: str, path: str) -> np.ndarray:
    rows: List[List[float]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ParseError(f"{path}:{ln}: non-numeric entry") from None
    if not rows:
        raise ParseError(f"{path}: empty channel file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{path}: rows have unequal column counts")
    if len(rows) != width:
        raise ParseError(
            f"{path}: channel must be square, got {len(rows)} rows x {width} columns"
        )
    return np.array(rows, dtype=np.float64)


def load_channel(
    source: Dict,
    m: Optional[int] = None,
    condition_limit: float = theory.CONDITION_LIMIT,
) -> ChannelMatrix:
    """Build a validated channel from a file, a seeded ensemble, or inline data.

    File format: plain CSV, M rows of M comma-separated decimals, no
    header. Random channels draw i.i.d. standard normal entries from a
    dedicated counter stream of the seed, so the same seed is bit-identical
    across runs and platforms.
    """
    kind = source.get("kind")
    if kind == "file":
        path = source["path"]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ReportIOError(f"cannot read channel file {path}: {exc}") from None
        h = _parse_channel_csv(text, str(path))
    elif kind == "random":
        if m is None:
            raise ConfigError("random channel needs the dimension m")
        gen = regions.channel_stream(int(source["seed"]))
        h = gen.standard_normal((m, m))
    elif kind == "inline":
        try:
            h = np.asarray(source["matrix"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ParseError("channel_source.matrix must be a matrix of numbers") from None
    else:
        raise ConfigError(f"unknown channel source kind {kind!r}")
    if not np.all(np.isfinite(h)):
        raise ParseError("channel matrix has non-finite entries")
    if m is not None and h.shape != (m, m):
        raise ConfigError(f"channel is {h.shape} but config says m = {m}")
    return theory.build_channel(h, condition_limit=condition_limit)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


_Trial = Callable[[ChannelMatrix, int], Tuple[float, float]]


def _scheme(cfg: ExperimentConfig) -> Tuple[int, float, _Trial]:
    """Validate the precoder and build its per-report constants once.

    Returns (candidate count, sigma^2 of the information source, trial),
    where ``trial(ch, t)`` runs trial t and returns (gamma of the precoder,
    gamma with no selection). This is the only code that branches on the
    precoder kind.
    """
    p = cfg.precoder
    kind = _kind(p, _PRECODER_KEYS, "precoder")
    m, tau, seed = cfg.m, cfg.tau, cfg.master_seed
    sigma2 = theory.sigma_from_entropy(math.log2(tau))
    if kind == "plain":
        cube = regions.hypercube(tau, m)

        def trial(ch, t):
            res = precoders.invert_precode(ch, regions.Sampler(cube, seed, t).draw())
            return res.gamma, res.gamma

        return 1, sigma2, trial
    if kind == "slm_random":
        n = _int(p.get("n", 0), "precoder.n")
        if n < 1:
            raise ConfigError("slm_random requires n >= 1")
        _within_budget(n, 1, f"n = {n}")
        spec = _object(p.get("region", {"kind": "hypercube"}), "precoder.region")
        if _kind(spec, _REGION_KEYS, "precoder.region") == "ball":
            radius = _float(spec.get("radius", 0.0), "region.radius")
            if radius <= 0.0:
                raise ConfigError("ball region requires a positive radius")
            try:
                region = regions.ball(radius, m)
            except ValueError:  # log2 of a volume that underflows to 0
                raise ConfigError("ball radius is too small: the region volume underflows") from None
            sigma2 = theory.sigma_from_entropy(region.entropy_bits_per_dim)
        else:
            expand = spec.get("expand", True)
            if not isinstance(expand, bool):
                raise ConfigError(f"region.expand must be true or false, got {expand!r}")
            base = regions.hypercube(tau, m)
            region = regions.expanded_region(base, n) if expand else base

        def trial(ch, t):
            candidates = regions.Sampler(region, seed, t).draw(n)
            res = precoders.slm_random(ch, candidates)
            return res.gamma, ch.energy(candidates[0])

        return n, sigma2, trial
    if kind == "vector_perturb":
        b = _int(p.get("b", 0), "precoder.b")
        if b < 1:
            raise ConfigError("vector_perturb requires b >= 1")
        count = _within_budget(b, m, f"b^m = {b}^{m}")
        cube = regions.hypercube(tau, m)

        def trial(ch, t):
            u = regions.Sampler(cube, seed, t).draw()
            res = precoders.vector_perturb(ch, u, tau, b)
            return res.gamma, ch.energy(u)

        return count, sigma2, trial
    if kind == "trellis":
        if _int(p.get("k_s", 1), "precoder.k_s") != 1:
            raise ConfigError("trellis shaping codes have rate 1/n_s: k_s must be 1")
        code = shaping.code_from_octal(p.get("generators", shaping.DEFAULT_CODE_SPEC))
        if m % code.n_s:
            raise ConfigError(f"m = {m} is not divisible by the code's n_s = {code.n_s}")
        pam = _int(p.get("pam", 4), "precoder.pam")
        # max() keeps pam = 0 out of the division; pam_constellation refuses pam < 2
        cons = shaping.pam_constellation(pam, spacing=tau / max(pam, 1))
        zero_codeword = np.zeros(m, dtype=np.int64)

        def trial(ch, t):
            payload = regions.make_stream(seed, t).integers(0, 2, size=m * cons.bits_per_symbol)
            u0 = shaping.payload_to_coset(payload, zero_codeword, cons)
            return shaping.trellis_shape(ch, u0, code).gamma, ch.energy(u0)

        return code.codeword_count(m // code.n_s), sigma2, trial
    # nested
    k_users = _int(p.get("k", 0), "precoder.k")
    n_u = _int(p.get("n_u", 1), "precoder.n_u")
    q = _int(p.get("q", 0), "precoder.q")
    # q = 1 leaves one coset per user: every trial sends zero and carries no data.
    if k_users < 1 or n_u < 1 or q < 2:
        raise ConfigError("nested requires k >= 1, n_u >= 1, q >= 2")
    if k_users * 2 * n_u != m:
        raise ConfigError(f"nested needs K*2*n_u = m, got {k_users}*2*{n_u} != {m}")
    count = _within_budget(q, m, f"q^(2 n_u K) = {q}^{m}")
    part = shaping.lattice_partition(n_u, q, spacing=tau / q)

    def trial(ch, t):
        idx = regions.make_stream(seed, t).integers(0, part.coset_count, size=k_users)
        u = part.cosets[idx].reshape(-1)
        return shaping.nested_select(ch, u, part).gamma, ch.energy(u)

    return count, sigma2, trial


def _run_chunk(
    cfg_dict: Dict, ch: ChannelMatrix, start: int, stop: int
) -> Tuple[int, float, float, float]:
    """Worker entry point: accumulate energies for trials [start, stop)."""
    _, _, trial = _scheme(ExperimentConfig.from_dict(cfg_dict))
    n = 0
    sum_g = 0.0
    sum_g2 = 0.0
    sum_plain = 0.0
    for t in range(start, stop):
        g, g_plain = trial(ch, t)
        n += 1
        sum_g += g
        sum_g2 += g * g
        sum_plain += g_plain
    return n, sum_g, sum_g2, sum_plain


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated experiment outcome plus closed-form references."""

    precoder: str
    m: int
    n_candidates: int
    trials: int
    mean_gamma: float
    stderr_gamma: float
    e_opt: float
    e_slm_limit: float
    channel_gain_db: float
    gain_vs_plain_db: float
    mean_plain: float
    eigenvalues: np.ndarray
    master_seed: int


def information_sigma2(cfg: ExperimentConfig) -> float:
    """sigma^2 of the entropy-matched Gaussian for the experiment's data source."""
    return _scheme(cfg)[1]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run all trials and aggregate; deterministic for any worker count.

    Trial t draws from the stream keyed by (master_seed, t); trials are
    grouped into fixed chunks of 256 whose partial sums are reduced in
    chunk order, so scheduling cannot change the result.
    """
    return _run_all([cfg], workers)[0]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_all(cfgs: Sequence[ExperimentConfig], workers: int) -> List[ExperimentReport]:
    """Reports of the configs, in order; chunks of all of them share one process pool.

    The configs run one after another, each spreading its chunks over the
    pool, so the pool gets no more processes than the largest config has
    chunks, nor than there are usable CPUs; with one, it is not started.
    """
    most_chunks = max((-(-c.trials // TRIAL_CHUNK) for c in cfgs), default=0)
    processes = min(workers, most_chunks, _usable_cpus())
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return [_run(c, pool) for c in cfgs]
    return [_run(c, None) for c in cfgs]


def _run(cfg: ExperimentConfig, pool: Optional[ProcessPoolExecutor]) -> ExperimentReport:
    """One report; its chunks run in ``pool`` if one is given, else in this process."""
    ch = load_channel(cfg.channel_source, cfg.m, cfg.condition_limit)
    n_candidates, sigma2, _ = _scheme(cfg)
    cfg_dict = cfg.to_dict()
    bounds = [
        (s, min(s + TRIAL_CHUNK, cfg.trials)) for s in range(0, cfg.trials, TRIAL_CHUNK)
    ]
    if pool is not None:
        partials = list(
            pool.map(
                _run_chunk,
                [cfg_dict] * len(bounds),
                [ch] * len(bounds),
                [b[0] for b in bounds],
                [b[1] for b in bounds],
            )
        )
    else:
        partials = [_run_chunk(cfg_dict, ch, s, e) for s, e in bounds]
    n = 0
    sum_g = 0.0
    sum_g2 = 0.0
    sum_plain = 0.0
    for cn, cg, cg2, cp in partials:
        n += cn
        sum_g += cg
        sum_g2 += cg2
        sum_plain += cp
    mean = sum_g / n
    if mean == 0.0:
        # every trial sent the zero vector, e.g. nested users whose symbols are all 0
        raise PrecodingError("mean energy is 0, so gain_vs_plain_db is undefined")
    var = max(0.0, (sum_g2 - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    stderr = math.sqrt(var / n)
    mean_plain = sum_plain / n

    rep = theory.theory_report(ch, sigma2)
    return ExperimentReport(
        precoder=cfg.precoder["kind"],
        m=cfg.m,
        n_candidates=n_candidates,
        trials=cfg.trials,
        mean_gamma=mean,
        stderr_gamma=stderr,
        e_opt=rep.e_opt,
        e_slm_limit=rep.e_slm_limit,
        channel_gain_db=10.0 * math.log10(rep.channel_gain),
        gain_vs_plain_db=10.0 * math.log10(mean_plain / mean),
        mean_plain=mean_plain,
        eigenvalues=rep.eigenvalues,
        master_seed=cfg.master_seed,
    )


def sweep_experiment(
    cfg: ExperimentConfig,
    param: str,
    values: Sequence[int],
    workers: int = 1,
) -> List[ExperimentReport]:
    """Re-run the experiment with the precoder's N or b swept over values.

    Every point is validated before any runs, and all points share one
    process pool when ``workers > 1``.
    """
    if param not in ("n", "b"):
        raise ConfigError(f"sweep parameter must be 'n' or 'b', got {param!r}")
    cfgs = []
    for v in values:
        d = cfg.to_dict()
        d["precoder"] = dict(d["precoder"])
        d["precoder"][param] = int(v)
        cfgs.append(ExperimentConfig.from_dict(d))
    return _run_all(cfgs, workers)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _row_fields(report: ExperimentReport) -> List[Tuple[str, object]]:
    return [
        ("precoder", report.precoder),
        ("M", report.m),
        ("N", report.n_candidates),
        ("trials", report.trials),
        ("mean_gamma", report.mean_gamma),
        ("stderr_gamma", report.stderr_gamma),
        ("e_opt", report.e_opt),
        ("e_slm_limit", report.e_slm_limit),
        ("channel_gain_db", report.channel_gain_db),
        ("gain_vs_plain_db", report.gain_vs_plain_db),
        ("seed", report.master_seed),
    ]


def format_csv(reports: Sequence[ExperimentReport]) -> str:
    lines = [CSV_HEADER]
    for rep in reports:
        lines.append(",".join(_fmt(v) for _, v in _row_fields(rep)))
    return "\n".join(lines) + "\n"


def format_json(reports: Sequence[ExperimentReport]) -> str:
    objs = []
    for rep in reports:
        obj = dict(_row_fields(rep))
        obj["eigenvalues"] = [float(x) for x in rep.eigenvalues]
        objs.append(obj)
    payload = objs[0] if len(objs) == 1 else objs
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(reports, fmt: str, path: Optional[str]) -> str:
    """Serialize one report (or a sweep list) as csv/json; write if path given.

    Returns the serialized text.
    """
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    if fmt == "csv":
        text = format_csv(reports)
    elif fmt == "json":
        text = format_json(reports)
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ReportIOError(f"cannot write report {path}: {exc}") from None
    return text
