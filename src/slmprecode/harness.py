"""Experiment runner: configuration, Monte Carlo trials, and reports.

An experiment fixes one channel and one precoder, runs ``trials``
independent trials (trial t draws everything it needs from the counter
stream keyed by (master_seed, t)), and aggregates the empirical transmit
energy against the closed-form references. Trials are chunked into
fixed-size blocks reduced in block order, so reports are byte-identical
for any worker count and across reruns. A chunk owns one stream,
``regions.Streams(master_seed)``, and re-keys it to (master_seed, t) before
trial t, so no trial builds a generator. A config is checked when it is
built, and a report runs one checked snapshot of its config: serial and
pooled chunks run the one trial that snapshot built. ``trials`` is
at most ``precoders.SEARCH_BUDGET`` (2^20); a process pool gets no more
processes than the largest config has chunks or than there are usable CPUs.

A chunk runs its trials a group at a time. Each trial re-keys the stream
and draws its own variates into its row of the group's array; then the
array work runs once for the group: the hypercube map, the PAM map of the
trellis payloads (the one behind ``shaping.payload_to_coset``), the nested
users' coset representatives, and, for vector perturbation and nested, the
fold, the candidates and one ``ChannelMatrix.energies`` call over every
candidate row of the group with an argmin per trial, the private row kernel
behind ``precoders.vector_perturb``. A trellis code whose whole tree of
2^F codewords fits one search batch is scored the same way, every codeword
of the group in one call, by ``shaping._shape_rows``, the row kernel
behind ``shaping.trellis_shape``; a larger tree is searched once per trial.
A group holds at most ``theory.ENERGY_BLOCK`` candidate rows, and a trial
with more is a group of its own. The energies whose bits would change if
batched stay per trial: gamma = ||H^-1 u||^2 of the chosen vector and the
energy with no selection. The ``slm_random`` selection runs once per trial.
A vector-perturbation chunk builds its offset grid once and frees it when
it ends.

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

For ``slm_random`` (n * m at most 2^20) the hypercube region may be
expanded so the carrier volume is N times the information volume (side
tau * N^(1/M)); the ball region is always used as-is (the fixed-region
law). The information entropy — hence sigma^2 and the theory references —
always comes from the base region: log2(tau) bits per dimension for
hypercube-family precoders, (1/M) log2(volume) for the ball.

Shaping codes have rate 1/n_s, so ``k_s`` may be omitted and any value
other than 1 is rejected. ``nested`` is vector perturbation of the K
users' stacked blocks with period q*spacing (spacing = tau/q) and q
offsets per coordinate.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import reprlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

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

# (report column, ExperimentReport field), in column order
_COLUMNS = (
    ("precoder", "precoder"),
    ("M", "m"),
    ("N", "n_candidates"),
    ("trials", "trials"),
    ("mean_gamma", "mean_gamma"),
    ("stderr_gamma", "stderr_gamma"),
    ("e_opt", "e_opt"),
    ("e_slm_limit", "e_slm_limit"),
    ("channel_gain_db", "channel_gain_db"),
    ("gain_vs_plain_db", "gain_vs_plain_db"),
    ("seed", "master_seed"),
)
CSV_HEADER = ",".join(column for column, _ in _COLUMNS)

TRIAL_CHUNK = 256


def _int(value, name: str) -> int:
    """An integer config field; booleans and non-integral numbers are rejected."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if integral or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {reprlib.repr(value)}")


def _float(value, name: str) -> float:
    """A real config field; booleans, nan and numbers past the float range are rejected."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and abs(value) <= sys.float_info.max:  # exact for an int: no OverflowError
        return float(value)
    raise ConfigError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def _object(value, name: str) -> Dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {reprlib.repr(value)}")
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
        raise ConfigError(f"{name}.kind must be {'/'.join(keys)}, got {reprlib.repr(kind)}")
    unknown = obj.keys() - {"kind", *keys[kind]}
    if unknown:
        raise ConfigError(f"{name} has unknown keys: {reprlib.repr(sorted(unknown, key=str))}")
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


def _channel_kind(src) -> str:
    """The kind of a channel source, after checking the source against its schema."""
    kind = _kind(_object(src, "channel_source"), _CHANNEL_KEYS, "channel_source")
    (key,) = _CHANNEL_KEYS[kind]
    if key not in src:
        raise ConfigError(f"channel_source.kind={kind} requires a {key}")
    if kind == "file" and not isinstance(src["path"], str):
        raise ConfigError(f"channel_source.path must be a string, got {reprlib.repr(src['path'])}")
    if kind == "random":
        _int(src["seed"], "channel_source.seed")
    return kind


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description (schema in the module docstring), checked however it is built."""

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
        allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
        missing = allowed - {"condition_limit"} - d.keys()
        if missing:
            raise ConfigError(f"config is missing keys: {sorted(missing)}")
        unknown = d.keys() - allowed
        if unknown:
            raise ConfigError(f"config has unknown keys: {reprlib.repr(sorted(unknown, key=str))}")
        return ExperimentConfig(**{"condition_limit": theory.CONDITION_LIMIT, **d})

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            parse = {"int": _int, "float": _float, "Dict": _object}[f.type]  # str annotations
            object.__setattr__(self, f.name, parse(getattr(self, f.name), f.name))
        if self.m < 1:
            raise ConfigError(f"m must be >= 1, got {reprlib.repr(self.m)}")
        _within_budget(self.m, 2, f"the m x m channel, m = {reprlib.repr(self.m)},")
        if self.tau <= 0:
            raise ConfigError(f"tau must be positive, got {self.tau}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {reprlib.repr(self.trials)}")
        _within_budget(self.trials, 1, f"trials = {reprlib.repr(self.trials)}")
        if self.condition_limit <= 1:
            raise ConfigError("condition_limit must exceed 1")
        _channel_kind(self.channel_source)
        try:
            sigma2 = self._built_scheme[1]
        except OverflowError:
            # 2**(2h) beyond the float range
            raise ConfigError(
                "tau or region size is too large: the source power overflows a float"
            ) from None
        if sigma2 == 0.0:
            raise ConfigError("tau or region size is too small: the source power underflows")

    @functools.cached_property
    def _built_scheme(self) -> Tuple[int, float, _Trial]:
        """``_scheme(self)``, built on first read: construction builds it, reports read it."""
        return _scheme(self)

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


def _reason(exc: Exception) -> str:
    """Why a file could not be opened, without the file name an OSError's text repeats."""
    return getattr(exc, "strerror", None) or str(exc)


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file: ReportIOError if it cannot be read, ParseError if not text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ReportIOError(f"cannot read {what} {reprlib.repr(path)}: {_reason(exc)}") from None
    except ValueError as exc:  # not UTF-8, or a NUL in the path
        raise ParseError(f"cannot read {what} {reprlib.repr(path)}: {exc}") from None


def write_text(path: str, text: str, what: str) -> None:
    """Write text to a UTF-8 file; ReportIOError if it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ReportIOError(f"cannot write {what} {reprlib.repr(path)}: {_reason(exc)}") from None


def read_config(path: str) -> Dict:
    """The JSON object of a config file, not yet checked as a config."""
    try:
        data = json.loads(_read_text(path, "config"))
    except (ValueError, RecursionError) as exc:  # also an over-long integer literal
        raise ParseError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def load_config(path: str) -> ExperimentConfig:
    """Read a JSON config file and build its config."""
    return ExperimentConfig.from_dict(read_config(path))


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
    source: Dict, m: int, condition_limit: float = theory.CONDITION_LIMIT
) -> ChannelMatrix:
    """Build a validated m x m channel from a file, a seeded ensemble, or inline data.

    File format: plain CSV, M rows of M comma-separated decimals, no
    header. Random channels draw i.i.d. standard normal entries from a
    dedicated counter stream of the seed, so the same seed is bit-identical
    across runs and platforms.
    """
    kind = _channel_kind(source)
    if kind == "file":
        path = source["path"]
        h = _parse_channel_csv(_read_text(path, "channel file"), path)
    elif kind == "random":
        h = regions.channel_stream(int(source["seed"])).standard_normal((m, m))
    else:
        try:
            h = np.asarray(source["matrix"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ParseError("channel_source.matrix must be a matrix of numbers") from None
    if not np.all(np.isfinite(h)):
        raise ParseError("channel matrix has non-finite entries")
    if h.shape != (m, m):
        raise ConfigError(f"channel is {h.shape} but config says m = {m}")
    return theory.build_channel(h, condition_limit=condition_limit)


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


# trial(ch, streams, trials) yields (gamma of the precoder, gamma with no
# selection) for each trial t of the range, drawn from streams.at(t)
_Trial = Callable[[ChannelMatrix, regions.Streams, range], Iterator[Tuple[float, float]]]

# Candidate rows whose energies one group of trials evaluates together: one
# energy block, so a group's arrays stay as small as that block's product; a
# trial with more candidates than that is a group of its own.
_GROUP_ROWS = theory.ENERGY_BLOCK


def _groups(trials: range, rows: int) -> Iterator[range]:
    """``trials`` in consecutive groups of trials with at most _GROUP_ROWS rows, one at least."""
    size = max(1, _GROUP_ROWS // rows)
    return (trials[i:i + size] for i in range(0, len(trials), size))


def _integer_rows(streams: regions.Streams, trials: range, high: int, size: int) -> np.ndarray:
    """Row i: the ``size`` integers in [0, high) that trial ``trials[i]`` draws from its stream."""
    out = np.empty((len(trials), size), dtype=np.int64)
    for row, t in zip(out, trials):
        row[:] = streams.at(t).integers(0, high, size=size)
    return out


def _nested_rows(part, k_users, streams, trials) -> np.ndarray:
    """Row i: the K users' stacked coset representatives of trial ``trials[i]``."""
    idx = _integer_rows(streams, trials, part.coset_count, k_users)
    return part.representatives(idx).reshape(len(trials), -1)


def _plain_chunk(cube, ch, streams, trials):
    for group in _groups(trials, 1):
        for u in regions.draw_rows(cube, streams, group):
            g = precoders._transmit(ch, u)[1]
            yield g, g


def _slm_random_chunk(region, n, ch, streams, trials):
    for t in trials:
        candidates = regions.draw(region, streams.at(t), n)
        gammas = precoders.slm_random(ch, candidates).gamma, ch.energy(candidates[0])
        del candidates  # freed before the yield, not kept while the next trial draws
        yield gammas


def _perturb_chunk(draw_rows, tau, b, ch, streams, trials):
    """Vector perturbation (period tau, b offsets per coordinate) of the rows ``draw_rows`` gives."""
    scaled = tau * precoders._offset_grid(b, ch.m)
    for group in _groups(trials, len(scaled)):
        u = draw_rows(streams, group)
        chosen, _ = precoders._perturb_rows(ch, u, scaled, tau)
        for row, u_row in zip(chosen, u):
            yield precoders._transmit(ch, row)[1], ch.energy(u_row)


def _trellis_chunk(code, cons, ch, streams, trials):
    """Trellis shaping: a whole code tree a group of trials at a time, a larger one searched per trial."""
    n_steps = ch.m // code.n_s
    whole = shaping._whole_tree(code, n_steps)
    for group in _groups(trials, code.codeword_count(n_steps) if whole else 1):
        payload = _integer_rows(streams, group, 2, ch.m * cons.bits_per_symbol)
        u0_rows = shaping._pam_map(payload, cons)
        if whole:
            for row, u0 in zip(shaping._shape_rows(ch, u0_rows, code)[0], u0_rows):
                yield precoders._transmit(ch, row)[1], ch.energy(u0)
        else:
            for u0 in u0_rows:
                yield shaping.trellis_shape(ch, u0, code).gamma, ch.energy(u0)


def _scheme(cfg: ExperimentConfig) -> Tuple[int, float, _Trial]:
    """Validate the precoder and build its per-report constants once.

    Returns (candidate count, sigma^2 of the information source, trial),
    the trial (``_Trial``) being one of the ``_*_chunk`` functions with its
    constants bound, so it pickles to pool workers. ``nested`` runs the
    vector perturbation chunk on the rows of its users' representatives.
    This is the only code that branches on the precoder kind.
    """
    p = cfg.precoder
    kind = _kind(p, _PRECODER_KEYS, "precoder")
    m, tau = cfg.m, cfg.tau
    sigma2 = theory.sigma_from_entropy(math.log2(tau))
    if kind == "plain":
        return 1, sigma2, functools.partial(_plain_chunk, regions.hypercube(tau, m))
    if kind == "slm_random":
        n = _int(p.get("n", 0), "precoder.n")
        if n < 1:
            raise ConfigError("slm_random requires n >= 1")
        _within_budget(n * m, 1, f"n * m = {reprlib.repr(n)} * {m}")
        spec = _object(p.get("region", {"kind": "hypercube"}), "precoder.region")
        if _kind(spec, _REGION_KEYS, "precoder.region") == "ball":
            radius = _float(spec.get("radius", 0.0), "region.radius")
            if radius <= 0.0:
                raise ConfigError("ball region requires a positive radius")
            region = regions.ball(radius, m)
            sigma2 = theory.sigma_from_entropy(region.entropy_bits_per_dim)
        else:
            expand = spec.get("expand", True)
            if not isinstance(expand, bool):
                got = reprlib.repr(expand)
                raise ConfigError(f"region.expand must be true or false, got {got}")
            base = regions.hypercube(tau, m)
            region = regions.expanded_region(base, n) if expand else base
        return n, sigma2, functools.partial(_slm_random_chunk, region, n)
    if kind == "vector_perturb":
        b = _int(p.get("b", 0), "precoder.b")
        if b < 1:
            raise ConfigError("vector_perturb requires b >= 1")
        count = _within_budget(b, m, f"b^m = {reprlib.repr(b)}^{m}")
        draw_rows = functools.partial(regions.draw_rows, regions.hypercube(tau, m))
        return count, sigma2, functools.partial(_perturb_chunk, draw_rows, tau, b)
    if kind == "trellis":
        if _int(p.get("k_s", 1), "precoder.k_s") != 1:
            raise ConfigError("trellis shaping codes have rate 1/n_s: k_s must be 1")
        code = shaping.code_from_octal(p.get("generators", shaping.DEFAULT_CODE_SPEC))
        if m % code.n_s:
            raise ConfigError(f"m = {m} is not divisible by the code's n_s = {code.n_s}")
        # the PAM size is checked before tau / pam can overflow or divide by 0
        levels = shaping.pam_levels(_int(p.get("pam", 4), "precoder.pam"), "precoder.pam")
        cons = shaping.pam_constellation(levels, spacing=tau / levels)
        trial = functools.partial(_trellis_chunk, code, cons)
        return code.codeword_count(m // code.n_s), sigma2, trial
    # nested
    k_users = _int(p.get("k", 0), "precoder.k")
    n_u = _int(p.get("n_u", 1), "precoder.n_u")
    q = _int(p.get("q", 0), "precoder.q")
    # q = 1 leaves one coset per user: every trial sends zero and carries no data.
    if k_users < 1 or n_u < 1 or q < 2:
        raise ConfigError("nested requires k >= 1, n_u >= 1, q >= 2")
    if k_users * 2 * n_u != m:
        got = f"{reprlib.repr(k_users)}*2*{reprlib.repr(n_u)}"
        raise ConfigError(f"nested needs K*2*n_u = m, got {got} != {m}")
    count = _within_budget(q, m, f"q^(2 n_u K) = {reprlib.repr(q)}^{m}")
    part = shaping.lattice_partition(n_u, q, spacing=tau / q)
    draw_rows = functools.partial(_nested_rows, part, k_users)
    return count, sigma2, functools.partial(_perturb_chunk, draw_rows, part.modulo_period, q)


def _run_chunk(
    trial: _Trial, seed: int, ch: ChannelMatrix, k: int, trials: range
) -> Tuple[float, float, float]:
    """Worker entry point: sums of gamma / 2^k, its square and plain gamma / 2^k over trials.

    The chunk owns one stream, which the trial re-keys to (seed, t) before
    trial t draws, so it draws what ``regions.make_stream(seed, t)`` would.
    The trial's values are summed in trial order. An energy that overflows
    a float sums to inf, which ``_run`` refuses, so numpy's overflow warning
    is not raised here.
    """
    sum_g = 0.0
    sum_g2 = 0.0
    sum_plain = 0.0
    with np.errstate(over="ignore"):
        for g, g_plain in trial(ch, regions.Streams(seed), trials):
            g = math.ldexp(g, -k)
            sum_g += g
            sum_g2 += g * g
            sum_plain += math.ldexp(g_plain, -k)
    return sum_g, sum_g2, sum_plain


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
    return cfg._built_scheme[1]


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
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    most_chunks = max((-(-c.trials // TRIAL_CHUNK) for c in cfgs), default=0)
    processes = min(workers, most_chunks, _usable_cpus())
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return [_run(c, pool) for c in cfgs]
    return [_run(c, None) for c in cfgs]


def _run(cfg: ExperimentConfig, pool: Optional[ProcessPoolExecutor]) -> ExperimentReport:
    """One report of one checked snapshot of ``cfg``; its chunks run in ``pool`` if given.

    Energies are summed divided by 2^k, k the binary exponent of e_opt, so their
    squares stay in the float range; that scaling is exact, so it leaves the
    report's bytes as they are.
    """
    # the channel first: a matrix nested too deep is refused before to_dict recurses
    ch = load_channel(cfg.channel_source, cfg.m, cfg.condition_limit)
    cfg = ExperimentConfig.from_dict(cfg.to_dict())
    n_candidates, sigma2, trial = cfg._built_scheme
    rep = theory.theory_report(ch, sigma2)
    k = math.frexp(rep.e_opt)[1]
    n = cfg.trials
    chunks = (range(s, min(s + TRIAL_CHUNK, n)) for s in range(0, n, TRIAL_CHUNK))
    chunk = functools.partial(_run_chunk, trial, cfg.master_seed, ch, k)
    partials = (map if pool is None else pool.map)(chunk, chunks)
    sum_g = 0.0
    sum_g2 = 0.0
    sum_plain = 0.0
    for cg, cg2, cp in partials:  # not sum(): from Python 3.12 it compensates floats
        sum_g += cg
        sum_g2 += cg2
        sum_plain += cp
    mean = sum_g / n
    mean_plain = sum_plain / n
    if not (math.isfinite(mean) and math.isfinite(mean_plain)):
        raise PrecodingError("the mean transmit energy overflows a float")
    if mean == 0.0:
        # every trial sent the zero vector, e.g. nested users whose symbols are all 0
        raise PrecodingError("mean energy is 0, so gain_vs_plain_db is undefined")
    var = max(0.0, (sum_g2 - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    stderr = math.sqrt(var / n)
    return ExperimentReport(
        precoder=cfg.precoder["kind"],
        m=cfg.m,
        n_candidates=n_candidates,
        trials=cfg.trials,
        mean_gamma=math.ldexp(mean, k),
        stderr_gamma=math.ldexp(stderr, k),
        e_opt=rep.e_opt,
        e_slm_limit=rep.e_slm_limit,
        channel_gain_db=10.0 * math.log10(rep.channel_gain),
        gain_vs_plain_db=10.0 * math.log10(mean_plain / mean),
        mean_plain=math.ldexp(mean_plain, k),
        eigenvalues=rep.eigenvalues,
        master_seed=cfg.master_seed,
    )


def sweep_experiment(
    cfg: Union[ExperimentConfig, Dict],
    param: str,
    values: Sequence[int],
    workers: int = 1,
) -> List[ExperimentReport]:
    """Re-run the experiment with the precoder's N or b swept over values.

    ``cfg`` is a config or a config dict (``read_config``). Only the swept
    points are built and checked, all before any runs, so a dict whose own N
    or b is over the budget still sweeps values within it. All points share
    one process pool when ``workers > 1``.
    """
    if param not in ("n", "b"):
        raise ConfigError(f"sweep parameter must be 'n' or 'b', got {param!r}")
    if isinstance(cfg, ExperimentConfig):  # not to_dict: that copies an inline matrix
        cfg = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    precoder = _object(cfg.get("precoder"), "precoder")
    points = [{**cfg, "precoder": {**precoder, param: v}} for v in values]
    return _run_all([ExperimentConfig.from_dict(d) for d in points], workers)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _row_fields(report: ExperimentReport) -> List[Tuple[str, object]]:
    return [(column, getattr(report, field)) for column, field in _COLUMNS]


def format_csv(reports: Sequence[ExperimentReport]) -> str:
    lines = [CSV_HEADER]
    for rep in reports:
        lines.append(",".join(_fmt(v) for _, v in _row_fields(rep)))
    return "\n".join(lines) + "\n"


def _json_obj(report: ExperimentReport) -> Dict:
    obj = dict(_row_fields(report))
    obj["eigenvalues"] = [float(x) for x in report.eigenvalues]
    return obj


def format_json(reports) -> str:
    """One report as a JSON object; a sequence of reports (a sweep) as an array."""
    if isinstance(reports, ExperimentReport):
        payload = _json_obj(reports)
    else:
        payload = [_json_obj(rep) for rep in reports]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_report(reports, fmt: str, path: Optional[str]) -> str:
    """Serialize one report (or a sweep list) as csv/json; write if path given.

    Returns the serialized text.
    """
    if fmt == "csv":
        text = format_csv([reports] if isinstance(reports, ExperimentReport) else reports)
    elif fmt == "json":
        text = format_json(reports)
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if path is not None:
        write_text(path, text, "report")
    return text
