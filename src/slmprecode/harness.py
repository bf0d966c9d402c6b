"""Experiment runner: configuration, Monte Carlo trials, and reports.

An experiment fixes one channel and one precoder, runs ``trials``
independent trials (trial t draws everything it needs from the counter
stream keyed by (master_seed, t)), and aggregates the empirical transmit
energy against the closed-form references. Trials are reduced in chunks of
``TRIAL_CHUNK``, each chunk's sums running in trial order and the chunks'
in chunk order, so reports are byte-identical for any worker count and
across reruns. The chunks run in tasks, runs of whole chunks (see ``_run``).
A config is checked when it is built, an inline matrix's entries too, and
holds its own copy of its two dicts and the matrix's rows; a report runs
one snapshot of it, built before any report runs, whose trial serial and
pooled tasks run, on the one read-only channel ``load_channel`` keeps.
``trials`` is at most ``precoders.SEARCH_BUDGET`` (2^20); a process pool
gets no more processes than the largest config has chunks or than there
are usable CPUs.

A task draws every trial's data row at once, in vectorized Philox passes
with numpy's bits (``regions.draw_rows``, ``regions.integer_rows``), so no
trial builds a generator: row i holds what trial ``trials[i]`` draws
(trellis payload bits as uint8). The hypercube map, the PAM map behind
``shaping.payload_to_coset`` and the nested users' coset representatives
run once on it. The kernel that selects, ``precoders._perturb_rows`` for
vector perturbation and nested or ``shaping.shape_rows`` for trellis,
takes the whole array and sizes its own groups of trials. ``slm_random``
draws one large block a trial from ``regions.make_stream(master_seed, t)``
and selects once per trial. A trial returns the rows it sends and would
send with no selection, and ``ChannelMatrix.gamma`` and ``energy`` give
their energies, one call per array for a task's rows (see ``theory``).

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

import copy
import dataclasses
import functools
import json
import math
import numbers
import os
import reprlib
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    return value


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


def _channel_kind(src) -> Tuple[str, Optional[np.ndarray]]:
    """A checked channel source's kind, and its inline matrix as an array (else None)."""
    kind = _kind(_object(src, "channel_source"), _CHANNEL_KEYS, "channel_source")
    (key,) = _CHANNEL_KEYS[kind]
    if key not in src:
        raise ConfigError(f"channel_source.kind={kind} requires a {key}")
    if kind == "file" and not isinstance(src["path"], str):
        raise ConfigError(f"channel_source.path must be a string, got {reprlib.repr(src['path'])}")
    if kind == "random":
        _int(src["seed"], "channel_source.seed")
    h = None
    if kind == "inline":
        try:
            h = np.asarray(src["matrix"])
        except (TypeError, ValueError):  # ragged, or nested past numpy's dimension limit
            h = np.asarray(None)  # an object array, refused below
        # the dtype finds strings and booleans; a list's row scan, a boolean cast to a number
        rows = src["matrix"] if h.ndim == 2 and isinstance(src["matrix"], (list, tuple)) else ()
        if h.dtype.kind not in "iuf" or any({bool, np.bool_} & set(map(type, r)) for r in rows):
            raise ParseError("channel_source.matrix must be a matrix of numbers")
    return kind, h


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
        d = _object(d, "config")
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
        h = _channel_kind(self.channel_source)[1]
        try:
            sigma2 = self._built_scheme[1]
        except OverflowError:
            # 2**(2h) beyond the float range
            raise ConfigError(
                "tau or region size is too large: the source power overflows a float"
            ) from None
        if sigma2 == 0.0:
            raise ConfigError("tau or region size is too small: the source power underflows")
        src = self.channel_source  # an array or other buffer matrix is held as an equal list
        if h is not None and type(src["matrix"]) not in (list, tuple):
            object.__setattr__(self, "channel_source", {**src, "matrix": h.tolist()})
        for name in ("channel_source", "precoder"):  # own copies; only a matrix nests rows
            own = {k: type(v)(map(copy.copy, v)) if type(v) in (list, tuple) else copy.copy(v)
                   for k, v in getattr(self, name).items()}
            object.__setattr__(self, name, own)

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
    return _object(data, "config")


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


_channels: Dict[tuple, ChannelMatrix] = {}  # load_channel's, least recently used first
_channel_entries = 0
_channels_lock = threading.Lock()


def load_channel(
    source: Dict, m: int, condition_limit: float = theory.CONDITION_LIMIT
) -> ChannelMatrix:
    """Build a validated m x m channel from a file, a seeded ensemble, or inline data.

    File format: plain CSV, M rows of M comma-separated decimals, no
    header. Random channels draw i.i.d. standard normal entries from a
    dedicated counter stream of the seed, so the same seed is bit-identical
    across runs and platforms. A process builds one read-only channel a key:
    the file's text (read every call), the seed or the inline matrix's float64
    bytes, with m and condition_limit. Refused ones are not kept; the least recently used go
    while the kept, max(m^2, ``theory.GROUP_ENTRIES``) each, hold over ``precoders.SEARCH_BUDGET``.
    """
    global _channel_entries
    kind, h = _channel_kind(source)
    text = _read_text(source["path"], "channel file") if kind == "file" else None
    seed = int(source["seed"]) if kind == "random" else None
    matrix = (h.shape, h.astype(np.float64).tobytes()) if kind == "inline" else None
    key = (text, seed, matrix, m, condition_limit)
    with _channels_lock:
        ch = _channels.pop(key, None)  # put back last, as the most recently used
        if ch is None:
            if kind == "file":
                h = _parse_channel_csv(text, source["path"])
            elif kind == "random":
                h = regions.channel_stream(seed).standard_normal((m, m))
            if not np.all(np.isfinite(h)):
                raise ParseError("channel matrix has non-finite entries")
            if h.shape != (m, m):
                raise ConfigError(f"channel is {h.shape} but config says m = {m}")
            ch = theory.build_channel(h, condition_limit=condition_limit)
            _channel_entries += max(ch.m ** 2, theory.GROUP_ENTRIES)
        _channels[key] = ch
        while _channel_entries > precoders.SEARCH_BUDGET:
            _channel_entries -= max(_channels.pop(next(iter(_channels))).m ** 2, theory.GROUP_ENTRIES)
    return ch


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


# trial(ch, seed, trials) returns two (T, M) arrays: row i is what trial trials[i] sends and
# would send with no selection (one array if nothing is selected), from make_stream(seed, t)
_Trial = Callable[[ChannelMatrix, int, range], Tuple[np.ndarray, np.ndarray]]


def _nested_rows(part, k_users, seed, trials) -> np.ndarray:
    """Row i: the K users' stacked coset representatives of trial ``trials[i]``."""
    # signed: representatives subtracts q // 2 from the digits
    idx = regions.integer_rows(seed, trials, part.coset_count, k_users, np.int64)
    return part.representatives(idx).reshape(len(trials), -1)


def _slm_random_chunk(region, n, ch, seed, trials):
    chosen, unselected = np.empty((2, len(trials), ch.m))
    for i, t in enumerate(trials):
        candidates = regions.draw(region, regions.make_stream(seed, t), n)
        chosen[i], unselected[i] = precoders.slm_random(ch, candidates).u_chosen, candidates[0]
        del candidates  # freed before the next trial draws
    return chosen, unselected


def _trellis_rows(cons, m, seed, trials) -> np.ndarray:
    """Row i: the zero-codeword point of the uint8 payload bits trial ``trials[i]`` draws."""
    bits = regions.integer_rows(seed, trials, 2, m * cons.bits_per_symbol, np.uint8)
    return shaping._pam_map(bits, cons)


def _select_chunk(draw_rows, select, ch, seed, trials):
    """The rows ``select`` chooses for every trial's row that ``draw_rows`` draws at once."""
    u = draw_rows(seed, trials)
    return select(ch, u), u


def _as_drawn(ch, u):
    return u


def _scheme(cfg: ExperimentConfig) -> Tuple[int, float, _Trial]:
    """Validate the precoder and build its per-report constants once.

    Returns (candidate count, sigma^2 of the information source, trial),
    the trial (``_Trial``) being ``_slm_random_chunk`` or ``_select_chunk``
    with its constants bound, so it pickles to pool workers. The latter binds
    a draw and a select: ``plain`` sends its rows as drawn (``_as_drawn``).
    This is the only code that branches on the precoder kind.
    """
    p = cfg.precoder
    kind = _kind(p, _PRECODER_KEYS, "precoder")
    m, tau = cfg.m, cfg.tau
    sigma2 = theory.sigma_from_entropy(math.log2(tau))
    if kind == "plain":
        draw_rows = functools.partial(regions.draw_rows, regions.hypercube(tau, m))
        return 1, sigma2, functools.partial(_select_chunk, draw_rows, _as_drawn)
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
        select = functools.partial(precoders._perturb_rows, tau=tau, b=b)
        return count, sigma2, functools.partial(_select_chunk, draw_rows, select)
    if kind == "trellis":
        if _int(p.get("k_s", 1), "precoder.k_s") != 1:
            raise ConfigError("trellis shaping codes have rate 1/n_s: k_s must be 1")
        code = shaping.code_from_octal(p.get("generators", shaping.DEFAULT_CODE_SPEC))
        if m % code.n_s:
            raise ConfigError(f"m = {m} is not divisible by the code's n_s = {code.n_s}")
        # the PAM size is checked before tau / pam can overflow or divide by 0
        levels = shaping.pam_levels(_int(p.get("pam", 4), "precoder.pam"), "precoder.pam")
        cons = shaping.pam_constellation(levels, spacing=tau / levels)
        draw_rows = functools.partial(_trellis_rows, cons, m)
        select = functools.partial(shaping.shape_rows, code=code)
        trial = functools.partial(_select_chunk, draw_rows, select)
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
    select = functools.partial(precoders._perturb_rows, tau=part.modulo_period, b=q)
    return count, sigma2, functools.partial(_select_chunk, draw_rows, select)


def _run_chunk(
    trial: _Trial, seed: int, ch: ChannelMatrix, k: int, trials: range
) -> List[List[float]]:
    """Worker entry point: each chunk's sums of gamma / 2^k, its square and plain gamma / 2^k.

    ``trials`` is a task, a run of trials from a chunk's first one; its
    ``TRIAL_CHUNK``-trial pieces, the last maybe short, are its chunks. Trial
    t draws what ``regions.make_stream(seed, t)`` would: the small draws of
    the whole task in vectorized Philox passes (``regions.draw_rows``,
    ``regions.integer_rows``), ``slm_random``'s large one from that stream.
    The task's rows are selected in one kernel call, and the gammas of the
    chosen rows and the energies of the unselected rows come from one call
    each. A chunk's three sums each run from 0.0 in trial order. An energy
    that overflows a float, or its scaled square, sums to inf, which ``_run``
    refuses, so numpy's overflow warning is not raised here.
    """
    with np.errstate(over="ignore"):
        chosen, unselected = trial(ch, seed, trials)
        gammas = ch.gamma(chosen)
        plain = gammas if unselected is chosen else ch.energy(unselected)  # plain: 0 dB
        g = np.ldexp(gammas, -k)
        chunks = -(-len(g) // TRIAL_CHUNK)
        body = np.zeros((3, chunks * TRIAL_CHUNK))
        body[:, :len(g)] = g, g * g, np.ldexp(plain, -k)
        terms = np.zeros((3, chunks, TRIAL_CHUNK + 1))
        terms[:, :, 1:] = body.reshape(3, chunks, TRIAL_CHUNK)
        # a running sum adds in order: from a leading 0.0 it is 0.0 + x_1 + ... + x_T, bit for
        # bit, and the short last chunk's trailing zeros leave its sums as they are
        return np.cumsum(terms, axis=2)[:, :, -1].T.tolist()


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
    """sigma^2 of the entropy-matched Gaussian for the data source of the config as it now is."""
    return _scheme(cfg)[1]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run all trials and aggregate; deterministic for any worker count.

    Trial t draws from the stream keyed by (master_seed, t); trials are
    grouped into fixed chunks of 256 whose partial sums are reduced in
    chunk order, so scheduling cannot change the result. The chunks run in
    tasks of several at once (see ``_run``), which leaves every chunk's sums
    as they are.
    """
    return _run_all([_fields(cfg)], workers)[0]


def _fields(cfg: ExperimentConfig) -> Dict:
    """The config's fields by name, not copied, since ``from_dict`` takes its own copy."""
    return {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_all(points: Sequence[Dict], workers: int) -> List[ExperimentReport]:
    """Reports of the configs the field dicts build, in order, in one process pool.

    Every config is built, so checked, before any report runs. The configs
    run one after another, each spreading its chunks over the pool, so the
    pool gets no more processes than the largest config has chunks, nor than
    there are usable CPUs; with one, it is not started.
    """
    cfgs = [ExperimentConfig.from_dict(d) for d in points]
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    most_chunks = max((-(-c.trials // TRIAL_CHUNK) for c in cfgs), default=0)
    processes = min(workers, most_chunks, _usable_cpus())
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return [_run(c, pool, processes) for c in cfgs]
    return [_run(c, None, 1) for c in cfgs]


def _run(
    cfg: ExperimentConfig, pool: Optional[ProcessPoolExecutor], processes: int
) -> ExperimentReport:
    """The report of ``cfg``; its tasks run in ``pool``, of ``processes`` processes, if given.

    A chunk of ``TRIAL_CHUNK`` trials is the unit of reduction and a task, a
    run of whole chunks, the unit of work: at most ``theory.group_rows(TRIAL_CHUNK
    * m)`` chunks, so a task's rows hold at most max(TRIAL_CHUNK * m,
    ``theory.GROUP_ENTRIES``) entries, and at most ceil(chunks / processes)
    chunks, so each process gets work. Energies are summed divided by 2^k, k the
    binary exponent of e_opt, so their squares stay in the float range; that
    scaling is exact, so it leaves the report's bytes as they are.
    """
    ch = load_channel(cfg.channel_source, cfg.m, cfg.condition_limit)
    n_candidates, sigma2, trial = cfg._built_scheme
    rep = theory.theory_report(ch, sigma2)
    k = math.frexp(rep.e_opt)[1]
    n = cfg.trials
    chunks = -(-n // TRIAL_CHUNK)
    step = TRIAL_CHUNK * min(theory.group_rows(TRIAL_CHUNK * cfg.m), -(-chunks // processes))
    tasks = (range(s, min(s + step, n)) for s in range(0, n, step))
    task = functools.partial(_run_chunk, trial, cfg.master_seed, ch, k)
    sum_g = 0.0
    sum_g2 = 0.0
    sum_plain = 0.0
    for sums in (map if pool is None else pool.map)(task, tasks):
        for cg, cg2, cp in sums:  # in chunk order; not sum(): from Python 3.12 it compensates
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
    base = _fields(cfg) if isinstance(cfg, ExperimentConfig) else cfg
    precoder = _object(base.get("precoder"), "precoder")
    return _run_all([{**base, "precoder": {**precoder, param: v}} for v in values], workers)


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
