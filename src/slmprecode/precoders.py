"""Channel-inversion precoding and selective-mapping candidate search.

All precoders here share one geometry: the transmitter sends s = H^-1 u,
costing energy gamma = ||s||^2 = u^T Q u, and selective mapping (SLM) picks
the cheapest u among N equivalent representations of the same information.
Two realizations are implemented:

* ``slm_random`` — the information is carried by any one of N i.i.d.
  candidate vectors (the random-coding picture behind the asymptotic laws);
* ``vector_perturb`` — the candidates are u + tau * l for integer offset
  vectors l in a centered box, undone at each receiver by a modulo-tau fold,
  searched in groups of a task's rows, at most ``theory.GROUP_ENTRIES`` candidates.

Receivers act independently per coordinate; ``receiver_verify`` checks that
noiseless reception followed by the per-user fold recovers the original
data exactly (the independency condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from . import linalg, theory
from .errors import (
    DimensionMismatchError,
    EmptyCandidateSetError,
    SearchBudgetExceededError,
)
from .theory import ChannelMatrix

SEARCH_BUDGET = 2**20


@dataclass(frozen=True)
class PrecodeResult:
    """Outcome of one precoding decision.

    ``u_chosen`` is the data vector actually transmitted (after any
    selection or perturbation), ``s = H^-1 u_chosen`` the transmit vector
    before normalization, and ``gamma = ||s||^2`` its energy.
    ``candidate_index`` identifies the winner among ``n_candidates``
    (always 0 of 1 for plain inversion). ``meta`` carries
    scheme-specific selection metadata, e.g. the chosen integer offset or
    shaping codeword.
    """

    u_chosen: np.ndarray
    s: np.ndarray
    gamma: float
    candidate_index: int
    n_candidates: int
    meta: Dict[str, Any] = field(default_factory=dict)


def precode_result(ch: ChannelMatrix, u: np.ndarray, index: int, count: int,
                   **meta: Any) -> PrecodeResult:
    """The result of transmitting ``u``: s = H^-1 u and gamma = ``ch.gamma(u)`` = ||s||^2."""
    return PrecodeResult(u, ch.h_inv @ u, ch.gamma(u), index, count, meta)


def check_dim(ch: ChannelMatrix, u: np.ndarray, name: str = "u") -> np.ndarray:
    u = linalg.as_vector(u, name)
    if u.shape[0] != ch.m:
        raise DimensionMismatchError(
            f"{name} has length {u.shape[0]} but channel is {ch.m}x{ch.m}"
        )
    return u


def invert_precode(ch: ChannelMatrix, u) -> PrecodeResult:
    """Plain channel inversion: s = H^-1 u, no selection."""
    return precode_result(ch, check_dim(ch, u), 0, 1)


def slm_random(ch: ChannelMatrix, candidates) -> PrecodeResult:
    """Select the minimum-energy candidate; ties go to the lowest index.

    ``candidates`` is a sequence of M-vectors or an (N, M) array. All
    candidates are assumed to carry the same information.
    """
    rows = np.asarray(candidates, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise EmptyCandidateSetError("need at least one candidate vector")
    if rows.shape[1] != ch.m:
        raise DimensionMismatchError(
            f"candidates have dimension {rows.shape[1]} but channel is {ch.m}x{ch.m}"
        )
    if not np.all(np.isfinite(rows)):
        raise ValueError("candidates contains non-finite entries")
    energies = ch.energies(rows)
    best = int(np.argmin(energies))
    return precode_result(ch, rows[best].copy(), best, rows.shape[0])


def offset_range(b: int) -> np.ndarray:
    """The b integer offsets floor(-b/2)+1 .. floor(b/2), always containing 0."""
    lo = -(b // 2) + (0 if b % 2 else 1)
    hi = b // 2
    return np.arange(lo, hi + 1)


def lex_digits(idx, base: int, width: int) -> np.ndarray:
    """The ``width`` base-``base`` digits of each index, most significant first, as a last axis."""
    digits = np.asarray(idx)[..., None] // base ** np.arange(width - 1, -1, -1)
    digits %= base
    return digits


def _offset_grid(b: int, m: int) -> np.ndarray:
    """The b^m offset vectors as float rows, the first coordinate varying slowest.

    A grid may be as large as SEARCH_BUDGET rows, so ``_perturb_rows`` builds
    it once per call, for one search or one task of trials, and keeps none.
    """
    return lex_digits(np.arange(b**m), b, m) + float(offset_range(b)[0])


def _perturb_rows(ch: ChannelMatrix, u: np.ndarray, tau: float, b: int) -> np.ndarray:
    """The vector perturbation (period tau, b offsets per coordinate) chosen for each row of ``u``.

    Row i's candidates are its fold into [-tau/2, tau/2) plus tau times each
    row of the offset grid. The rows run in groups of at most
    ``theory.GROUP_ENTRIES`` candidates, one row at least; the energies of a
    group's candidates come from one ``ch.energies`` call, whose rows keep
    their bits whatever rows share the call, and ties go to the lowest index.
    A group is filled with the grid, then adds its folds in place: the same
    adds as ``scaled + base``, but each add runs over a whole candidate row.
    """
    scaled = tau * _offset_grid(b, ch.m)
    base = fold_interval(u, tau)
    chosen = np.empty(base.shape)
    size = theory.group_rows(len(scaled))
    for start in range(0, len(u), size):
        rows = base[start:start + size]
        candidates = np.empty((len(rows),) + scaled.shape)
        candidates[...] = scaled
        candidates += rows[:, None, :]
        energies = ch.energies(candidates.reshape(-1, ch.m)).reshape(len(candidates), -1)
        chosen[start:start + size] = candidates[np.arange(len(candidates)), energies.argmin(axis=1)]
    return chosen


def vector_perturb(
    ch: ChannelMatrix,
    u,
    tau: float,
    b: int,
) -> PrecodeResult:
    """Vector perturbation: minimize gamma over u + tau*l, l in a centered box.

    The data vector is first folded into [-tau/2, tau/2) (the transmitter
    modulo), so the searched candidate set depends only on u's coset and
    the energy is invariant under u -> u + tau*k. Each of the M
    coordinates of l then ranges over the b integers
    floor(-b/2)+1 .. floor(b/2), for N = b^M candidates, searched
    exhaustively (no sphere-decoder shortcuts); N above ``SEARCH_BUDGET``
    raises SearchBudgetExceededError. Ties are broken toward the
    lexicographically smallest l. ``meta["offset"]`` records the total
    integer perturbation (u_chosen - u)/tau including the fold. Receivers
    undo everything with a modulo-tau fold.
    """
    u = check_dim(ch, u)
    b = int(b)
    if b < 1:
        raise ValueError("b must be >= 1")
    m = ch.m
    n = b**m
    if n > SEARCH_BUDGET:
        raise SearchBudgetExceededError(
            f"b^M = {b}^{m} = {n} exceeds the exhaustive-search budget {SEARCH_BUDGET}"
        )
    (u_chosen,) = _perturb_rows(ch, u[None], tau, b)
    l_total = np.rint((u_chosen - u) / tau).astype(np.int64)
    # the chosen grid row's index: its digits, counted from the fold, most significant first
    digits = np.rint((u_chosen - fold_interval(u, tau)) / tau) - offset_range(b)[0]
    index = int(digits.astype(np.int64) @ b ** np.arange(m - 1, -1, -1))
    return precode_result(ch, u_chosen, index, n, offset=l_total, tau=float(tau), b=b)


def fold_interval(x, tau: float):
    """Map values into [-tau/2, tau/2) by subtracting the right multiple of tau.

    Uses floor((x + tau/2)/tau), so the boundary x = tau/2 wraps to -tau/2,
    matching the half-open sampling interval.
    """
    if not 0.0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    x = np.asarray(x, dtype=np.float64)
    r = x - tau * np.floor(x / tau + 0.5)
    edge = (r < -tau / 2) | (r >= tau / 2)
    if edge.any():  # the floor missed by one; fmod and a shift by tau are exact (Sterbenz)
        f = np.fmod(x, tau)
        r = np.where(edge, f - tau * ((f >= tau / 2) * 1.0 - (f < -tau / 2)), r)
    return r


def receiver_verify(
    ch: ChannelMatrix,
    result: PrecodeResult,
    u_original,
    tau: float,
) -> bool:
    """Check the independency condition on a noiseless channel.

    Forms y = H s, then each user folds only its own coordinate into
    [-tau/2, tau/2) and compares against its own original data coordinate.
    True iff every user recovers its data within 1e-8; a non-finite y fails.
    """
    u_original = check_dim(ch, u_original, "u_original")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN where y is not finite: no match
        gap = np.abs(fold_interval(ch.h @ result.s, tau) - u_original)
    # Wrap-around aliasing: -tau/2 and tau/2 are the same point.
    return bool(np.all((gap <= 1e-8) | (np.abs(gap - tau) <= 1e-8)))
