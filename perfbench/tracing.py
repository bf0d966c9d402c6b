"""Spans around the package's own calls while it runs a report.

``installed(tracer)`` replaces, for the duration of a ``with`` block, the
module and class attributes through which ``harness`` reaches the other
layers by a wrapper that records a span (or only a count) and hands the call
on unchanged. The report is then run by ``harness.run_experiment`` itself, so
the spans describe the program's own work. Spans live in memory as
(id, parent, name, start, end) rows and are written out when the benchmark
ends. A span's self time is its duration minus what its child spans cover.

Span names are ``<module>.<call>``, so each layer is a package module:

* ``regions.region`` - ``hypercube``, ``ball``, ``expanded_region``;
* ``regions.draw`` - ``Sampler`` construction and ``Sampler.draw``, and
  every draw from a stream that ``make_stream`` returned (``integers``,
  ``random``, ...): the stream is handed on inside a thin wrapper that
  times its draws;
* ``regions.make_stream``;
* ``regions.channel_stream`` and ``regions.channel_draw`` - a random
  channel's stream and its draw, kept apart from the trials' draws;
* ``precoders.select`` - ``invert_precode``, ``slm_random``,
  ``vector_perturb``;
* ``shaping.rebuild`` - ``code_from_octal``, ``pam_constellation``,
  ``lattice_partition``, wherever they are called;
* ``shaping.trellis_shape`` and ``shaping.nested_select`` - the searches;
* ``theory.energy`` - ``ChannelMatrix.energy`` and ``energies``;
* ``theory.build_channel``, ``theory.report`` and ``linalg.factor``
  (``invert``, ``sym_eigen``, ``cholesky``).

Counters: ``rows.<span>`` (rows whose energy was evaluated, by the span
that asked for them), ``candidates``, ``codewords`` (trellis candidates),
``regions.draw_bytes`` and ``regions.channel_draw_bytes``,
``harness.channel_loads`` and ``harness.config_validations``
(calls to ``load_channel`` and ``ExperimentConfig.from_dict``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from slmprecode import harness, linalg, precoders, regions, shaping, theory

_clock = time.perf_counter

Span = Tuple[int, int, str, float, float]


class Tracer:
    """In-memory span recorder with a parent stack and named counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = [-1]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def current(self) -> str:
        sid = self._stack[-1]
        return self.spans[sid][2] if sid >= 0 else ""

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class _Span:
    __slots__ = ("tr", "name", "sid", "t0")

    def __init__(self, tr: Tracer, name: str) -> None:
        self.tr = tr
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tr
        self.sid = len(tr.spans)
        tr.spans.append((self.sid, tr._stack[-1], self.name, 0.0, 0.0))
        tr._stack.append(self.sid)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc) -> None:
        t1 = _clock()
        tr = self.tr
        tr._stack.pop()
        sid, parent, name, _, _ = tr.spans[self.sid]
        tr.spans[self.sid] = (sid, parent, name, self.t0, t1)


def layer_times(spans: List[Span]) -> Dict[str, Tuple[float, float, int]]:
    """Per span name: (total seconds, self seconds, call count).

    A span inside another span of the same module (a ``regions.draw`` inside
    a ``regions.draw``, a ``regions.make_stream`` inside ``Sampler``
    construction) adds to its self time and count but not to its total, so
    the totals of a module's names add up to the time spent in that module.
    """
    child = [0.0] * len(spans)
    nested = [False] * len(spans)
    module = [name.split(".", 1)[0] for _, _, name, _, _ in spans]
    for sid, parent, _, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
        p = parent
        while p >= 0 and module[p] != module[sid]:
            p = spans[p][1]
        nested[sid] = p >= 0
    out: Dict[str, List[float]] = {}
    for sid, _, name, t0, t1 in spans:
        acc = out.setdefault(name, [0.0, 0.0, 0])
        if not nested[sid]:
            acc[0] += t1 - t0
        acc[1] += t1 - t0 - child[sid]
        acc[2] += 1
    return {k: (v[0], v[1], int(v[2])) for k, v in out.items()}


class _TracedStream:
    """A random stream whose draws record spans named ``span`` and their bytes."""

    __slots__ = ("_gen", "_tr", "_span")

    def __init__(self, gen: np.random.Generator, tr: Tracer, span: str) -> None:
        self._gen = gen
        self._tr = tr
        self._span = span

    def __getattr__(self, name: str):
        fn = getattr(self._gen, name)
        tr, span = self._tr, self._span

        def draw(*args, **kwargs):
            with tr.span(span):
                out = fn(*args, **kwargs)
            tr.add(span + "_bytes", np.asarray(out).nbytes)
            return out

        return draw


def _trial_stream(tr, out):
    return _TracedStream(out, tr, "regions.draw")


def _channel_stream(tr, out):
    # channel_stream's make_stream call already wrapped the stream
    return _TracedStream(out._gen, tr, "regions.channel_draw")


def _rows(tr, out):
    tr.add("rows." + tr.current(), np.size(out))
    return out


def _candidates(tr, out):
    tr.add("candidates", out.n_candidates)
    return out


def _codewords(tr, out):
    tr.add("codewords", out.n_candidates)
    return _candidates(tr, out)


def _counter(key):
    def count(tr, out):
        tr.add(key, 1)
        return out
    return count


# (owner, attribute, span name or None for a count only, hook on the result)
TARGETS = [
    (harness, "load_channel", None, _counter("harness.channel_loads")),
    (harness.ExperimentConfig, "from_dict", None, _counter("harness.config_validations")),
    (regions, "hypercube", "regions.region", None),
    (regions, "ball", "regions.region", None),
    (regions, "expanded_region", "regions.region", None),
    (regions, "make_stream", "regions.make_stream", _trial_stream),
    (regions, "channel_stream", "regions.channel_stream", _channel_stream),
    (regions.Sampler, "__post_init__", "regions.draw", None),
    (regions.Sampler, "draw", "regions.draw", None),
    (precoders, "invert_precode", "precoders.select", _candidates),
    (precoders, "slm_random", "precoders.select", _candidates),
    (precoders, "vector_perturb", "precoders.select", _candidates),
    (shaping, "code_from_octal", "shaping.rebuild", None),
    (shaping, "pam_constellation", "shaping.rebuild", None),
    (shaping, "lattice_partition", "shaping.rebuild", None),
    (shaping, "trellis_shape", "shaping.trellis_shape", _codewords),
    (shaping, "nested_select", "shaping.nested_select", _candidates),
    (theory.ChannelMatrix, "energy", "theory.energy", _rows),
    (theory.ChannelMatrix, "energies", "theory.energy", _rows),
    (theory, "build_channel", "theory.build_channel", None),
    (theory, "theory_report", "theory.report", None),
    (linalg, "invert", "linalg.factor", None),
    (linalg, "sym_eigen", "linalg.factor", None),
    (linalg, "cholesky", "linalg.factor", None),
]


def _wrap(fn, tr: Tracer, name, hook):
    if name is None:
        def wrapped(*args, **kwargs):
            return hook(tr, fn(*args, **kwargs))
    elif hook is None:
        def wrapped(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)
    else:
        def wrapped(*args, **kwargs):
            with tr.span(name):
                out = fn(*args, **kwargs)
            return hook(tr, out)
    return wrapped


class installed:
    """Install the ``TARGETS`` wrappers, recording into ``tracer``, while the block runs."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for owner, attr, name, hook in TARGETS:
            orig = owner.__dict__[attr]
            self.saved.append((owner, attr, orig))
            if isinstance(orig, staticmethod):
                setattr(owner, attr, staticmethod(_wrap(orig.__func__, self.tracer, name, hook)))
            else:
                setattr(owner, attr, _wrap(orig, self.tracer, name, hook))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()
