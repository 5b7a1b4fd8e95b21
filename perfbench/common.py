"""Shared pieces of the benchmark: statistics, spans, the layer sampler.

Nothing here imports the program at module load, so ``run.py`` can check
that the program's sources are present before anything touches them.
"""

from __future__ import annotations

import math
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the program's package lives in the checkout.
SRC = ROOT / "src"
#: Scratch space for stores, server state and exported traces.
WORK = ROOT / ".perfbench"
#: Share of samples a trimmed mean drops at each end.
TRIM = 0.1
#: Size of a pool of samples in fixed proportions (``fixed_mix``).
MIX_POOL = 200
#: CPU seconds between two samples of the layer sampler.
SAMPLE_INTERVAL = 0.002


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``TRIM`` share.  Unlike the median, it does not jump when a sample mix
    of two cost modes (two query shapes, fast and slow fsyncs) shifts by a
    few samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("trimmed mean of no values")
    k = int(len(ordered) * TRIM)
    kept = ordered[k: len(ordered) - k]
    return sum(kept) / len(kept)


def fixed_mix(by_kind: Dict[str, Sequence[float]], mix: Dict[str, float]) -> List[float]:
    """Samples of several kinds of action pooled in fixed proportions.

    Kind ``k`` contributes ``MIX_POOL * mix[k]`` evenly spaced quantiles of
    its own samples, so statistics of the pool do not move when a seed
    happens to draw a few more of a cheap kind.  Kinds with no samples
    are left out.
    """
    pooled: List[float] = []
    for kind, share in sorted(mix.items()):
        if not by_kind.get(kind):
            continue
        n = max(1, round(MIX_POOL * share))
        pooled += [percentile(by_kind[kind], (j + 0.5) / n) for j in range(n)]
    return pooled


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# -- spans -------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Span:
    __slots__ = ("span_id", "parent", "name", "layer", "start", "end", "tid")

    def __init__(self, span_id: int, parent: Optional[int], name: str,
                 layer: str, start: float, tid: int) -> None:
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.tid = tid


class SpanLog:
    """Spans recorded at the benchmark's wrapped layer boundaries.

    Each span has a name, a layer, host start/end seconds and the id of
    the span that caused it.  ``enabled`` is toggled by the traced run so
    that on/off samples can alternate inside one process.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    def at(self, perf_t: float) -> float:
        """A ``time.perf_counter()`` reading on this log's clock."""
        return perf_t - self._t0

    def now(self) -> float:
        return self.at(time.perf_counter())

    def begin(self, name: str, layer: str, parent: Optional[int] = None,
              tid: int = 0, start: Optional[float] = None) -> Optional[Span]:
        if not self.enabled:
            return None
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(len(self.spans), parent, name, layer,
                    self.now() if start is None else start, tid)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Optional[Span]]:
        """Nested span on the calling thread's stack."""
        span = self.begin(name, layer)
        if span is None:
            yield None
            return
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.now()

    def wrap(self, fn: Callable, name: str, layer: str,
             sink: Optional[List[float]] = None) -> Callable:
        """``fn`` wrapped in a span; its wall seconds also go to ``sink``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                with self.span(name, layer):
                    return fn(*args, **kwargs)
            finally:
                if sink is not None:
                    sink.append(time.perf_counter() - t0)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Per-layer self seconds: duration minus the part children cover."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out: Dict[str, float] = {}
        for s in self.spans:
            dur = s.end - s.start
            own = dur - covered(children.get(s.span_id, ()), s.start, s.end)
            out[s.layer] = out.get(s.layer, 0.0) + own
        return out

    def export(self, path: Path) -> int:
        """Write a validated Perfetto (Chrome trace-event) file; span count."""
        import json

        from repro.obs.perfetto import to_chrome_trace, validate_chrome_trace
        from repro.obs.spans import SpanRecorder

        rec = SpanRecorder()
        rec.name_track(0, "perfbench")
        for s in self.spans:
            rec.name_track(0, "perfbench", s.tid, "thread %d" % s.tid)
            rec.complete(0, s.tid, s.name, s.layer, s.start, s.end - s.start,
                         {"span_id": s.span_id, "parent": s.parent})
        trace = to_chrome_trace(rec)
        validate_chrome_trace(trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(trace), encoding="utf-8")
        return len(self.spans)


def patch_everywhere(original: Callable, replacement: Callable) -> List[Tuple[Any, str]]:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement``; returns the patched (module, name) pairs."""
    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr))
    return patched


def unpatch(patched: List[Tuple[Any, str]], original: Callable) -> None:
    for mod, attr in patched:
        setattr(mod, attr, original)


# -- host-time sampler -------------------------------------------------------


class LayerSampler:
    """Stdlib sampling profiler that attributes CPU time to packages.

    Between ``start(label)`` and ``stop()``, ``ITIMER_PROF`` fires every
    ``SAMPLE_INTERVAL`` CPU seconds; the handler walks the interrupted
    stack to the innermost frame whose file lies in the program's package
    and counts one sample for that subpackage (``des``, ``simfs``...) in
    the bucket named by ``label``.  Frames in the standard library count
    for the program frame that called them; samples with no program frame
    count as ``other``.  Outside a start/stop pair no timer runs, so
    untraced units pay nothing for the sampler.
    """

    def __init__(self) -> None:
        self.label = ""
        self.counts: Dict[str, Dict[str, int]] = {}
        self._prefix = str(SRC / "repro") + "/"
        self._layer_of: Dict[str, str] = {}
        self._old: Any = None

    def _layer(self, filename: str) -> Optional[str]:
        layer = self._layer_of.get(filename)
        if layer is None:
            if filename.startswith(self._prefix):
                rest = filename[len(self._prefix):]
                layer = rest.split("/", 1)[0] if "/" in rest else "repro"
            else:
                layer = ""
            self._layer_of[filename] = layer
        return layer or None

    def _handler(self, signum: int, frame: Any) -> None:
        layer = "other"
        while frame is not None:
            found = self._layer(frame.f_code.co_filename)
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        bucket = self.counts.setdefault(self.label, {})
        bucket[layer] = bucket.get(layer, 0) + 1

    def start(self, label: str) -> None:
        self.label = label
        self._old = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old or signal.SIG_DFL)

    def shares(self, label: str) -> Dict[str, float]:
        bucket = self.counts.get(label, {})
        total = sum(bucket.values())
        return {k: v / total for k, v in bucket.items()} if total else {}


def alternate(trace: bool, index: int) -> bool:
    """In a traced run, even-numbered units run with tracing on and odd
    ones with it off, so one process measures both sides of the overhead."""
    return trace and index % 2 == 0
