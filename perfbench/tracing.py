"""Spans and counters around the benchmark's calls into each splinegram module.

The program has no recorder of its own yet, so the benchmark wraps the
public functions of each module (the layers) for the duration of a traced
pass.  A wrapper records a span nested under the operation's span; a
layer's busy time is the sum of its spans, and the CLI's self time is an
operation's span minus the spans of its direct children.  Counters are read
from the wrapped calls' arguments and results.  The inverse capture the
correctness gate needs uses the same patching and is installed in every run.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, function) -> (layer, sub-metric for the span time, or None)
SPANS = {
    ("partitions", "parse_spec"): ("partitions", None),
    ("partitions", "realize"): ("partitions", None),
    ("gram", "build_gram"): ("gram", None),
    ("invstep", "invert_iteratively"): ("invstep", None),
    ("invstep", "check_checkerboard"): ("invstep", "checkerboard_busy_s"),
    ("decay", "decay_report"): ("decay", "report_busy_s"),
    ("decay", "verify_lemmas"): ("decay", "lemmas_busy_s"),
    ("polycert", "build_inequality"): ("polycert", "build_busy_s"),
    ("polycert", "certify_nonneg"): ("polycert", "certify_busy_s"),
    ("polycert", "spot_check"): ("polycert", "spot_busy_s"),
    # the output layer: JSON object builders and the serializer/writer
    ("cli", "_emit"): ("cli", "output_busy_s"),
    ("decay", "report_to_json"): ("cli", "output_busy_s"),
    ("invstep", "inverse_to_json"): ("cli", "output_busy_s"),
    ("invstep", "history_to_json"): ("cli", "output_busy_s"),
    ("polycert", "certificate_to_json"): ("cli", "output_busy_s"),
}
LAYERS = ("partitions", "gram", "invstep", "decay", "cli", "polycert")
SUB_METRICS = {
    "invstep": ("steps", "history_scalars", "entry_bits_max", "checkerboard_busy_s"),
    "decay": ("report_busy_s", "report_entries", "lemmas_busy_s", "comparisons"),
    "cli": ("output_busy_s", "output_bytes", "self_s"),
    "polycert": ("build_busy_s", "certify_busy_s", "spot_busy_s", "num_terms",
                 "den_terms", "spot_points"),
}
METRIC_NAMES = tuple(
    [f"{layer}.{m}" for layer in LAYERS for m in ("calls", "busy_s", "errors")]
    + [f"{layer}.{m}" for layer, subs in SUB_METRICS.items() for m in subs]
    + ["trace.untraced_s", "trace.traced_s", "trace.overhead_s"])
COUNT_METRICS = {n for n in METRIC_NAMES if not n.endswith("_s")}


def _modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "splinegram" or name.startswith("splinegram."))]


@contextlib.contextmanager
def patched(wrappers: dict):
    """Replace each (module, function) in ``wrappers`` (a map to a factory
    taking the original) wherever a splinegram module holds a reference to
    it; restore the originals on exit.  Functions that do not exist are
    skipped."""
    saved = []
    try:
        for (module, func), factory in wrappers.items():
            owner = sys.modules.get(f"splinegram.{module}")
            original = getattr(owner, func, None)
            if original is None:
                continue
            wrapped = factory(original)
            for mod in _modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def capture_inverses(sink: list):
    """Wrapper map that appends (A, state) of every invert_iteratively call."""
    def factory(original):
        def invert_iteratively(A, *args, **kwargs):
            state = original(A, *args, **kwargs)
            sink.append((A, state))
            return state
        return invert_iteratively
    return {("invstep", "invert_iteratively"): factory}


def _entry_bits(B) -> int:
    """Largest numerator/denominator bit length of an exact inverse (0 for
    a float one)."""
    if not isinstance(B[0][0], Fraction):
        return 0
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in B for x in row)


class Tracer:
    """Accumulates spans and counters for one traced pass.

    Span times of one operation are scaled by that operation's calibration
    factor when it ends, like the operation's own latency."""

    def __init__(self):
        self.values = defaultdict(float)
        self.cert_terms = {}
        self._op = defaultdict(float)  # the current operation's values
        self._stack = []  # [layer, time covered by direct children]

    def wrappers(self) -> dict:
        return {key: self._factory(key, *target) for key, target in SPANS.items()}

    def _factory(self, key, layer, sub):
        def factory(original):
            def wrapped(*args, **kwargs):
                self._stack.append([layer, 0.0])
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    self._close(layer, sub, start, failed=True)
                    raise
                self._close(layer, sub, start, failed=False)
                self._count(key[1], args, result)
                return result
            return wrapped
        return factory

    def _close(self, layer, sub, start, failed):
        dur = perf_counter() - start
        self._stack.pop()
        self._stack[-1][1] += dur
        v = self._op
        if sub:
            v[f"{layer}.{sub}"] += dur
        if layer == "cli":  # the cli layer's calls and busy time are the op spans
            return
        v[f"{layer}.calls"] += 1
        v[f"{layer}.errors"] += failed
        if all(outer != layer for outer, _ in self._stack):  # no double counting
            v[f"{layer}.busy_s"] += dur

    def _count(self, func, args, result):
        v = self._op
        if func == "invert_iteratively":
            v["invstep.steps"] += result.n - 1
            if result.col_history is not None:
                v["invstep.history_scalars"] += (len(result.diag_history)
                                                 + sum(map(len, result.col_history)))
            v["invstep.entry_bits_max"] = max(v["invstep.entry_bits_max"],
                                              _entry_bits(result.B))
        elif func == "decay_report":
            m = args[1].m
            v["decay.report_entries"] += m * (m + 1) // 2
        elif func == "verify_lemmas":
            v["decay.comparisons"] += sum(c.comparisons for c in result)
        elif func == "certify_nonneg":
            self.cert_terms[result.name] = (result.num_terms, result.den_terms)
        elif func == "spot_check":
            v["polycert.spot_points"] += result

    def begin_op(self) -> None:
        self._stack.append(["op", 0.0])

    def end_op(self, latency: float, factor: float, is_cli: bool, failed: bool,
               nbytes: int) -> None:
        """Close an operation's span (raw ``latency``, calibration
        ``factor``).  The cli layer counts CLI operations only; spot checks
        call the library directly."""
        _, children = self._stack.pop()
        v = self._op
        if is_cli:
            v["cli.calls"] += 1
            v["cli.errors"] += failed
            v["cli.busy_s"] += latency
            v["cli.self_s"] += latency - children
            v["cli.output_bytes"] += nbytes
        for name, value in v.items():
            if name == "invstep.entry_bits_max":
                self.values[name] = max(self.values[name], value)
            else:
                self.values[name] += value * factor if name.endswith("_s") else value
        self._op = defaultdict(float)

    def finish(self) -> dict:
        """Metrics of this pass (every name in METRIC_NAMES but trace.*)."""
        v = dict(self.values)
        v["polycert.num_terms"] = sum(t[0] for t in self.cert_terms.values())
        v["polycert.den_terms"] = sum(t[1] for t in self.cert_terms.values())
        return {n: v.get(n, 0.0) for n in METRIC_NAMES if not n.startswith("trace.")}


def median_metrics(passes: list) -> dict:
    """Per-metric median over traced passes (counts repeat exactly)."""
    out = {}
    for name in passes[0]:
        value = statistics.median(p[name] for p in passes)
        out[name] = int(value) if name in COUNT_METRICS else value
    return out
