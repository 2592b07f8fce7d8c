"""Span-recording wrappers around qvss's public functions, for traced runs.

A ``Tracer`` replaces each traced function with a wrapper in every qvss
namespace that holds it, so a call is recorded however its caller
resolves the name (``qvss.protocol.pixel_rng`` and
``qvss.baseline.pixel_rng`` are the same function and get the same
wrapper).  Each span records its name, start, end and parent span; spans
and counts stay in memory until the pass ends.  Counters read sizes off
the arguments and results after the span has closed, so their cost falls
in the benchmark's own remainder, not in any layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Traced functions by module.  ``circuit`` is left out: no bulk workload
#: routes through it.  The CLI's ``cmd_<name>`` handlers are traced as
#: ``cli.<name>``.
TRACED = {
    "image_io": ("read_pbm", "write_pbm"),
    "protocol": (
        "pixel_rng",
        "share_image",
        "serialize_share",
        "serialize_session",
        "deserialize_share",
        "deserialize_session",
        "recover_image",
        "audit_subset",
    ),
    "parity": ("prepare_parity_state_direct", "xor_decode_classical"),
    "statevector": ("measure_all", "marginal_distribution"),
    "baseline": (
        "classical_share_image",
        "classical_share_pixel",
        "classical_recover_image",
        "decode_stacked",
    ),
    "cli": ("cmd_share", "cmd_recover", "cmd_audit", "cmd_compare"),
}

LAYERS = tuple(TRACED)


def span_name(module: str, function: str) -> str:
    return f"{module}.{function.removeprefix('cmd_')}"


def _subset_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["subset"]


def _register_key(register):
    # Sampled registers are bit tuples; statevector ones carry amplitudes.
    amplitudes = getattr(register, "amplitudes", None)
    return register if amplitudes is None else amplitudes.tobytes()


def _count_session(args, kwargs, result):
    registers = result[0].registers
    return {
        "protocol.session.registers": len(registers),
        "protocol.session.distinct_registers": len(set(map(_register_key, registers))),
    }


#: Exact counts taken at a span's boundary: span name -> f(args, kwargs, result).
COUNTERS = {
    "image_io.read_pbm": lambda a, k, r: {"image_io.bytes_read": len(a[0])},
    "image_io.write_pbm": lambda a, k, r: {"image_io.bytes_written": len(r)},
    "protocol.serialize_share": lambda a, k, r: {"protocol.bytes_serialized": len(r)},
    "protocol.serialize_session": lambda a, k, r: {"protocol.bytes_serialized": len(r)},
    "protocol.audit_subset": lambda a, k, r: {
        "protocol.audit_subset.bins": 1 << len(tuple(_subset_arg(a, k)))
    },
    "protocol.share_image": _count_session,
}

#: Every count the counters can report; a pass that makes none reports 0.
COUNT_NAMES = (
    "image_io.bytes_read",
    "image_io.bytes_written",
    "protocol.bytes_serialized",
    "protocol.audit_subset.bins",
    "protocol.session.registers",
    "protocol.session.distinct_registers",
)


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._replaced: list = []  # (namespace, attribute, original)

    def _wrap(self, name, function):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def __enter__(self):
        namespaces = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "qvss" or key.startswith("qvss.")
        ]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"qvss.{module_name}"]
            for function_name in functions:
                original = getattr(home, function_name)
                wrapper = self._wrap(span_name(module_name, function_name), original)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attribute, wrapper)
                            self._replaced.append((namespace, attribute, original))
        return self

    def __exit__(self, *exc_info):
        for namespace, attribute, original in reversed(self._replaced):
            setattr(namespace, attribute, original)
        self._replaced.clear()
        return False

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans, wall_s: float):
    """Self time and calls per span name, plus the untraced remainder.

    A span's self time is its duration minus its children's durations.  The
    remainder is the pass's wall time outside every top-level span: the
    benchmark's own work.  Layer self times plus the remainder sum to the
    wall time exactly when spans nest.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    top_s = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        self_s[name] += end - start - child_s[index]
        calls[name] += 1
        if parent < 0:
            top_s += end - start
    return self_s, calls, wall_s - top_s
