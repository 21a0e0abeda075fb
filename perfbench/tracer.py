"""Span recorder for the traced pass, wrapped around the library's public
functions from outside.

Each patch point replaces a name in the module namespace where its caller
looks it up (``gaussqfi.cli.qfi_unitary``, ``gaussqfi.qfi.p_matrix``,
``gaussqfi.optimizer.minimize``, ...) and puts the original back on exit.
Spans are kept in memory as ``[name, start, end, parent, op, info]`` and
written out when the run ends.  A layer is the part of a span name before
the first dot; a span's self time is its duration minus its children's.
"""
from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

from gaussqfi import channels, cli, fock, formulas, optimizer, probes, qfi, \
    symplectic

LAYERS = ("bench", "probes", "qfi", "symplectic", "core", "channels",
          "formulas", "optimizer", "fock", "cli")

# Functions reported with calls, µs/call and self µs/op.
FUNCTIONS = (
    "probes.to_probe_state", "qfi.qfi_unitary", "qfi.p_matrix",
    "symplectic.williamson", "symplectic.exp_generator",
    "symplectic.displacement_shift", "core.validate_state",
    "core.state_from_dict", "core.complex_to_real",
    "channels.channel_from_dict", "channels.channel_symplectic",
    "formulas.closed_form", "fock.choose_cutoff", "fock.build_fock_state",
    "fock.fock_qfi",
)


def _nm_info(res, args, kwargs):
    return {"nfev": int(res.nfev), "success": bool(res.success)}


def _search_info(result, args, kwargs):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"restarts": int(result.restarts), "requested": int(config.restarts)}


def _cutoff_info(cutoff, args, kwargs):
    channel = args[1] if len(args) > 1 else kwargs["channel"]
    return {"cutoff": int(cutoff), "modes": int(channel.modes)}


def _exit_info(code, args, kwargs):
    return {"exit": int(code)}


def _cli_span(argv, *args, **kwargs):
    return f"cli.main.{argv[0]}"


def _patch_points():
    """(namespace, attribute, span name, result hook) for every wrapped call."""
    points = [
        (cli, "main", _cli_span, _exit_info),
        (probes.OneModeProbeParams, "to_probe_state", "probes.to_probe_state", None),
        (probes.TwoModeProbeParams, "to_probe_state", "probes.to_probe_state", None),
        (qfi, "qfi_unitary", "qfi.qfi_unitary", None),
        (cli, "qfi_unitary", "qfi.qfi_unitary", None),
        (optimizer, "qfi_unitary", "qfi.qfi_unitary", None),
        (qfi, "p_matrix", "qfi.p_matrix", None),
        # ProbeState.from_state imports williamson from the module at call time
        (symplectic, "williamson", "symplectic.williamson", None),
        (channels, "exp_generator", "symplectic.exp_generator", None),
        (symplectic, "exp_generator", "symplectic.exp_generator", None),
        (channels, "displacement_shift", "symplectic.displacement_shift", None),
        (qfi, "validate_state", "core.validate_state", None),
        (cli, "state_from_dict", "core.state_from_dict", None),
        (cli, "complex_to_real", "core.complex_to_real", None),
        (cli, "channel_from_dict", "channels.channel_from_dict", None),
        (cli, "channel_symplectic", "channels.channel_symplectic", None),
        (optimizer, "optimize_probe", "optimizer.optimize_probe", _search_info),
        (optimizer, "minimize", "optimizer.minimize", _nm_info),
        (fock, "choose_cutoff", "fock.choose_cutoff", _cutoff_info),
        (fock, "fock_qfi", "fock.fock_qfi", None),
        (fock, "build_fock_state", "fock.build_fock_state", None),
    ]
    # the closed-form command, limits and the CLI's closed-form table call
    # these through the module object
    for name in dir(formulas):
        obj = getattr(formulas, name)
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", "") == formulas.__name__):
            points.append((formulas, name, "formulas.closed_form", None))
    return points


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op, None]
        self.spans.append(rec)
        self.stack.append(idx)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name, hook=None):
        """Record a span around every call of ``fn``.

        ``name`` may be a function of the call's arguments; ``hook(out,
        args, kwargs)`` turns the result into the span's info field.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == span_name:
                # a wrapped function calling a sibling of the same span name
                return fn(*args, **kwargs)
            rec = tracer._open(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                rec[5] = hook(out, args, kwargs)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, hook in _patch_points():
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, hook))
            real_expm = fock.scipy.linalg.expm
            saved.append((fock, "scipy", fock.scipy))
            fock.scipy = SimpleNamespace(linalg=SimpleNamespace(
                expm=self.wrap(real_expm, "fock.expm")))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        """Spans as JSON lines: name, start, end (s), parent index, op, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, info]) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]

