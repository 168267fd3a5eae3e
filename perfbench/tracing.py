"""Spans and counters for the traced pass, recorded from outside the package.

A traced pass runs the same ``vacmirror.cli.main`` calls as an untraced one.
For its duration, ``Tracer.hooks`` rebinds names in the package's module
namespaces:

* in ``vacmirror.cli``, the public functions the subcommands call, so that
  each call is a span, and the mirror and state classes, so that the
  subcommands build counting wrappers that record how many times the
  amplitude and weight functions are called and on how many frequencies;
* in ``vacmirror.causality`` and ``vacmirror.mirrors``, the grid transforms,
  so that they appear as child spans of ``causality_report`` and
  ``validate_model``.

Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field

import vacmirror.causality
import vacmirror.cli
import vacmirror.mirrors
from vacmirror import Mirror

# (module whose global is rebound, name there, span name)
_SPAN_HOOKS = (
    (vacmirror.cli, "validate_model", "mirrors.validate_model"),
    (vacmirror.cli, "susceptibility_grid", "response.susceptibility_grid"),
    (vacmirror.cli, "noise_spectrum", "fluctuations.noise_spectrum"),
    (vacmirror.cli, "xi_spectrum", "fluctuations.xi_spectrum"),
    (vacmirror.cli, "fdt_check", "fluctuations.fdt_check"),
    (vacmirror.cli, "causality_report", "causality.causality_report"),
    (vacmirror.cli, "oscillation_squeeze_lines", "squeezing.oscillation_squeeze_lines"),
    (vacmirror.cli, "oscillation_line_strength", "squeezing.oscillation_line_strength"),
    (vacmirror.causality, "hilbert_transform", "numerics.hilbert_transform"),
    (vacmirror.causality, "inverse_fourier_to_time", "numerics.inverse_fourier_to_time"),
    (vacmirror.mirrors, "hilbert_transform", "numerics.hilbert_transform"),
)
# classes the subcommands build, replaced by factories of counting wrappers
_MIRROR_CLASSES = ("SinglePoleMirror",)
_STATE_CLASSES = ("VacuumState", "ThermalState", "TwoTemperatureState")

NOISE_SPANS = ("fluctuations.noise_spectrum", "fluctuations.xi_spectrum")
QUADRATURE_SPANS = ("response.susceptibility_grid", "fluctuations.fdt_check") + NOISE_SPANS
TRANSFORM_SPANS = ("numerics.hilbert_transform", "numerics.inverse_fourier_to_time")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class CallCounter:
    calls: int = 0
    points: int = 0

    def add(self, omega) -> None:
        self.calls += 1
        self.points += getattr(omega, "size", 1)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _counted_grid(self, fn):
        """``susceptibility_grid`` in a span that also counts the grid samples."""

        def traced(model, state, grid, *args, **kwargs):
            self.count("response.samples", grid.size)
            return self.call("response.susceptibility_grid", fn, model, state, grid, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def hooks(self, mirror: CallCounter, state: CallCounter):
        """Rebind the package names listed above for the duration.

        Mirrors and states built in ``vacmirror.cli`` meanwhile count into
        ``mirror`` and ``state``.
        """
        cli = vacmirror.cli
        replacements = []
        for mod, attr, span_name in _SPAN_HOOKS:
            original = getattr(mod, attr)
            if span_name == "response.susceptibility_grid":
                replacements.append((mod, attr, original, self._counted_grid(original)))
            else:
                replacements.append((mod, attr, original, self.wrap(span_name, original)))
        for attr in _MIRROR_CLASSES:
            cls = getattr(cli, attr)
            factory = lambda *a, cls=cls, **k: CountingMirror(cls(*a, **k), mirror)  # noqa: E731
            replacements.append((cli, attr, cls, factory))
        for attr in _STATE_CLASSES:
            cls = getattr(cli, attr)
            factory = lambda *a, cls=cls, **k: counting_state(cls(*a, **k), state)  # noqa: E731
            replacements.append((cli, attr, cls, factory))
        try:
            for mod, attr, _, replacement in replacements:
                setattr(mod, attr, replacement)
            yield
        finally:
            for mod, attr, original, _ in replacements:
                setattr(mod, attr, original)

    def total(self, *names: str) -> float:
        """Summed wall duration of the named spans."""
        return sum((s.end - s.start for s in self.spans if s.name in names), 0.0)

    def self_time(self, name: str) -> float:
        """Wall duration of ``name`` spans minus the time covered by their children."""
        own = 0.0
        for k, s in enumerate(self.spans):
            if s.name == name:
                children = sum(c.end - c.start for c in self.spans if c.parent == k)
                own += s.end - s.start - children
        return own


class CountingMirror(Mirror):
    """Delegates s and r to a mirror and counts the calls and frequencies."""

    def __init__(self, inner: Mirror, counter: CallCounter):
        self._inner = inner
        self._counter = counter
        self.transparent = inner.transparent

    def s(self, omega):
        self._counter.add(omega)
        return self._inner.s(omega)

    def r(self, omega):
        self._counter.add(omega)
        return self._inner.r(omega)


def counting_state(state, counter: CallCounter):
    """A copy of ``state`` whose spectral functions count calls and frequencies.

    The copy subclasses the state's own class, because the package selects
    the vacuum support by ``isinstance``.  Counted: ``cplus``, ``chi_weight``
    and ``noise_weight``.
    """
    base = type(state)

    class Counting(base):
        def cplus(self, omega):
            counter.add(omega)
            return base.cplus(self, omega)

        def chi_weight(self, nu):
            counter.add(nu)
            return base.chi_weight(self, nu)

        def noise_weight(self, nu):
            counter.add(nu)
            return base.noise_weight(self, nu)

    return Counting(**{f.name: getattr(state, f.name) for f in dataclasses.fields(state)})


PER_LAYER = (
    ("response.susceptibility_grid_s", "s", "lower"),
    ("response.samples", "count", "higher"),
    ("response.s_per_sample", "s", "lower"),
    ("fluctuations.noise_s", "s", "lower"),
    ("fluctuations.fdt_check_s", "s", "lower"),
    ("mirrors.amplitude_calls", "count", "lower"),
    ("mirrors.amplitude_points", "count", "lower"),
    ("mirrors.points_per_call", "points/call", "higher"),
    ("mirrors.validate_model_s", "s", "lower"),
    ("states.weight_calls", "count", "lower"),
    ("states.weight_points", "count", "lower"),
    ("pressure.identity_scan_s", "s", "lower"),
    ("response.frame_scan_s", "s", "lower"),
    ("squeezing.scan_s", "s", "lower"),
    ("numerics.hilbert_s", "s", "lower"),
    ("numerics.inverse_fourier_s", "s", "lower"),
    ("causality.report_s", "s", "lower"),
    ("causality.self_s", "s", "lower"),
    ("cli.validate_s", "s", "lower"),
    ("cli.susceptibility_s", "s", "lower"),
    ("cli.noise_s", "s", "lower"),
    ("cli.fdt_s", "s", "lower"),
    ("cli.causality_s", "s", "lower"),
    ("cli.squeeze_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.quadrature_share", "fraction", "lower"),
    ("trace.transform_share", "fraction", "lower"),
)


def layer_metrics(
    tracer: Tracer, mirror: CallCounter, state: CallCounter, pass_wall: float, pass_s: float
) -> dict[str, float]:
    """Per-layer numbers of one traced pass (the ``cli.*`` and overhead are added by the caller).

    Span durations are converted at the pass's own rate, ``pass_s / pass_wall``,
    so that they add up like wall times and are in the unit of ``pass_s``.
    Shares are wall-time ratios.
    """
    rate = pass_s / pass_wall

    def total(*names: str) -> float:
        return tracer.total(*names) * rate

    grid_s = total("response.susceptibility_grid")
    samples = tracer.counts.get("response.samples", 0)
    return {
        "response.susceptibility_grid_s": grid_s,
        "response.samples": samples,
        "response.s_per_sample": grid_s / samples if samples else 0.0,
        "fluctuations.noise_s": total(*NOISE_SPANS),
        "fluctuations.fdt_check_s": total("fluctuations.fdt_check"),
        "mirrors.amplitude_calls": mirror.calls,
        "mirrors.amplitude_points": mirror.points,
        "mirrors.points_per_call": mirror.points / mirror.calls if mirror.calls else 0.0,
        "mirrors.validate_model_s": total("mirrors.validate_model"),
        "states.weight_calls": state.calls,
        "states.weight_points": state.points,
        "pressure.identity_scan_s": total("pressure.identity_scan"),
        "response.frame_scan_s": total("response.frame_scan"),
        "squeezing.scan_s": total("squeezing.scan"),
        "numerics.hilbert_s": total("numerics.hilbert_transform"),
        "numerics.inverse_fourier_s": total("numerics.inverse_fourier_to_time"),
        "causality.report_s": total("causality.causality_report"),
        "causality.self_s": tracer.self_time("causality.causality_report") * rate,
        "trace.run_s": pass_s,
        "trace.quadrature_share": total(*QUADRATURE_SPANS) / pass_s,
        "trace.transform_share": total(*TRANSFORM_SPANS) / pass_s,
    }
