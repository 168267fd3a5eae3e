"""Command-line interface for reproducible spectrum and report runs.

Each subcommand wires a mirror model and a field state into one analysis and
writes a plot-ready table or report.  Runs are deterministic: identical
resolved configurations produce bit-identical output files, and every output
embeds the resolved configuration and the tool version in its header.

Exit codes: 0 success, 1 physics check failed, 2 input error, 3 quadrature
non-convergence (the message names the failing frequency).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .causality import causality_report
from .core import FrequencyGrid, PhysicsContext, Spectrum
from .fluctuations import fdt_check, noise_spectrum, xi_spectrum
from .mirrors import (
    Mirror,
    PerfectMirror,
    SinglePoleMirror,
    TabulatedMirror,
    validate_model,
)
from .numerics import NonConvergenceError, QuadratureConfig
from .response import MonochromaticOscillation, susceptibility_grid
from .squeezing import oscillation_line_strength, oscillation_squeeze_lines
from .states import FieldState, ThermalState, TwoTemperatureState, VacuumState

_FMT = "%.17g"

_FLOAT_KEYS = frozenset(
    {"omega_c", "temp", "temp_phi", "temp_psi", "hbar", "tol", "osc_freq", "osc_amp"}
)

# allowed values of the choice keys, for flags and config files alike
_CHOICES: dict[str, tuple[str, ...]] = {
    "model": ("single-pole", "perfect", "table"),
    "state": ("vacuum", "thermal", "two-temperature"),
    "format": ("csv", "json"),
    "inject": ("cubic", "exponential"),
}

_COMMON_DEFAULTS: dict[str, object] = {
    "model": "single-pole",
    "omega_c": 1.0,
    "file": None,
    "state": "vacuum",
    "temp": 1.0,
    "temp_phi": None,
    "temp_psi": None,
    "hbar": 1.0,
    "out": None,
    "format": "csv",
}

# per-command grid spans and the meaning of --tol differ; see each command
_DEFAULTS: dict[str, dict[str, object]] = {
    "validate": {**_COMMON_DEFAULTS, "grid": "-50:50:4001", "tol": 1e-10},
    "susceptibility": {**_COMMON_DEFAULTS, "grid": "-5:5:201", "tol": 1e-10},
    "noise": {**_COMMON_DEFAULTS, "grid": "-5:5:201", "tol": 1e-10},
    "fdt": {**_COMMON_DEFAULTS, "grid": "-5:5:101", "tol": 1e-8},
    "causality": {
        **_COMMON_DEFAULTS,
        "grid": "-200:200:16001",
        "tol": 1e-3,
        "inject": None,
    },
    "squeeze": {
        **_COMMON_DEFAULTS,
        "grid": "-5:5:201",
        "tol": 1e-10,
        "format": "json",
        "osc_freq": 1.0,
        "osc_amp": 1.0,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters, embedded verbatim in every output."""

    command: str
    model: str
    omega_c: float
    file: str | None
    state: str
    temp: float
    temp_phi: float | None
    temp_psi: float | None
    hbar: float
    grid: str
    tol: float
    out: str | None
    format: str
    osc_freq: float | None = None
    osc_amp: float | None = None
    inject: str | None = None

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        for key, allowed in _CHOICES.items():
            if getattr(self, key) not in allowed + (None,):
                raise ValueError(f"unknown {key} {getattr(self, key)!r}; choose from {', '.join(allowed)}")

    def as_dict(self) -> dict[str, object]:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _load_config_file(path: str) -> dict[str, str]:
    """Parse a flat key = value file; '#' starts a comment line."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not value.strip():
            raise ValueError(f"config line is not 'key = value': {raw!r}")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _resolve(args: argparse.Namespace) -> RunConfig:
    """Merge per-command defaults, config file entries, then flags."""
    defaults = dict(_DEFAULTS[args.command])
    if getattr(args, "config", None):
        for key, text in _load_config_file(args.config).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            defaults[key] = float(text) if key in _FLOAT_KEYS else text
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            defaults[key] = value
    return RunConfig(command=args.command, **defaults)  # type: ignore[arg-type]


def _build_model(cfg: RunConfig) -> Mirror:
    if cfg.model == "single-pole":
        return SinglePoleMirror(cfg.omega_c)
    if cfg.model == "perfect":
        return PerfectMirror()
    if not cfg.file:
        raise ValueError("--model table requires --file")
    return TabulatedMirror.from_csv(cfg.file)


def _build_state(cfg: RunConfig) -> FieldState:
    context = PhysicsContext(hbar=cfg.hbar)
    if cfg.state == "vacuum":
        return VacuumState(context)
    if cfg.state == "thermal":
        return ThermalState(cfg.temp, context)
    if cfg.temp_phi is None or cfg.temp_psi is None:
        raise ValueError("two-temperature state requires --temp-phi and --temp-psi")
    return TwoTemperatureState(cfg.temp_phi, cfg.temp_psi, context)


def _parse_grid(cfg: RunConfig) -> FrequencyGrid:
    parts = cfg.grid.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be MIN:MAX:COUNT, got {cfg.grid!r}")
    try:
        w_min, w_max, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be MIN:MAX:COUNT, got {cfg.grid!r}") from None
    return FrequencyGrid.linear(w_min, w_max, count)


def _quad(cfg: RunConfig) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=cfg.tol, rel_tol=cfg.tol)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text)


def _header(cfg: RunConfig) -> list[str]:
    return [
        f"# vacmirror {__version__}",
        "# config " + json.dumps(cfg.as_dict(), sort_keys=True),
    ]


def _write_table(
    cfg: RunConfig,
    columns: list[str],
    rows: list[tuple[float, ...]],
    comments: list[str] | None = None,
) -> None:
    if cfg.format == "json":
        data = {
            name: [row[k] for row in rows] for k, name in enumerate(columns)
        }
        _write_json(cfg, {"data": data, "comments": comments or []})
        return
    lines = _header(cfg) + (comments or []) + [",".join(columns)]
    lines += [",".join(_FMT % v for v in row) for row in rows]
    _emit(cfg, "\n".join(lines) + "\n")


def _write_report(cfg: RunConfig, fields: dict[str, object]) -> None:
    if cfg.format == "json":
        _write_json(cfg, {"report": fields})
        return
    lines = _header(cfg) + ["key,value"]
    for key, value in fields.items():
        text = _FMT % value if isinstance(value, float) else str(value).lower()
        lines.append(f"{key},{text}")
    _emit(cfg, "\n".join(lines) + "\n")


def _write_json(cfg: RunConfig, payload: dict[str, object]) -> None:
    doc = {"version": __version__, "config": cfg.as_dict()}
    doc.update(payload)
    _emit(cfg, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_validate(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    grid = _parse_grid(cfg)
    report = validate_model(model, grid, tol=cfg.tol)
    fields: dict[str, object] = {
        name: getattr(report, name)
        for name in ("reality", "unitarity", "symmetry", "causality", "tail_bound", "transparency")
    }
    fields.update({f"{name}_pass": flag for name, flag in report.checks.items()})
    fields["passed"] = report.passed
    _write_report(cfg, fields)
    return 0 if report.passed else 1


def cmd_susceptibility(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    state = _build_state(cfg)
    grid = _parse_grid(cfg)
    spectrum = susceptibility_grid(model, state, grid, _quad(cfg))
    rows = [
        (float(w), float(v.real), float(v.imag))
        for w, v in zip(spectrum.omega, spectrum.values)
    ]
    _write_table(cfg, ["omega", "re_chi", "im_chi"], rows)
    return 0


def cmd_noise(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    state = _build_state(cfg)
    grid = _parse_grid(cfg)
    quad = _quad(cfg)
    cff = noise_spectrum(model, state, grid.omega, quad)
    xiff = xi_spectrum(model, state, grid.omega, quad)
    rows = [(float(w), float(c), float(x)) for w, c, x in zip(grid.omega, cff, xiff)]
    comments = []
    if cfg.state == "thermal":
        # detailed balance: C(-w)/C(w) should follow the Boltzmann factor
        table = {row[0]: row[1] for row in rows}
        for w in sorted(table):
            if w <= 0 or -w not in table or table[w] == 0.0:
                continue
            ratio = table[-w] / table[w]
            boltzmann = float(np.exp(-cfg.hbar * w / cfg.temp))
            comments.append(
                f"# balance omega={_FMT % w} ratio={_FMT % ratio} "
                f"boltzmann={_FMT % boltzmann}"
            )
    _write_table(cfg, ["omega", "cff", "xiff"], rows, comments)
    return 0


def cmd_fdt(cfg: RunConfig) -> int:
    model = _build_model(cfg)
    state = _build_state(cfg)
    grid = _parse_grid(cfg)
    report = fdt_check(model, state, grid, _quad(cfg))
    passed = report.passes(cfg.tol)
    rows = [
        (float(w), float(a), float(b), float(c))
        for w, a, b, c in zip(
            grid.omega, report.xi_commutator, report.xi_noise, report.xi_chi
        )
    ]
    comments = [
        f"# max_deviation {_FMT % report.max_deviation}",
        f"# relative_deviation {_FMT % report.relative_deviation}",
        f"# error_budget {_FMT % report.error_budget}",
        f"# tol {_FMT % cfg.tol}",
        f"# passed {str(passed).lower()}",
    ]
    if report.within_budget:
        comments.append(
            "# note max_deviation lies within error_budget: the routes agree to "
            "within their quadrature errors, and a smaller violation would not show"
        )
    _write_table(cfg, ["omega", "xi_commutator", "xi_noise", "xi_chi"], rows, comments)
    return 0 if passed else 1


def cmd_causality(cfg: RunConfig) -> int:
    grid = _parse_grid(cfg)
    om = grid.omega
    if cfg.inject == "cubic":
        values = 1j * cfg.hbar * om**3 / (6.0 * np.pi)
        spectrum = Spectrum(grid, values, {"label": "injected-cubic"})
    elif cfg.inject == "exponential":
        values = (1.0 + 1j * om) / (1.0 + om**2)
        spectrum = Spectrum(grid, values, {"label": "injected-exponential"})
    else:
        model = _build_model(cfg)
        state = _build_state(cfg)
        # --tol is the pass threshold here; the sweep always runs at the
        # default tight quadrature so the metrics see clean samples
        spectrum = susceptibility_grid(model, state, grid, QuadratureConfig())
    report = causality_report(spectrum)
    passed = report.passes(neg_tol=cfg.tol, kk_tol=0.01)
    _write_report(cfg, {**asdict(report), "passed": passed})
    return 0 if passed else 1


def cmd_squeeze(cfg: RunConfig) -> int:
    if cfg.format != "json":
        raise ValueError("squeeze output is json only; use --format json")
    if cfg.osc_freq is None or cfg.osc_freq <= 0:
        raise ValueError("--osc-freq must be positive")
    if cfg.osc_amp is None or cfg.osc_amp <= 0:
        raise ValueError("--osc-amp must be positive")
    model = _build_model(cfg)
    state = _build_state(cfg)
    # lines sit at w + w' = +/- 2 w0 for a mirror oscillating at w0
    osc = MonochromaticOscillation(amplitude=cfg.osc_amp, frequency=2.0 * cfg.osc_freq)
    entries = []
    for w, w2, matrix in oscillation_squeeze_lines(model, state, osc):
        entries.append(
            {
                "omega": w,
                "omega2": w2,
                "sum": w + w2,
                "same_sign": bool(w * w2 > 0),
                "matrix": [[[z.real, z.imag] for z in row] for row in matrix],
            }
        )
    strengths = oscillation_line_strength(model, state, osc)
    payload = {
        "data": {
            "lines": entries,
            "line_strength_minus": strengths[-osc.frequency],
            "line_strength_plus": strengths[osc.frequency],
        }
    }
    _write_json(cfg, payload)
    return 0


_COMMANDS = {
    "validate": cmd_validate,
    "susceptibility": cmd_susceptibility,
    "noise": cmd_noise,
    "fdt": cmd_fdt,
    "causality": cmd_causality,
    "squeeze": cmd_squeeze,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacmirror",
        description="Radiation-pressure spectra of a scattering mirror.",
    )
    parser.add_argument(
        "--version", action="version", version=f"vacmirror {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=_CHOICES["model"], help="mirror model")
    common.add_argument(
        "--omega-c", type=float, dest="omega_c", help="single-pole cutoff frequency"
    )
    common.add_argument("--file", help="CSV table for --model table")
    common.add_argument("--state", choices=_CHOICES["state"], help="input field state")
    common.add_argument("--temp", type=float, help="temperature for --state thermal")
    common.add_argument(
        "--temp-phi", type=float, dest="temp_phi", help="right-mover temperature"
    )
    common.add_argument(
        "--temp-psi", type=float, dest="temp_psi", help="left-mover temperature"
    )
    common.add_argument("--hbar", type=float, help="value of hbar (default 1)")
    common.add_argument("--grid", metavar="MIN:MAX:COUNT", help="frequency grid")
    common.add_argument(
        "--tol",
        type=float,
        help="quadrature tolerance; pass threshold for fdt/causality/validate",
    )
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=_CHOICES["format"], help="output format")
    common.add_argument("--config", help="flat key = value config file; flags win")

    sub = parser.add_subparsers(dest="command")
    sub.add_parser("validate", parents=[common], help="check model conditions")
    sub.add_parser("susceptibility", parents=[common], help="force susceptibility")
    sub.add_parser("noise", parents=[common], help="force noise spectrum")
    sub.add_parser("fdt", parents=[common], help="fluctuation-dissipation check")
    causality = sub.add_parser(
        "causality", parents=[common], help="time-domain causality metrics"
    )
    causality.add_argument(
        "--inject",
        choices=_CHOICES["inject"],
        help="score an injected analytic spectrum instead of the model",
    )
    squeeze = sub.add_parser(
        "squeeze", parents=[common], help="output-covariance squeezing lines"
    )
    squeeze.add_argument(
        "--osc-freq",
        type=float,
        dest="osc_freq",
        help="mirror oscillation frequency w0 (lines at +/- 2 w0)",
    )
    squeeze.add_argument(
        "--osc-amp", type=float, dest="osc_amp", help="oscillation amplitude dq0"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    # join "--grid -5:5:11" so the leading '-' is not mistaken for a flag
    for k in range(len(tokens) - 1):
        if tokens[k] == "--grid":
            tokens[k] = "--grid=" + tokens.pop(k + 1)
            break
    parser = _build_parser()
    args = parser.parse_args(tokens)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _resolve(args)
        return _COMMANDS[cfg.command](cfg)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
