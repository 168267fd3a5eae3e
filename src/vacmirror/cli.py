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
import functools
import json
import sys
from collections import namedtuple
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .causality import causality_report
from .core import FrequencyGrid, Spectrum, sign_closure
from .fluctuations import fdt_check, noise_spectrum
from .fluctuations import xi_spectrum  # noqa: F401  (called by no command; perfbench/tracing.py rebinds it)
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

_Option = namedtuple("_Option", "type default choices help metavar", defaults=[None])

# every option once: the parser, config-file keys, the checks and the resolved
# config read this table; which command takes which option, and the defaults
# that differ per command, are in _SUBCOMMANDS
_OPTIONS: dict[str, _Option] = {
    "model": _Option(str, "single-pole", ("single-pole", "perfect", "table"), "mirror model"),
    "omega_c": _Option(float, 1.0, None, "single-pole cutoff frequency"),
    "file": _Option(str, None, None, "CSV table for --model table"),
    "state": _Option(str, "vacuum", ("vacuum", "thermal", "two-temperature"), "input field state"),
    "temp": _Option(float, 1.0, None, "temperature for --state thermal"),
    "temp_phi": _Option(float, None, None, "right-mover temperature"),
    "temp_psi": _Option(float, None, None, "left-mover temperature"),
    "hbar": _Option(float, 1.0, None, "value of hbar (default 1)"),
    "grid": _Option(str, "-5:5:201", None, "frequency grid", "MIN:MAX:COUNT"),
    "tol": _Option(
        float, 1e-10, None, "quadrature tolerance; pass threshold for fdt/causality/validate"
    ),
    "out": _Option(str, None, None, "output path (default: stdout)"),
    "format": _Option(str, "csv", ("csv", "json"), "output format"),
    "inject": _Option(
        str, None, ("cubic", "exponential"), "score an injected analytic spectrum instead of the model"
    ),
    "osc_freq": _Option(float, 1.0, None, "mirror oscillation frequency w0 (lines at +/- 2 w0)"),
    "osc_amp": _Option(float, 1.0, None, "oscillation amplitude dq0"),
}


class RunConfig(SimpleNamespace):
    """The command and the resolved value of every option it takes, embedded in every output."""

    def as_dict(self) -> dict[str, object]:
        return {k: v for k, v in vars(self).items() if v is not None}


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
    """Merge per-command defaults, config file entries, then flags, and check the values."""
    # the command's parser declared exactly the options the command takes
    defaults = _SUBCOMMANDS[args.command].defaults
    values = {k: defaults.get(k, opt.default) for k, opt in _OPTIONS.items() if hasattr(args, k)}
    if args.config:
        for key, text in _load_config_file(args.config).items():
            if key not in values:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            try:
                values[key] = _OPTIONS[key].type(text)
            except ValueError:
                raise ValueError(f"{args.config}: {key} = {text!r} is not a number") from None
    values.update({k: getattr(args, k) for k in values if getattr(args, k) is not None})
    for key, value in values.items():
        opt = _OPTIONS[key]
        if value is not None and opt.choices and value not in opt.choices:
            raise ValueError(f"unknown {key} {value!r}; choose from {', '.join(opt.choices)}")
        # every float option is a scale of the physics or the numerics
        if value is not None and opt.type is float and not 0 < value < np.inf:
            raise ValueError(f"--{key.replace('_', '-')} must be positive and finite, got {value}")
    return RunConfig(command=args.command, **values)


def _build_model(cfg: RunConfig) -> Mirror:
    if cfg.model == "single-pole":
        return SinglePoleMirror(cfg.omega_c)
    if cfg.model == "perfect":
        return PerfectMirror()
    if not cfg.file:
        raise ValueError("--model table requires --file")
    return TabulatedMirror.from_csv(cfg.file)


def _build_state(cfg: RunConfig) -> FieldState:
    if cfg.state == "vacuum":
        return VacuumState(cfg.hbar)
    if cfg.state == "thermal":
        return ThermalState(cfg.temp, cfg.hbar)
    if cfg.temp_phi is None or cfg.temp_psi is None:
        raise ValueError("two-temperature state requires --temp-phi and --temp-psi")
    return TwoTemperatureState(cfg.temp_phi, cfg.temp_psi, cfg.hbar)


def _parse_grid(text: str) -> FrequencyGrid:
    try:
        lo, hi, n = text.split(":")  # not three parts: ValueError too
        w_min, w_max, count = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"grid must be MIN:MAX:COUNT, got {text!r}") from None
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
    table: np.ndarray,
    comments: list[str] | None = None,
) -> None:
    """Write the named columns of a 2-D float array, one row per line."""
    if cfg.format == "json":
        _write_json(cfg, {"data": dict(zip(columns, table.T.tolist())), "comments": comments or []})
        return
    row = ",".join([_FMT] * len(columns))
    lines = _header(cfg) + (comments or []) + [",".join(columns)]
    lines += [row % tuple(values) for values in table.tolist()]
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


def cmd_validate(cfg: RunConfig, grid: FrequencyGrid) -> int:
    model = _build_model(cfg)
    report = validate_model(model, grid, tol=cfg.tol)
    fields: dict[str, object] = {
        name: getattr(report, name)
        for name in ("reality", "unitarity", "symmetry", "causality", "transparency")
    }
    fields.update({f"{name}_pass": flag for name, flag in report.checks.items()})
    fields["passed"] = report.passed
    _write_report(cfg, fields)
    return 0 if report.passed else 1


def cmd_susceptibility(cfg: RunConfig, grid: FrequencyGrid) -> int:
    model = _build_model(cfg)
    state = _build_state(cfg)
    spectrum = susceptibility_grid(model, state, grid, _quad(cfg))
    table = np.column_stack([spectrum.omega, spectrum.values.real, spectrum.values.imag])
    _write_table(cfg, ["omega", "re_chi", "im_chi"], table)
    return 0


def cmd_noise(cfg: RunConfig, grid: FrequencyGrid) -> int:
    model = _build_model(cfg)
    state = _build_state(cfg)
    # one noise convolution at w and -w gives xi(w) = (C(w) - C(-w)) / (2 hbar)
    closed, at, mirror = sign_closure(grid.omega)
    noise = noise_spectrum(model, state, closed, _quad(cfg))
    cff, xiff = noise[at], (noise[at] - noise[mirror]) / (2.0 * cfg.hbar)
    comments = []
    if cfg.state == "thermal":
        # detailed balance: C(-w)/C(w) should follow the Boltzmann factor
        for w, c, c_minus in zip(grid.omega.tolist(), cff.tolist(), noise[mirror].tolist()):
            if w > 0 and c != 0.0:
                ratio, factor = c_minus / c, float(np.exp(-cfg.hbar * w / cfg.temp))
                comments.append(f"# balance omega={_FMT % w} ratio={_FMT % ratio} boltzmann={_FMT % factor}")
    _write_table(cfg, ["omega", "cff", "xiff"], np.column_stack([grid.omega, cff, xiff]), comments)
    return 0


def cmd_fdt(cfg: RunConfig, grid: FrequencyGrid) -> int:
    model = _build_model(cfg)
    state = _build_state(cfg)
    report = fdt_check(model, state, grid, _quad(cfg))
    passed = report.passes(cfg.tol)
    table = np.column_stack([grid.omega, report.xi_commutator, report.xi_noise, report.xi_chi])
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
    _write_table(cfg, ["omega", "xi_commutator", "xi_noise", "xi_chi"], table, comments)
    return 0 if passed else 1


def cmd_causality(cfg: RunConfig, grid: FrequencyGrid) -> int:
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
    passed = report.passes(neg_tol=cfg.tol)
    _write_report(cfg, {**asdict(report), "passed": passed})
    return 0 if passed else 1


def cmd_squeeze(cfg: RunConfig, grid: FrequencyGrid) -> int:
    if cfg.format != "json":
        raise ValueError("squeeze output is json only; use --format json")
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
                "matrix": np.stack([matrix.real, matrix.imag], axis=-1).tolist(),
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


_Subcommand = namedtuple("_Subcommand", "run help options defaults without", defaults=[(), {}, ()])

# each command's function, help, the options only it takes, its defaults
# where they differ from _OPTIONS (grid spans and the meaning of --tol
# differ), and the shared options it does not take
_SUBCOMMANDS: dict[str, _Subcommand] = {
    "validate": _Subcommand(
        cmd_validate, "check model conditions", (), {"grid": "-50:50:4001"},
        ("state", "temp", "temp_phi", "temp_psi", "hbar"),
    ),
    "susceptibility": _Subcommand(cmd_susceptibility, "force susceptibility"),
    "noise": _Subcommand(cmd_noise, "force noise spectrum"),
    "fdt": _Subcommand(cmd_fdt, "fluctuation-dissipation check", (), {"grid": "-5:5:101", "tol": 1e-8}),
    "causality": _Subcommand(
        cmd_causality, "time-domain causality metrics", ("inject",),
        {"grid": "-200:200:16001", "tol": 1e-3},
    ),
    # squeeze reads no grid, but main parses and so checks every command's --grid
    "squeeze": _Subcommand(
        cmd_squeeze, "output-covariance squeezing lines", ("osc_freq", "osc_amp"), {"format": "json"},
        ("tol",),
    ),
}


# parse_args leaves the parser as it found it (no append actions, mutable
# defaults or set_defaults), so one parser serves every command and every call
# in a process; help is still wrapped to the terminal width at print time
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vacmirror",
        description="Radiation-pressure spectra of a scattering mirror.",
    )
    parser.add_argument("--version", action="version", version=f"vacmirror {__version__}")

    def add(target: argparse.ArgumentParser, key: str) -> None:
        opt = _OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        target.add_argument(
            flag, type=opt.type, choices=opt.choices, help=opt.help, metavar=opt.metavar
        )

    own = {key for sub in _SUBCOMMANDS.values() for key in sub.options}
    commands = parser.add_subparsers(dest="command")
    for name, sub in _SUBCOMMANDS.items():
        command = commands.add_parser(name, help=sub.help)
        for key in _OPTIONS:
            if key not in own and key not in sub.without:
                add(command, key)
        command.add_argument("--config", help="flat key = value config file; flags win")
        for key in sub.options:
            add(command, key)
    return parser


def main(argv: list[str] | None = None) -> int:
    # join every "--grid -5:5:11" so the leading '-' is not mistaken for a flag
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] == "--grid":
            tokens[-1] = "--grid=" + token
        else:
            tokens.append(token)
    parser = _build_parser()
    args = parser.parse_args(tokens)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        cfg = _resolve(args)
        return _SUBCOMMANDS[cfg.command].run(cfg, _parse_grid(cfg.grid))
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
