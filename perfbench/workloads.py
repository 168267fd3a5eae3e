"""Workload definitions: the commands, their inputs, and their output checks.

A workload is a fixed list of ``vacmirror`` subcommands plus, for
``static-analysis``, one library scan.  Every command spells out its grid and
physics flags instead of relying on CLI defaults, so a later change of a
default does not silently change what is measured.  The seed draws the scan
pairs and the order in which a pass runs its items.

Each command runs through ``vacmirror.cli.main`` in-process, and its stdout
is captured and parsed.  Traced passes run the same calls with spans and
counting wrappers hooked into the package (see ``tracing.py``).  Every check
is one attempted operation; a check that fails is recorded and the pass
continues.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vacmirror.cli
from vacmirror import (
    chi_kernel,
    chi_kernel_comoving,
    chi_kernel_symmetrized,
    delta_cout,
    delta_cout_vacuum,
    energy_exchange_kernel,
    unitarity_identities,
)

REFS_PATH = Path(__file__).with_name("thermal_refs.json")

CLOSED_FORM_RTOL = 1e-10
# fdt runs its quadrature at --tol 1e-8 and passes at the same deviation
FDT_TOL = 1e-8
# recorded fdt routes may move by a few quadrature errors; relative to the peak
FDT_REF_TOL = 10 * FDT_TOL
BALANCE_RTOL = 1e-8
REF_RTOL = 1e-8
IDENTITY_TOL = 1e-12
VALIDATE_TOL = 1e-10
NEG_TIME_TOL = 1e-3
KK_TOL = 0.01


@dataclass(frozen=True)
class Command:
    """One CLI subcommand with explicit flags and its smoke-mode grid."""

    name: str
    flags: tuple[tuple[str, str], ...]
    grid: str
    smoke_grid: str

    def argv(self, smoke: bool) -> list[str]:
        out = [self.name]
        for key, value in self.flags:
            out += [f"--{key}", value]
        return out + [f"--grid={self.smoke_grid if smoke else self.grid}"]

    @property
    def label(self) -> str:
        """Command line without the grid, used as the reference key."""
        return " ".join([self.name] + [f"--{k} {v}" for k, v in self.flags])

    def flag(self, key: str, default: str | None = None) -> str | None:
        return dict(self.flags).get(key, default)


@dataclass(frozen=True)
class Scan:
    """Identity scan over seed-drawn frequency pairs (no quadrature)."""

    label: str
    pairs: int
    smoke_pairs: int


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Command | Scan, ...]


def _cmd(name: str, grid: str, smoke_grid: str, **flags: str) -> Command:
    pairs = tuple((k.replace("_", "-"), v) for k, v in flags.items())
    return Command(name, pairs, grid, smoke_grid)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vacuum-wideband",
            (
                _cmd("causality", "-200:200:2001", "-100:100:801", omega_c="2"),
                _cmd("susceptibility", "-40:40:201", "-40:40:11", omega_c="2"),
                _cmd("noise", "-40:40:101", "-40:40:11", omega_c="2"),
                _cmd("fdt", "-5:5:41", "-5:5:11", omega_c="10"),
            ),
        ),
        Workload(
            "thermal-spectra",
            (
                _cmd("susceptibility", "-5:5:101", "-5:5:5", state="thermal"),
                _cmd("noise", "-5:5:41", "-5:5:5", state="thermal"),
                _cmd(
                    "fdt", "-5:5:21", "-5:5:5",
                    state="two-temperature", temp_phi="2", temp_psi="0.5",
                ),
            ),
        ),
        Workload(
            "static-analysis",
            (
                _cmd("validate", "-50:50:4001", "-50:50:401"),
                _cmd("causality", "-200:200:16001", "-200:200:2001", inject="exponential"),
                _cmd("squeeze", "-5:5:201", "-5:5:201"),
                Scan("identity-scan", 5000, 100),
            ),
        ),
    )
}


@dataclass
class Tally:
    """Attempted and failed checks; failures keep a short description."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


@dataclass
class Inputs:
    """Everything a pass needs, built once per process from the seed."""

    smoke: bool
    order: list[Command | Scan]
    pairs: np.ndarray | None
    refs: dict


def build_inputs(name: str, seed: int, smoke: bool) -> Inputs:
    workload = WORKLOADS[name]
    order = list(workload.items)
    random.Random(seed).shuffle(order)
    pairs = None
    for item in workload.items:
        if isinstance(item, Scan):
            rng = np.random.default_rng(seed)
            count = item.smoke_pairs if smoke else item.pairs
            pairs = rng.uniform(-20.0, 20.0, (count, 2))
    refs = json.loads(REFS_PATH.read_text()) if name == "thermal-spectra" else {}
    return Inputs(smoke, order, pairs, refs)


# ------------------------------------------------------------------- commands


def run_cli(cmd: Command, smoke: bool) -> tuple[int, str]:
    """Run one subcommand through ``vacmirror.cli.main``; return code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = vacmirror.cli.main(cmd.argv(smoke))
    return rc, buf.getvalue()


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_output(cmd: Command, text: str) -> dict:
    """Parse CLI output into columns (arrays) and report fields."""
    if cmd.name == "squeeze":
        return json.loads(text)["data"]
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return {}
    header = body[0].split(",")
    if header == ["key", "value"]:
        return {k: _value(v) for k, v in (ln.split(",", 1) for ln in body[1:])}
    rows = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    out: dict = {name: rows[:, k] for k, name in enumerate(header)}
    for ln in lines:
        parts = ln[1:].split()
        if ln.startswith("#") and len(parts) == 2 and parts[0] in ("relative_deviation", "passed"):
            out[parts[0]] = _value(parts[1])
    return out


# ------------------------------------------------------------ closed-form checks


def chi_vacuum(omega: np.ndarray, omega_c: float) -> np.ndarray:
    """Single-pole vacuum susceptibility, closed form, any real frequency."""
    w = np.abs(omega)
    oc = omega_c
    log = np.log((w + 1j * oc) / (1j * oc))
    bracket = w - (2j * oc * (w + 1j * oc) / (w + 2j * oc)) * log
    val = (1j * oc / (2.0 * np.pi)) * (1j * w - 2.0 * oc) * bracket
    val = np.where(omega < 0, np.conj(val), val)
    return np.where(omega == 0, 0.0, val)


def xi_vacuum(omega: np.ndarray, omega_c: float) -> np.ndarray:
    """Im chi for the single-pole mirror over the vacuum; odd in w."""
    w = np.abs(omega)
    oc = omega_c
    val = (oc**2 / np.pi) * ((w / 2.0) * np.log1p(w**2 / oc**2) - w + oc * np.arctan(w / oc))
    return np.sign(omega) * val


def force_kernel_ref(w2: float, w: float, omega_c: float) -> np.ndarray:
    """F[w2, w] = eta - S(w) eta S(w2) from the single-pole amplitudes."""

    def smat(x: float) -> np.ndarray:
        s = x / (x + 1j * omega_c)
        r = -1j * omega_c / (x + 1j * omega_c)
        return np.array([[s, r], [r, s]])

    eta = np.diag([1.0, -1.0])
    return eta - smat(w) @ eta @ smat(w2)


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Worst |got - ref| / |ref|, with exact agreement required where ref is 0."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    if got.shape != ref.shape:
        return float("inf")
    diff = np.abs(got - ref)
    zero = ref == 0
    if np.any(diff[zero] != 0):
        return float("inf")
    if not np.any(~zero):
        return 0.0
    return float(np.max(diff[~zero] / np.abs(ref[~zero])))


def _ref_err(omega: np.ndarray, got: np.ndarray, ref_omega: np.ndarray, ref: np.ndarray,
             floor: float) -> float:
    """Worst deviation from recorded values, scaled by max(|ref|, floor * peak)."""
    idx = np.searchsorted(ref_omega, omega).clip(1, ref_omega.size - 1)
    idx = np.where(np.abs(ref_omega[idx - 1] - omega) < np.abs(ref_omega[idx] - omega), idx - 1, idx)
    if np.max(np.abs(ref_omega[idx] - omega), initial=0.0) > 1e-9:
        return float("inf")
    expected = ref[idx]
    scale = floor * max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), scale)))


def check_output(cmd: Command, rc: int, out: dict, inputs: Inputs, tally: Tally) -> None:
    """Score one command's parsed output."""
    tag = cmd.label
    tally.check(f"{tag}: exit code", rc == 0, f"got {rc}")
    if rc != 0:
        return
    vacuum = cmd.flag("state", "vacuum") == "vacuum"
    oc = float(cmd.flag("omega-c", "1"))
    refs = inputs.refs.get(cmd.label)

    def against_refs(columns: tuple[str, ...], tol: float = REF_RTOL, floor: float = 1e-3) -> None:
        worst = max(
            _ref_err(out["omega"], out[c], np.array(refs["omega"]), np.array(refs[c]), floor)
            for c in columns
        )
        tally.check(f"{tag}: recorded values", worst <= tol, f"worst {worst:.3e}")

    if cmd.name == "susceptibility":
        om = out["omega"]
        chi = out["re_chi"] + 1j * out["im_chi"]
        half = om.size // 2
        tally.check(
            f"{tag}: chi(-w) == conj chi(w) bitwise",
            bool(np.array_equal(om, -om[::-1]) and np.array_equal(chi[:half], np.conj(chi[:half:-1]))),
        )
        if vacuum:
            err = _rel_err(chi, chi_vacuum(om, oc))
            tally.check(f"{tag}: closed form", err <= CLOSED_FORM_RTOL, f"worst {err:.3e}")
        else:
            against_refs(("re_chi", "im_chi"))
    elif cmd.name == "noise":
        om, cff, xi = out["omega"], out["cff"], out["xiff"]
        if vacuum:
            tally.check(f"{tag}: zero noise for w <= 0", bool(np.all(cff[om <= 0] == 0.0)))
            xi_ref = xi_vacuum(om, oc)
            err = max(_rel_err(xi, xi_ref), _rel_err(cff[om > 0], 2.0 * xi_ref[om > 0]))
            tally.check(f"{tag}: closed form", err <= CLOSED_FORM_RTOL, f"worst {err:.3e}")
        else:
            temp = float(cmd.flag("temp", "1"))
            pos = om > 0
            neg = np.searchsorted(om, -om[pos])
            ok = np.array_equal(om[neg], -om[pos])
            err = float(np.max(np.abs(cff[neg] / (cff[pos] * np.exp(-om[pos] / temp)) - 1.0))) if ok else np.inf
            tally.check(f"{tag}: detailed balance", err <= BALANCE_RTOL, f"worst {err:.3e}")
            against_refs(("cff", "xiff"))
    elif cmd.name == "fdt":
        rel = out.get("relative_deviation", np.inf)
        tally.check(f"{tag}: fdt passes", out.get("passed") is True and rel <= FDT_TOL, f"relative deviation {rel:.3e}")
        routes = ("xi_commutator", "xi_noise", "xi_chi")
        if vacuum:
            xi_ref = xi_vacuum(out["omega"], oc)
            err = max(_rel_err(out[c], xi_ref) for c in routes)
            tally.check(f"{tag}: closed form", err <= CLOSED_FORM_RTOL, f"worst {err:.3e}")
        else:
            # relative to the peak: a correct rework of the 1e-8 quadrature may move
            # each value by about 1e-8 of the peak
            against_refs(routes, FDT_REF_TOL, floor=1.0)
    elif cmd.name == "causality":
        expected_mode = "direct" if cmd.flag("inject") == "exponential" else "inertial"
        ntf = out.get("negative_time_fraction", np.inf)
        kk = out.get("kk_residual", np.inf)
        tally.check(
            f"{tag}: verdict",
            out.get("passed") is True and out.get("mode") == expected_mode,
            f"passed={out.get('passed')} mode={out.get('mode')}",
        )
        tally.check(
            f"{tag}: metrics under thresholds",
            ntf < NEG_TIME_TOL and kk < KK_TOL,
            f"negative_time_fraction={ntf:.3e} kk_residual={kk:.3e}",
        )
    elif cmd.name == "validate":
        residuals = [out.get(k, np.inf) for k in ("reality", "unitarity", "symmetry")]
        tally.check(
            f"{tag}: model admissible",
            out.get("passed") is True and max(residuals) <= VALIDATE_TOL,
            f"passed={out.get('passed')} residuals={residuals}",
        )
    elif cmd.name == "squeeze":
        _check_squeeze(cmd, out, tally)


def _check_squeeze(cmd: Command, out: dict, tally: Tally) -> None:
    tag = cmd.label
    lines = out.get("lines", [])
    total = 2.0  # lines sit at w + w' = +/- 2 w0 for the default w0 = 1
    support = bool(lines) and all(
        abs(abs(e["sum"]) - total) <= 1e-15 and e["same_sign"] for e in lines
    )
    tally.check(f"{tag}: support rule", support, f"{len(lines)} lines")
    worst = 0.0
    for e in lines:
        w, w2 = e["omega"], e["omega2"]
        got = np.array([[complex(*z) for z in row] for row in e["matrix"]])
        sign = 1.0 if w > 0 else -1.0
        # amplitude/2 times the vacuum form (i hbar/2)(theta(w) - theta(-w')) F[w', w]
        ref = 0.5 * 0.5j * sign * force_kernel_ref(w2, w, 1.0)
        worst = max(worst, float(np.max(np.abs(got - ref)) / max(float(np.max(np.abs(ref))), 1.0)))
    tally.check(f"{tag}: vacuum closed form", worst <= IDENTITY_TOL, f"worst {worst:.3e}")
    strengths = (out.get("line_strength_minus", 0.0), out.get("line_strength_plus", 0.0))
    tally.check(f"{tag}: line strengths", all(np.isfinite(s) and s > 0 for s in strengths), str(strengths))


def check_scan(residuals: dict[str, float], tally: Tally) -> None:
    for name, worst in residuals.items():
        tally.check(f"identity-scan: {name}", worst <= IDENTITY_TOL, f"worst {worst:.3e}")


# -------------------------------------------------------------- library scan


def run_scan(pairs: np.ndarray, model, state, call) -> dict[str, float]:
    """Kernel-identity scan; returns the worst residual of each identity."""
    def pressure_scan():
        uni = max(max(unitarity_identities(model, a, b)) for a, b in pairs)
        exch = max(float(np.max(np.abs(energy_exchange_kernel(model, a)))) for a, _ in pairs)
        return uni, exch

    def frame_scan():
        worst = 0.0
        for a, b in pairs:
            lab = chi_kernel(model, state, a, b)
            com = chi_kernel_comoving(model, state, a, b)
            sym = chi_kernel_symmetrized(model, state, a, b)
            worst = max(worst, max(abs(lab - com), abs(sym - com)) / max(abs(lab), 1.0))
        return worst

    def squeeze_scan():
        worst = 0.0
        for a, b in pairs:
            general = delta_cout(model, state, a, b)
            closed = delta_cout_vacuum(model, a, b)
            worst = max(worst, float(np.max(np.abs(general - closed))) / max(float(np.max(np.abs(closed))), 1.0))
        return worst

    uni, exch = call("pressure.identity_scan", pressure_scan)
    frame = call("response.frame_scan", frame_scan)
    squeeze = call("squeezing.scan", squeeze_scan)
    return {
        "unitarity identities": uni,
        "energy exchange": exch,
        "frame equivalence": frame,
        "delta_cout routes": squeeze,
    }
