import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vacmirror.cli
import vacmirror.core
import vacmirror.fluctuations
import vacmirror.response
from vacmirror import (
    QuadratureConfig,
    SinglePoleMirror,
    ThermalState,
    TwoTemperatureState,
    VacuumState,
    noise_spectrum,
    xi_spectrum,
)
from vacmirror.cli import _OPTIONS, _SUBCOMMANDS, _build_parser, _resolve, main


def _read_csv_rows(path):
    rows = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "," not in line or line[0].isalpha():
            continue
        vals = [float(x) for x in line.split(",")]
        rows[vals[0]] = vals[1:]
    return rows


def _write_table_csv(path, scale_r=1.0):
    m = SinglePoleMirror(1.0)
    om = np.linspace(0.0, 60.0, 601)
    r = scale_r * m.r(om)
    rows = np.column_stack([om, m.s(om).real, m.s(om).imag, r.real, r.imag])
    np.savetxt(path, rows, delimiter=",", header="omega,re_s,im_s,re_r,im_r", comments="")


def test_validate_single_pole_passes(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["validate", "--grid", "-50:50:2001", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# vacmirror")
    assert "passed,true" in text


# the report keys, in order, as the README lists them
_REPORT_KEYS = {
    "validate": [
        "reality", "unitarity", "symmetry", "causality", "transparency",
        "reality_pass", "unitarity_pass", "symmetry_pass", "causality_pass", "transparency_pass",
        "passed",
    ],
    "causality": [
        "mode", "negative_time_fraction", "kk_residual", "plateau", "t_exclusion",
        "negative_energy", "total_energy", "passed",
    ],
}


@pytest.mark.parametrize("command", sorted(_REPORT_KEYS))
def test_report_keys_are_the_documented_set(command, tmp_path):
    out = tmp_path / "report"
    for fmt in ("csv", "json"):
        main([command, "--grid", "-50:50:2001", "--format", fmt, "--out", str(out)])
        text = out.read_text()
        if fmt == "csv":
            lines = text.splitlines()
            assert [line.split(",")[0] for line in lines[lines.index("key,value") + 1:]] == _REPORT_KEYS[command]
        else:
            assert sorted(json.loads(text)["report"]) == sorted(_REPORT_KEYS[command])


def test_validate_perfect_fails_transparency(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["validate", "--model", "perfect", "--grid", "-50:50:2001", "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "transparency_pass,false" in text
    assert "unitarity_pass,true" in text


def test_validate_tabulated_model(tmp_path):
    table = tmp_path / "mirror.csv"
    _write_table_csv(table)
    out = tmp_path / "report.csv"
    # spline interpolation is unitary only to O(h^4) between knots
    code = main([
        "validate", "--model", "table", "--file", str(table),
        "--grid", "-50:50:2001", "--tol", "1e-3", "--out", str(out),
    ])
    assert code == 0
    bad = tmp_path / "bad.csv"
    _write_table_csv(bad, scale_r=1.3)
    code = main([
        "validate", "--model", "table", "--file", str(bad),
        "--grid", "-50:50:2001", "--tol", "1e-3", "--out", str(out),
    ])
    assert code == 1


def test_susceptibility_table_values(tmp_path):
    out = tmp_path / "chi.csv"
    code = main([
        "susceptibility", "--model", "perfect", "--grid", "-2:2:41", "--out", str(out),
    ])
    assert code == 0
    rows = _read_csv_rows(out)
    re, im = rows[1.0]
    assert abs(re) < 1e-12
    assert np.isclose(im, 1.0 / (6.0 * np.pi), rtol=1e-10)
    # reality: chi(-w) = conj chi(w)
    assert rows[-1.0][0] == re and rows[-1.0][1] == -im


def test_susceptibility_perfect_mirror_in_thermal_state(tmp_path):
    # the thermal occupancy bounds the integrand even without transparency
    out = tmp_path / "chi.csv"
    code = main([
        "susceptibility", "--model", "perfect", "--state", "thermal", "--temp", "0.5",
        "--grid", "-2:2:5", "--out", str(out),
    ])
    assert code == 0
    re, im = _read_csv_rows(out)[2.0]
    assert abs(re) < 1e-12
    assert np.isclose(im, 8.0 / (6.0 * np.pi) + 2.0 * np.pi * 2.0 * 0.25 / 3.0, rtol=1e-10)


def test_susceptibility_perfect_mirror_at_high_temperature(tmp_path):
    # alpha = 2 never decays, so the 46 T/hbar window converges only if the
    # vacuum part of the kernel cancels exactly outside [0, w]
    out = tmp_path / "chi.csv"
    code = main([
        "susceptibility", "--model", "perfect", "--state", "thermal", "--temp", "100",
        "--grid=-4:4:9", "--out", str(out),
    ])
    assert code == 0
    re, im = _read_csv_rows(out)[4.0]
    assert np.isclose(im, 64.0 / (6.0 * np.pi) + 2.0 * np.pi * 4.0 * 1e4 / 3.0, rtol=1e-10)


# one comment per w > 0, whether or not -w is a grid point
@pytest.mark.parametrize("grid, count", [("-2:2:9", 4), ("0:4:9", 8), ("-1:3:9", 6)])
def test_noise_thermal_balance_comments(tmp_path, grid, count):
    out = tmp_path / "noise.csv"
    code = main([
        "noise", "--state", "thermal", "--temp", "1.0",
        "--grid", grid, "--out", str(out),
    ])
    assert code == 0
    balance = [l for l in out.read_text().splitlines() if l.startswith("# balance")]
    assert len(balance) == count
    for line in balance:
        fields = dict(part.split("=") for part in line.split()[2:])
        assert np.isclose(float(fields["ratio"]), float(fields["boltzmann"]), rtol=1e-8)


_NOISE_STATES = {
    "vacuum": ([], VacuumState()),
    "thermal": (["--state", "thermal", "--temp", "1.0"], ThermalState(1.0)),
    "two-temperature": (
        ["--state", "two-temperature", "--temp-phi", "2", "--temp-psi", "0.5"],
        TwoTemperatureState(2.0, 0.5),
    ),
}


@pytest.mark.parametrize("grid", ["-2:2:9", "0:4:9", "-1:3:9"])
@pytest.mark.parametrize("state", list(_NOISE_STATES))
def test_noise_command_reads_xi_off_its_noise_spectrum(tmp_path, state, grid):
    flags, field_state = _NOISE_STATES[state]
    out = tmp_path / "noise.json"
    assert main(["noise", *flags, f"--grid={grid}", "--format", "json", "--out", str(out)]) == 0
    data = json.loads(out.read_text())["data"]
    omega, cff, xiff = (np.array(data[key]) for key in ("omega", "cff", "xiff"))
    model, quad = SinglePoleMirror(1.0), QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    xi = xi_spectrum(model, field_state, omega, quad)
    assert np.max(np.abs(xiff - xi)) <= 1e-12 * np.max(np.abs(xi))
    if np.array_equal(omega, -omega[::-1]):
        assert np.array_equal(xiff, -xiff[::-1])
        assert xiff[omega == 0.0] == 0.0
        assert np.array_equal(cff, noise_spectrum(model, field_state, omega, quad))


def test_noise_command_runs_one_convolution(tmp_path, monkeypatch):
    calls = []
    convolve = vacmirror.response.convolve

    def counting(kernel, model, state, omegas, *args, **kwargs):
        calls.append(np.size(omegas))
        return convolve(kernel, model, state, omegas, *args, **kwargs)

    # the noise spectrum convolves directly, xi_spectrum through response.fold
    monkeypatch.setattr(vacmirror.fluctuations, "convolve", counting)
    monkeypatch.setattr(vacmirror.response, "convolve", counting)
    argv = ["noise", "--state", "thermal", "--grid=-1:3:9", "--out", str(tmp_path / "noise.csv")]
    assert main(argv) == 0
    # once, on the 13 frequencies +/-w of the 9 grid points
    assert calls == [13]


def test_fdt_passes_for_vacuum(tmp_path):
    out = tmp_path / "fdt.csv"
    code = main(["fdt", "--grid", "-2:2:11", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "# passed true" in text
    budget = next(ln for ln in text.splitlines() if ln.startswith("# error_budget "))
    assert 0.0 < float(budget.split()[-1]) < 1e-8
    assert "# note max_deviation lies within error_budget" in text


def test_fdt_fails_for_broken_table(tmp_path):
    table = tmp_path / "bad.csv"
    _write_table_csv(table, scale_r=1.3)
    out = tmp_path / "fdt.csv"
    code = main([
        "fdt", "--model", "table", "--file", str(table),
        "--grid", "-2:2:11", "--out", str(out),
    ])
    assert code == 1
    text = out.read_text()
    assert "# passed false" in text
    assert "# error_budget " in text and "# note" not in text


def test_causality_injected_spectra(tmp_path):
    out = tmp_path / "causality.json"
    code = main([
        "causality", "--inject", "exponential", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["mode"] == "direct"
    assert doc["report"]["negative_time_fraction"] < 1e-5
    code = main([
        "causality", "--inject", "cubic", "--format", "json", "--out", str(out),
    ])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["report"]["passed"] is False


def test_squeeze_json_payload(tmp_path):
    out = tmp_path / "squeeze.json"
    code = main(["squeeze", "--osc-freq", "1.0", "--osc-amp", "1.0", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    lines = doc["data"]["lines"]
    assert len(lines) == 66
    for entry in lines:
        assert entry["same_sign"] is True
        assert np.isclose(abs(entry["sum"]), 2.0)
        assert np.shape(entry["matrix"]) == (2, 2, 2)
    assert doc["data"]["line_strength_plus"] > 0.0
    assert np.isclose(
        doc["data"]["line_strength_plus"], doc["data"]["line_strength_minus"], rtol=1e-12
    )


def _single_pole_force_kernel(w, w2):
    """F[w, w2] = eta - S(w2) eta S(w) from the Omega = 1 single-pole amplitudes, as 2x2 products."""

    def smat(x):
        s, r = x / (x + 1j), -1j / (x + 1j)
        return np.array([[s, r], [r, s]])

    eta = np.diag([1.0, -1.0])
    return eta - smat(w2) @ eta @ smat(w)


def _squeeze_data(directory, freq):
    out = directory / f"squeeze-{freq}.json"
    assert main(["squeeze", "--osc-freq", freq, "--out", str(out)]) == 0
    return json.loads(out.read_text())["data"]


@pytest.mark.parametrize("freq", ["1e100", "1e200", "1e300", "8e307"])
def test_squeeze_holds_up_to_the_largest_line_sum(tmp_path, freq):
    # warnings are errors here: no line sample may overflow, no norm underflow
    data = _squeeze_data(tmp_path, freq)
    assert len(data["lines"]) == 66
    total = 2.0 * float(freq)
    for entry in data["lines"]:
        w, w2 = entry["omega"], entry["omega2"]
        assert entry["same_sign"] and abs(abs(entry["sum"]) - total) <= 1e-15 * total
        # amplitude/2 times the vacuum form (i hbar/2)(theta(w) - theta(-w')) F[w', w]
        ref = 0.25j * np.sign(w) * _single_pole_force_kernel(w2, w)
        got = np.array(entry["matrix"]) @ [1.0, 1j]
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
    # the strength does not depend on the drive once it is far above the mirror's cutoff
    reference = _squeeze_data(tmp_path, "1e100")["line_strength_plus"]
    strengths = [data["line_strength_minus"], data["line_strength_plus"]]
    assert np.allclose(strengths, reference, rtol=1e-12, atol=0.0)


def test_exit_codes_for_input_errors(tmp_path, capsys):
    assert main(["susceptibility", "--grid", "1:2"]) == 2
    assert main(["validate", "--model", "table", "--file", str(tmp_path / "missing.csv")]) == 2
    assert main(["squeeze", "--format", "csv"]) == 2
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["susceptibility", "--config", "{missing}"], None, "cannot read config file {missing}"),
        (["susceptibility", "--config", "{cfg}"], "omega-c 2.0\n",
         "config line is not 'key = value': 'omega-c 2.0'"),
        (["susceptibility", "--model", "table"], None, "--model table requires --file"),
        (["noise", "--state", "two-temperature", "--temp-phi", "2"], None,
         "two-temperature state requires --temp-phi and --temp-psi"),
        (["susceptibility", "--grid=1:2:x"], None, "grid must be MIN:MAX:COUNT, got '1:2:x'"),
        # a non-finite bound is named before the grid is spaced: numpy warns of
        # nothing (warnings are errors here) and it is not misread as unsorted
        (["noise", "--grid=-inf:inf:5"], None, "w_min must be finite, got -inf"),
        (["noise", "--grid=nan:1:5"], None, "w_min must be finite, got nan"),
        (["noise", "--grid=-1:inf:5"], None, "w_max must be finite, got inf"),
        # finite bounds whose span overflows, sign-symmetric or not
        (["noise", "--grid=-1e308:1.5e308:5"], None, "grid span [-1e+308, 1.5e+308] is too wide"),
        (["noise", "--grid=-1e308:1e308:5"], None, "grid span [-1e+308, 1e+308] is too wide"),
        # a finite frequency whose line sum 2 w0 overflows is named as given
        (["squeeze", "--osc-freq", "1e308"], None, "--osc-freq 1e+308 puts the line sum 2 w0 past the largest float"),
    ],
    ids=["unreadable-config", "config-line-without-equals", "table-without-file",
         "one-temperature", "non-integer-count", "infinite-span", "nan-bound", "infinite-max",
         "overflowing-span", "overflowing-symmetric-span", "overflowing-line-sum"],
)
def test_input_error_exits_name_the_bad_input(tmp_path, capsys, argv, config, message):
    paths = {"missing": tmp_path / "missing.cfg", "cfg": tmp_path / "run.cfg"}
    if config is not None:
        paths["cfg"].write_text(config)
    out = tmp_path / "never.out"
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
    # one line on stderr, nothing else
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {message.format(**paths)}")
    assert not out.exists()


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_every_command_checks_its_grid(tmp_path, capsys, command):
    # squeeze reads no grid, yet a malformed one is an input error there too
    out = tmp_path / "never.out"
    for argv in ([command, "--grid=abc"], [command, "--grid", "abc"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert "error: grid must be MIN:MAX:COUNT, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_every_command_builds_one_grid(monkeypatch, capsys, command):
    built = []
    post_init = vacmirror.core.FrequencyGrid.__post_init__
    monkeypatch.setattr(vacmirror.core.FrequencyGrid, "__post_init__", lambda g: built.append(g) or post_init(g))
    extra = {"causality": ["--inject", "cubic", "--grid=-2:2:129"]}.get(command, [])
    assert main([command, "--grid=-2:2:5"] + extra) in (0, 1)
    capsys.readouterr()
    assert len(built) == 1


def test_every_grid_flag_is_joined_and_the_last_wins(capsys):
    last = _run(["noise", "--grid=-2:2:5"], capsys)
    assert last[0] == 0
    assert _run(["noise", "--grid", "-1:1:3", "--grid", "-2:2:5"], capsys) == last
    assert _run(["noise", "--grid=-1:1:3", "--grid", "-2:2:5"], capsys) == last
    assert _run(["noise", "--grid", "-1:1:3", "--grid=-2:2:5"], capsys) == last


def test_exit_code_for_non_convergence(tmp_path, capsys):
    # a tolerance far below double-precision rounding cannot be met
    out = tmp_path / "x.csv"
    code = main(["susceptibility", "--grid", "-2:2:5", "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "susceptibility at omega=" in err
    assert not out.exists()


def test_runs_are_deterministic(tmp_path):
    out = tmp_path / "chi.csv"
    argv = ["susceptibility", "--grid", "-2:2:21", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega-c = 2.0\ngrid = -1:1:5\n# comment\n")
    out = tmp_path / "chi.csv"
    code = main([
        "susceptibility", "--config", str(cfg), "--omega-c", "3.0", "--out", str(out),
    ])
    assert code == 0
    header = [l for l in out.read_text().splitlines() if l.startswith("# config")][0]
    resolved = json.loads(header[len("# config "):])
    assert resolved["omega_c"] == 3.0
    assert resolved["grid"] == "-1:1:5"
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["susceptibility", "--config", str(bad), "--out", str(out)]) == 2
    # config values get the same choice checks as flags
    never = tmp_path / "never.out"
    for key, value in (("inject", "exponental"), ("model", "mirror"), ("state", "hot"), ("format", "xml")):
        bad.write_text(f"{key} = {value}\n")
        command = "causality" if key == "inject" else "susceptibility"
        assert main([command, "--config", str(bad), "--out", str(never)]) == 2
        assert f"unknown {key} {value!r}" in capsys.readouterr().err
    assert not never.exists()
    bad.write_text("omega-c = abc\n")
    assert main(["susceptibility", "--config", str(bad), "--out", str(never)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "omega_c = 'abc'" in err
    assert not never.exists()


_COMMON = {"model", "omega_c", "file", "grid", "out", "format"}
_STATE = {"state", "temp", "temp_phi", "temp_psi", "hbar"}
# validate builds no state, and squeeze integrates nothing
_TAKES = {
    "validate": _COMMON | {"tol"},
    "susceptibility": _COMMON | _STATE | {"tol"},
    "noise": _COMMON | _STATE | {"tol"},
    "fdt": _COMMON | _STATE | {"tol"},
    "causality": _COMMON | _STATE | {"tol", "inject"},
    "squeeze": _COMMON | _STATE | {"osc_freq", "osc_amp"},
}


def _sample(key):
    """A value for the option that differs from every command's default."""
    if _OPTIONS[key].choices:
        return _OPTIONS[key].choices[-1]
    return {"grid": "-1:1:5", "file": "m.csv", "out": "x.out"}.get(key, "2.5")


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_flag_and_config_key_resolve_alike(tmp_path, command):
    parser = _build_parser()
    taken = set(vars(_resolve(parser.parse_args([command])))) - {"command"}
    assert taken == _TAKES[command]
    cfg = tmp_path / "run.cfg"
    for key in taken:
        value = _sample(key)
        by_flag = _resolve(parser.parse_args([command, f"--{key.replace('_', '-')}={value}"]))
        cfg.write_text(f"{key.replace('_', '-')} = {value}\n")
        by_file = _resolve(parser.parse_args([command, "--config", str(cfg)]))
        assert by_flag.as_dict() == by_file.as_dict()
        assert by_flag.as_dict()[key] == _OPTIONS[key].type(value)


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_option_of_another_command_is_rejected(tmp_path, capsys, command):
    parser = _build_parser()
    cfg = tmp_path / "run.cfg"
    others = set(_OPTIONS) - _TAKES[command]
    assert others
    for key in others:
        with pytest.raises(SystemExit):
            parser.parse_args([command, f"--{key.replace('_', '-')}={_sample(key)}"])
        cfg.write_text(f"{key} = {_sample(key)}\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}' for {command}"):
            _resolve(parser.parse_args([command, "--config", str(cfg)]))
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["validate", "--tol", "nan"], "--tol"),
        (["causality", "--inject", "exponential", "--tol", "nan"], "--tol"),
        (["susceptibility", "--omega-c", "inf"], "--omega-c"),
        (["susceptibility", "--temp", "inf", "--state", "thermal"], "--temp"),
        (["susceptibility", "--hbar", "inf"], "--hbar"),
        (["squeeze", "--osc-amp", "nan"], "--osc-amp"),
        (["fdt", "--state", "two-temperature", "--temp-phi", "1", "--temp-psi", "nan"], "--temp-psi"),
    ],
)
def test_non_finite_option_is_an_input_error(tmp_path, capsys, argv, option):
    out = tmp_path / "never.out"
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {option} must be positive and finite" in capsys.readouterr().err
    key, value = argv[-2].lstrip("-"), argv[-1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(argv[:-2] + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {option} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_csv_and_json_agree(tmp_path):
    csv_out = tmp_path / "chi.csv"
    json_out = tmp_path / "chi.json"
    base = ["susceptibility", "--grid", "-1:1:11"]
    assert main(base + ["--out", str(csv_out)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_out)]) == 0
    rows = _read_csv_rows(csv_out)
    doc = json.loads(json_out.read_text())
    data = doc["data"]
    for k, w in enumerate(data["omega"]):
        assert rows[w] == [data["re_chi"][k], data["im_chi"][k]]


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["--version"], ["bogus"], ["noise", "--grid=abc"], ["noise", "--bogus"], ["squeeze", "-x"]]
    + [[command, "--help"] for command in _SUBCOMMANDS],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_help_usage_and_errors_print_something(capsys, argv):
    _, out, err = _run(argv, capsys)
    assert out or err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["bogus"], ["noise", "--grid=abc"], ["validate", "--grid=-5:5:41"], ["squeeze"]],
    ids=" ".join,
)
def test_fresh_process_and_cached_parser_give_the_same_run(monkeypatch, capsys, argv):
    # one parser per process serves every command: a fresh interpreter and
    # main after other commands print the same and exit alike
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(vacmirror.cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "vacmirror.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    for other in (["noise", "--grid=-1:1:3"], ["fdt", "--help"], ["bogus"]):
        _run(other, capsys)
    assert _run(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_cached_parser_keeps_calls_independent(tmp_path, monkeypatch, capsys):
    # main builds one parser per process; no call, not even
    # a failing one, may leave anything in it for the next
    cfg = tmp_path / "run.cfg"
    cfg.write_text("temp = 2\n")
    base = ["noise", "--state", "thermal", "--grid=-1:1:3"]
    first = _run(base, capsys)
    with_temp = _run(base + ["--temp", "3"], capsys)
    with_config = _run(base + ["--config", str(cfg)], capsys)
    assert first[0] == with_temp[0] == with_config[0] == 0
    assert len({first[1], with_temp[1], with_config[1]}) == 3
    assert _run(["noise", "--bogus"], capsys)[0] == 2
    assert _run(["noise", "--grid=abc"], capsys)[0] == 2
    assert _run(base, capsys) == first

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert _run(base, capsys) == first
    assert built == []


def test_cached_parser_wraps_help_to_the_terminal_width(monkeypatch, capsys):
    # argparse reads COLUMNS when it formats, not when it builds the parser
    lines = []
    for columns in ("60", "200", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = _run(["noise", "--help"], capsys)
        assert code == 0
        lines.append(out.splitlines())
    assert lines[0] == lines[2]
    assert len(lines[0]) > len(lines[1])
    assert max(map(len, lines[0])) < max(map(len, lines[1]))
