import json

import numpy as np
import pytest

import vacmirror.cli
from vacmirror import SinglePoleMirror
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
    assert "\ntail_bound,0\n" in text


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


def test_noise_thermal_balance_comments(tmp_path):
    out = tmp_path / "noise.csv"
    code = main([
        "noise", "--state", "thermal", "--temp", "1.0",
        "--grid", "-2:2:9", "--out", str(out),
    ])
    assert code == 0
    balance = [l for l in out.read_text().splitlines() if l.startswith("# balance")]
    assert len(balance) == 4
    for line in balance:
        fields = dict(part.split("=") for part in line.split()[2:])
        assert np.isclose(float(fields["ratio"]), float(fields["boltzmann"]), rtol=1e-8)


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
    assert doc["report"]["tail_bound"] == 0.0  # the taper zeroes the edge samples
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


def test_exit_codes_for_input_errors(tmp_path, capsys):
    assert main(["susceptibility", "--grid", "1:2"]) == 2
    assert main(["validate", "--model", "table", "--file", str(tmp_path / "missing.csv")]) == 2
    assert main(["squeeze", "--format", "csv"]) == 2
    assert main([]) == 2
    capsys.readouterr()


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
def test_parser_of_one_command_behaves_as_the_full_parser(monkeypatch, capsys, argv):
    # main builds only the named command's subparser; help, usage, errors
    # and exit codes must not show it
    partial = _run(argv, capsys)
    monkeypatch.setattr(vacmirror.cli, "_build_parser", lambda names=None: _build_parser())
    assert partial == _run(argv, capsys)
    assert partial[1] or partial[2]
