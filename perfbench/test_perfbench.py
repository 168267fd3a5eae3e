"""Wiring tests for the benchmark, on the smoke grids.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import compare
import run
import speed

run.cap_blas_threads()
if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

import vacmirror.cli  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def runner():
    with speed.Speedometer() as speedometer:
        yield lambda workload: run.Runner(workloads.build_inputs(workload, 7, smoke=True), speedometer)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_benchmark_spec(capsys, trace):
    argv = ["--workload", "static-analysis", "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--smoke"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for key in ("seed", "git_sha", "nproc", "cpu_model", "python", "numpy", "scipy", "blas_threads"):
        assert key in record["env"]


def test_workload_names_match_the_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_traced_pass_checks_and_counts_repeat(runner):
    r = runner("thermal-spectra")
    r.traced()
    r.traced()
    assert r.tally.failed == 0, r.tally.failures
    assert r.counts[0] == r.counts[1]
    assert r.counts[0][0] > 0 and r.counts[0][2] > 0


def test_untraced_and_traced_passes_agree_on_vacuum(runner):
    r = runner("vacuum-wideband")
    r.untraced()
    r.traced()
    assert r.tally.failed == 0, r.tally.failures
    assert r.layers[0]["trace.quadrature_share"] > 0.5


def test_traced_pass_spans_the_cli_calls_and_restores_the_package(runner):
    names = ("susceptibility_grid", "fdt_check", "SinglePoleMirror", "ThermalState")
    before = {name: getattr(vacmirror.cli, name) for name in names}
    r = runner("thermal-spectra")
    r.traced()
    assert {name: getattr(vacmirror.cli, name) for name in names} == before
    layers = r.layers[0]
    assert layers["response.samples"] == 5
    assert layers["response.susceptibility_grid_s"] > 0
    assert layers["fluctuations.noise_s"] > 0 and layers["fluctuations.fdt_check_s"] > 0
    assert layers["numerics.hilbert_s"] == 0


@pytest.mark.parametrize("kind", ["untraced", "traced"])
def test_wrong_output_counts_as_failure(monkeypatch, runner, kind):
    original = vacmirror.cli.susceptibility_grid

    def skewed(*args, **kwargs):
        spec = original(*args, **kwargs)
        return spec.with_values(spec.values * (1.0 + 1e-6))

    monkeypatch.setattr(vacmirror.cli, "susceptibility_grid", skewed)
    r = runner("thermal-spectra")
    getattr(r, kind)()
    assert r.tally.failed >= 1
    assert all(f.startswith("susceptibility") for f in r.tally.failures), r.tally.failures


def _fdt_refs_tally(scale: float) -> workloads.Tally:
    """Check the recorded two-temperature fdt routes, perturbed by ``scale`` of the peak."""
    cmd = next(c for c in workloads.WORKLOADS["thermal-spectra"].items if c.name == "fdt")
    inputs = workloads.build_inputs("thermal-spectra", 1, smoke=False)
    refs = {k: np.array(v) for k, v in inputs.refs[cmd.label].items()}
    peak = np.max(np.abs(refs["xi_chi"]))
    out = {**refs, "xi_chi": refs["xi_chi"] + scale * peak, "relative_deviation": 1e-9, "passed": True}
    tally = workloads.Tally()
    workloads.check_output(cmd, 0, out, inputs, tally)
    return tally


def test_fdt_reference_check_allows_quadrature_error_only():
    assert _fdt_refs_tally(2e-8).failed == 0
    failures = _fdt_refs_tally(1e-6).failures
    assert failures and all("recorded values" in f for f in failures)


def test_crashing_command_fails_and_the_pass_goes_on(monkeypatch, runner):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(vacmirror.cli, "validate_model", broken)
    r = runner("static-analysis")
    r.untraced()
    assert r.tally.failed == 1
    assert set(r.cli_times) == {"validate", "causality", "squeeze"}


def test_scan_residual_above_tolerance_fails():
    tally = workloads.Tally()
    workloads.check_scan({"unitarity identities": 1e-15, "frame equivalence": 1e-9}, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize(
    "change, expected",
    [
        ([8.0] * 10, "gain"),
        ([12.0] * 10, "regression"),
        ([10.05] * 10, "unchanged"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = [10.0 + 0.01 * k for k in range(10)]
    pairs = list(zip(parent, change))
    label, _ = compare.verdict(parent, change, pairs, "lower", 0.1, 0, 0)
    assert label == expected


def test_compare_flags_traced_counts_that_differ():
    def rec(seed, counts):
        return {"workload": "thermal-spectra", "seed": seed, "trace": 1, "counts": counts}

    same = [rec(1, [[4, 4, 2, 2, 5]]), rec(1, [[4, 4, 2, 2, 5], [4, 4, 2, 2, 5]]), rec(2, [[1, 1, 1, 1, 1]])]
    assert compare.count_mismatches(same) == []
    assert compare.count_mismatches(same + [rec(1, [[4, 4, 2, 3, 5]])]) == [("thermal-spectra", 1)]


def test_compare_reports_wide_spread_as_unresolved():
    parent = [5.0, 10.0, 15.0, 20.0, 10.0, 10.0, 6.0, 14.0, 9.0, 11.0]
    change = [10.5] * 10
    label, _ = compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.1, 0, 0)
    assert label == "unresolved"
