"""vacmirror benchmark: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload vacuum-wideband --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.  One
process runs the load; BLAS thread pools are capped at the number of usable
cores.

``--trace 0`` runs untraced passes, each one call of ``vacmirror.cli.main`` per
command plus the library scan, and reports the end-to-end metrics:

* ``run_s``: median time of one pass (output checks excluded);
* ``setup_s``: median time to import ``vacmirror`` and ``vacmirror.cli`` and
  build the inputs, over five fresh interpreters;
* ``peak_rss_mb``: peak resident memory of this process.

Times are in reference seconds: wall time scaled by the machine speed
sampled during the interval (see ``speed.py``), because the shared hosts
this runs on change speed by up to 1.8x for tens of seconds at a time.  The
median raw wall time of a pass is kept in the run record as ``run_wall_s``.

``--trace 1`` alternates untraced passes with traced ones, which run the same
commands with spans and counting wrappers hooked into the package (see
``tracing.py``), and reports the per-layer metrics listed in
``tracing.PER_LAYER``, the ``cli.<command>_s`` split of the untraced passes,
and the tracing overhead (traced minus untraced pass time).

Passes repeat while the next one is predicted to end within ``--seconds``
of wall time; each kind runs at least once.  Every output is checked;
``attempted`` and ``failed`` in the result count the checks.  The last stdout
line is the result; the line before it is the run record (environment, pass
times, failures), also appended to ``--out`` when given.  ``--smoke`` uses
tiny grids on the same code path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

# workloads and tracing import vacmirror and numpy; they are imported only
# after the BLAS cap is set, and inside the set-up timing
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("vacuum-wideband", "thermal-spectra", "static-analysis")
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS pools at the usable core count; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > cap:
            os.environ[var] = str(cap)
    return cap


def timed_setup(workload: str, seed: int, smoke: bool):
    """Import the package and its CLI from ``src/`` and build the inputs.

    Returns the inputs and the time taken, in reference seconds.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import vacmirror
    import vacmirror.cli  # noqa: F401

    import workloads

    inputs = workloads.build_inputs(workload, seed, smoke)
    elapsed = speed.scale_now(time.perf_counter() - start)
    if Path(vacmirror.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"vacmirror was loaded from {vacmirror.__file__}, not from {SRC}")
    return inputs, elapsed


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Set-up time in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(int(smoke))]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def environment(seed: int, blas_cap: int) -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_cap,
    }


class Runner:
    """Untraced and traced passes over one workload's inputs.

    Both kinds run the same items the same way; a traced pass does so inside
    ``Tracer.hooks``.  Pass times are returned in wall seconds (they drive
    the pass loop) and kept in wall and reference seconds (see ``speed.py``).
    """

    def __init__(self, inputs, speedometer):
        import tracing
        import workloads
        from vacmirror import SinglePoleMirror, VacuumState

        self.w = workloads
        self.t = tracing
        self.inputs = inputs
        self.speed = speedometer
        self.tally = workloads.Tally()
        self.wall_s: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.ref_s: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.cli_times: dict[str, list[float]] = {}
        self.layers: list[dict[str, float]] = []
        self.counts: list[tuple] = []
        self.scan_model = SinglePoleMirror(1.0)
        self.scan_state = VacuumState()

    def _collect(self, run) -> tuple[float, float, object]:
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a crashing command is a failed check; the pass goes on
            result = exc
        end = time.perf_counter()
        return end - start, self.speed.scaled(start, end), result

    def _check(self, item, result) -> None:
        w = self.w
        if isinstance(result, Exception):
            self.tally.check(f"{item.label}: ran", False, repr(result))
        elif isinstance(item, w.Scan):
            w.check_scan(result, self.tally)
        else:
            rc, out = result
            try:
                w.check_output(item, rc, w.parse_output(item, out), self.inputs, self.tally)
            except Exception as exc:  # malformed output
                self.tally.check(f"{item.label}: output", False, repr(exc))

    def _pass(self, kind: str, model, state, call) -> float:
        w, smoke = self.w, self.inputs.smoke
        results, wall, ref = [], 0.0, 0.0
        for item in self.inputs.order:
            if isinstance(item, w.Scan):
                dt, dt_ref, res = self._collect(lambda: w.run_scan(self.inputs.pairs, model, state, call))
            else:
                dt, dt_ref, res = self._collect(lambda: w.run_cli(item, smoke))
                if kind == "untraced":
                    self.cli_times.setdefault(item.name, []).append(dt_ref)
            wall += dt
            ref += dt_ref
            results.append((item, res))
        self.wall_s[kind].append(wall)
        self.ref_s[kind].append(ref)
        for item, res in results:
            self._check(item, res)
        return wall

    def untraced(self) -> float:
        plain = lambda name, fn, *a, **k: fn(*a, **k)  # noqa: E731
        return self._pass("untraced", self.scan_model, self.scan_state, plain)

    def traced(self) -> float:
        t = self.t
        tracer = t.Tracer()
        mirror_count, state_count = t.CallCounter(), t.CallCounter()
        model = t.CountingMirror(self.scan_model, mirror_count)
        state = t.counting_state(self.scan_state, state_count)
        with tracer.hooks(mirror_count, state_count):
            wall = self._pass("traced", model, state, tracer.call)
        ref = self.ref_s["traced"][-1]
        self.layers.append(t.layer_metrics(tracer, mirror_count, state_count, wall, ref))
        self.counts.append(
            (mirror_count.calls, mirror_count.points, state_count.calls, state_count.points,
             tracer.counts.get("response.samples", 0))
        )
        return wall


def measure(seconds: float, kinds: dict) -> None:
    """Alternate the pass kinds while the next pass is predicted to fit."""
    times: dict[str, list[float]] = {k: [] for k in kinds}
    names = list(kinds)
    start = time.perf_counter()
    i = 0
    while True:
        kind = names[i % len(names)]
        if i >= len(names):
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(times[kind]) > seconds:
                break
        times[kind].append(kinds[kind]())
        i += 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, same code path")
    parser.add_argument("--out", help="append the run record as one JSON line")
    args = parser.parse_args(argv)

    blas_cap = cap_blas_threads()
    try:
        inputs, own_setup = timed_setup(args.workload, args.seed, args.smoke)
        setups = [probe_setup(args.workload, args.seed, args.smoke) for _ in range(SETUP_PROBES)]
    except (ImportError, RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    with speed.Speedometer() as speedometer:
        runner = Runner(inputs, speedometer)
        kinds = {"untraced": runner.untraced}
        if args.trace:
            kinds["traced"] = runner.traced
        measure(args.seconds, kinds)
    tally = runner.tally
    run_s = statistics.median(runner.ref_s["untraced"])

    if args.trace:
        if len(runner.counts) > 1:
            tally.check("traced counts repeat exactly", len(set(runner.counts)) == 1, str(runner.counts))
        from tracing import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
        values = {k: statistics.median(m[k] for m in runner.layers) for k in runner.layers[0]}
        for cmd in ("validate", "susceptibility", "noise", "fdt", "causality", "squeeze"):
            values[f"cli.{cmd}_s"] = statistics.median(runner.cli_times.get(cmd, [0.0]))
        values["trace.overhead_s"] = statistics.median(runner.ref_s["traced"]) - run_s
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": environment(args.seed, blas_cap),
        "run_wall_s": statistics.median(runner.wall_s["untraced"]),
        "pass_wall_s": runner.wall_s,
        "pass_ref_s": runner.ref_s,
        "speed_median": statistics.median(v for _, v in speedometer.samples),
        "speed_samples": len(speedometer.samples),
        "setup_ref_s": setups,
        "own_setup_ref_s": own_setup,
        "counts": runner.counts,
        "failures": tally.failures[:20],
    }
    for failure in tally.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
