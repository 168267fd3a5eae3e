"""Record the thermal-spectra reference values the benchmark checks against.

Usage (from the repository root): python3 perfbench/make_refs.py

Runs each ``thermal-spectra`` command once on its full grid and writes the
numeric output columns to ``thermal_refs.json``.  Rerun it only on purpose:
the file pins the thermal values a faster evaluation path must reproduce.
"""

import json
import sys

from run import SRC, cap_blas_threads

if __name__ == "__main__":
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    refs = {}
    for cmd in workloads.WORKLOADS["thermal-spectra"].items:
        rc, text = workloads.run_cli(cmd, smoke=False)
        if rc != 0:
            raise SystemExit(f"{cmd.label} exited with {rc}")
        out = workloads.parse_output(cmd, text)
        refs[cmd.label] = {k: [float(x) for x in v] for k, v in out.items() if not isinstance(v, (bool, float))}
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
