"""Record the canary fingerprints of the forward workloads.

    python3 perfbench/record_fingerprints.py

Run from the root of a checkout whose engine output is known to be right;
it rewrites perfbench/fingerprints.json. Each entry holds the workload's
cloud shape, the sha256 of the canary's step features and readout, and the
per-output sums that run.py compares within checks.FINGERPRINT_RTOL.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before NumPy loads
import workloads


def main() -> int:
    vp = run.load_engine()
    run.WORK.mkdir(exist_ok=True)
    doc = {}
    for wl in workloads.WORKLOADS.values():
        if wl.kind != "forward":
            continue
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            doc[wl.name] = run.canary_fingerprint(vp, wl, Path(tmp))
    run.FINGERPRINTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.FINGERPRINTS.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
