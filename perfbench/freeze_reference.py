"""Write reference.json: the exact-ba7 PMFs and score distributions.

The values are computed at the default seed 0 and checked at a held-out seed
before they are written, so the file only changes when both agree. Run from
the repository root:

    PYTHONPATH=src python3 perfbench/freeze_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile

import workloads

HELD_OUT_SEED = 12345


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        out = workloads.job_exact(workloads.setup_exact(0, workdir, workloads.FULL))
        ref = {"exact-ba7": {graph: {
            "pmf": {str(depth): pmf.probs.tolist() for depth, pmf in g["pmfs"].items()},
            "scores": {str(score): prob for score, prob in g["scores"].items()},
        } for graph, g in out.items()}}
        inputs = workloads.setup_exact(HELD_OUT_SEED, workdir, workloads.FULL)
        failed = workloads.check_exact(inputs, workloads.job_exact(inputs), ref).failed
    if failed:
        print(f"held-out seed {HELD_OUT_SEED} disagrees: {failed}", file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
