"""Print the pinned outputs the benchmark's correctness checks use.

Run from the repository root after an intentional change to classification
or policy behaviour, and review the diff before committing::

    python3 perfbench/pin.py > perfbench/pinned.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    from repro.experiments.classify import classify_all

    classes = classify_all(workloads.campaign_store(), n_be=workloads.SWEEP_N_BE)
    cells = workloads.grid_cells_for(workloads.CANARY_PAIRS)
    results = workloads.campaign_store().get_many(cells)
    pinned = {
        "classify-sweep": {
            "n_be": workloads.SWEEP_N_BE,
            "pairs": len(classes),
            "ctt_pairs": sum(1 for c in classes if not c.ct_favoured),
        },
        "policy-grid": workloads.grid_aggregates(results, cells),
    }
    print(json.dumps(pinned, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
