"""Record the outputs the benchmark checks its runs against.

    python3 perfbench/record_expected.py --cell-seeds 0 1 2

For every recovery cell and cluster heal cell at each cell seed, this
runs the cell once, untraced, and writes its pool digest(s), attempts,
reverted count and consistency verdict to ``perfbench/expected.json``.
Re-record only when a change is meant to alter these outputs, and say
which cells moved and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cell-seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    path = workloads.EXPECTED_PATH
    recorded = json.loads(path.read_text()) if path.exists() else {
        "recover": {}, "cluster": {}}
    for seed in args.cell_seeds:
        cells = {}
        for name in ("recover-reexec", "recover-revert"):
            for fid, solution in workloads.RECOVER_CELLS[name]:
                cell = workloads.run_cell(fid, solution, seed, workloads.Env())
                cells[cell["cell"]] = {
                    k: cell[k] for k in ("manifested", "recovered", "consistent",
                                         "attempts", "reverted", "digest")
                }
                print(seed, cell["cell"], cells[cell["cell"]], flush=True)
        recorded["recover"][str(seed)] = cells
        heal = workloads.heal_cells(seed, workloads.Env())["cells"]
        recorded["cluster"][str(seed)] = {
            fid: {"converged": c["converged"], "digests": c["digests"]}
            for fid, c in heal.items()
        }
        print(seed, "heal", recorded["cluster"][str(seed)], flush=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
