"""Regenerate the reference outputs the benchmark checks against.

Run once on the code whose outputs are the reference (the seed code),
from the repository root:

    python3 perfbench/make_references.py [workload ...]

For every workload and data seed it sets up, runs one pass, and copies
the outputs checked as ``reference`` under
``perfbench/reference/<workload>/seed<n>/``, with the data-row counts
of the outputs checked as ``rows`` in ``rows.json`` there.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from spantree import count_csv_rows
from workloads import REFERENCE_DIR, VARIANT_SEEDS, WORKLOADS, run_pass, run_setup, workload_dir


def main() -> None:
    names = sys.argv[1:] or sorted(WORKLOADS)
    for name in names:
        for seed in VARIANT_SEEDS:
            workload = WORKLOADS[name](seed)
            for outcome in run_setup(workload)[1] + run_pass(workload, None)[0]:
                if outcome.error:
                    sys.exit(f"{name} seed {seed}: {outcome.command.kind}: {outcome.error}")
            cwd = workload_dir(workload)
            ref_dir = os.path.join(REFERENCE_DIR, name, f"seed{seed}")
            shutil.rmtree(ref_dir, ignore_errors=True)
            rows = {}
            for command in workload.passes:
                for rel, check in command.checks:
                    if check == "reference":
                        os.makedirs(os.path.dirname(os.path.join(ref_dir, rel)), exist_ok=True)
                        shutil.copyfile(os.path.join(cwd, rel), os.path.join(ref_dir, rel))
                    elif check == "rows":
                        rows[rel] = count_csv_rows(os.path.join(cwd, rel))
            with open(os.path.join(ref_dir, "rows.json"), "w", encoding="utf-8") as fh:
                json.dump(rows, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"{name} seed {seed}: {ref_dir}")


if __name__ == "__main__":
    main()
