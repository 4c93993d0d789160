"""Run every workload untraced and traced, and print every end-to-end
metric, the per-workload details and the per-layer metrics by name
and unit:

    python3 perfbench/report.py [--seed 0] [--seconds 15]

Exits non-zero if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()

    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, run, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1] if done.returncode == 0 else lines))
            if done.returncode != 0:
                print(f"# {name} trace={trace} exited {done.returncode}: {done.stderr.strip()}")
                status = 1
            print()
    sys.exit(status)


if __name__ == "__main__":
    main()
