#!/usr/bin/env python3
"""Design the sparse layer and sweep the rating-utilization tradeoff.

Writes the design artifact, the ladder-ratio sweep, and the three-family
tradeoff table, then prints a summary at a chosen rating point.
"""

import argparse
import csv
from pathlib import Path

from besspp.scenario import default_scenario, load_scenario
from besspp.studies import run_design, run_tradeoff


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("out/headline"))
    parser.add_argument(
        "--at", type=float, default=0.2, help="rating point to summarize"
    )
    args = parser.parse_args()
    scenario = (
        load_scenario(args.scenario) if args.scenario else default_scenario()
    )

    run_design(scenario, args.out / "design")
    run_tradeoff(scenario, args.out / "tradeoff")

    with open(args.out / "tradeoff" / "tradeoff.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    print(f"{'kind':10s} {'R':>6s} {'util_mean':>10s} {'util_idr':>9s}")
    for row in rows:
        r = float(row["R"])
        if abs(r - args.at) <= 0.5 / max(len(scenario.r_grid) - 1, 1):
            print(
                f"{row['kind']:10s} {r:6.3f} "
                f"{float(row['util_mean']):10.4f} {float(row['util_idr']):9.4f}"
            )
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
