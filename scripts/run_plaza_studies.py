#!/usr/bin/env python3
"""Run the plaza studies: one exemplar day plus the stochastic ensemble.

Prints the dispersion metrics and the curtailment comparison for the
exemplar service cell.
"""

import argparse
import csv
import json
import math
from pathlib import Path

from besspp.cli import _worker_count
from besspp.scenario import default_scenario, load_scenario
from besspp.studies import run_day, run_ensemble


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=Path("out/plaza"))
    parser.add_argument("--workers", type=_worker_count, default=1)
    args = parser.parse_args()
    scenario = (
        load_scenario(args.scenario) if args.scenario else default_scenario()
    )

    run_day(scenario, args.out / "day")
    out_dir = args.out / "ensemble"
    run_ensemble(scenario, out_dir, args.workers)

    for kind in (k.value for k in scenario.plaza.kinds):
        payload = json.loads((out_dir / f"metrics_{kind}.json").read_text())
        # A statistic with no sample is null; it prints as nan.
        metrics = {
            name: math.nan if metric["value"] is None else metric["value"]
            for name, metric in payload["metrics"].items()
        }
        print(
            f"{kind}: derating={metrics['derating_factor']:.3f} "
            f"util@worst={metrics['utilization_at_worst_gap']:.3f} "
            f"captured={metrics['captured_value_kwh']:.1f} kWh"
        )

    exemplar = scenario.plaza.exemplar_demand
    with open(out_dir / "cells.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            if (
                float(row["demand_mean_kwh"]) == exemplar.mean_kwh
                and float(row["demand_std_kwh"]) == exemplar.std_kwh
                and float(row["arrival_rate_per_h"])
                == scenario.plaza.exemplar_rate_per_h
            ):
                print(
                    f"{row['kind']}: curtailed {float(row['curtailed_mean_min']):.1f} "
                    f"min/EV (exemplar cell)"
                )
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()
