#!/usr/bin/env python3
"""Materialize the built-in scenario as JSON plus a grid-profile CSV.

The emitted pair (scenarios/default.json, scenarios/grid_default.csv) loads
back to a scenario with the same fingerprint as the built-in default, so
file-driven and built-in runs are interchangeable.
"""

import argparse
import json
import sys
from pathlib import Path

from besspp.scenario import default_scenario, load_scenario, scenario_to_dict
from besspp.studies import scenario_fingerprint


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "scenarios",
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    scenario = default_scenario()
    doc = scenario_to_dict(scenario)
    scenario.grid_profile.to_csv(args.out_dir / "grid_default.csv")
    doc["grid_profile"] = "grid_default.csv"
    path = args.out_dir / "default.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    reloaded = load_scenario(path)
    if scenario_fingerprint(reloaded) != scenario_fingerprint(scenario):
        print(
            f"error: {path} does not load back to the built-in scenario "
            "(fingerprints differ)",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"wrote {path} and grid_default.csv (fingerprints match)")


if __name__ == "__main__":
    main()
