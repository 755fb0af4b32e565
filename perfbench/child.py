"""Run one ``besspp`` CLI study in this fresh process and report on it.

Usage::

    python3 perfbench/child.py REPORT.json [--trace] [--setup-only] -- CLI ARGS...

The study runs through ``besspp.cli.main``, the function behind the
``besspp`` console script.  ``REPORT.json`` receives the monotonic time at
which ``besspp`` was imported and the scenario loaded (the parent turns it
into ``setup_s``) and, with ``--trace``, the per-layer summary of
:mod:`layertrace`; the raw spans go to ``REPORT.spans.jsonl``.
``--setup-only`` stops after loading the scenario.

Every run must be a fresh process: ``design_layer1`` is cached, so a second
study in one process would skip the layer-1 search and time another program.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    split = argv.index("--")
    report_path = Path(argv[0])
    flags = set(argv[1:split])
    cli_args = argv[split + 1 :]

    import besspp.cli

    source = Path(besspp.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: besspp imported from {source}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    report: dict = {"setup_done": None, "trace": None}
    if "--setup-only" in flags:
        args = besspp.cli.build_parser().parse_args(cli_args)
        besspp.cli.load_scenario(args.scenario)
        report["setup_done"] = time.monotonic()
        report_path.write_text(json.dumps(report))
        return 0

    tracer = None
    if "--trace" in flags:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    load = besspp.cli.load_scenario

    def stamped_load(path):
        scenario = load(path)
        report["setup_done"] = time.monotonic()
        return scenario

    besspp.cli.load_scenario = stamped_load
    code = besspp.cli.main(cli_args)
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(report_path.with_suffix(".spans.jsonl"))
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
