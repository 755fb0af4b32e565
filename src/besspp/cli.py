"""Command-line entry point.

Subcommands map one-to-one onto the study drivers:

* ``design``   - sparse-layer design plus the ladder-ratio sweep
* ``tradeoff`` - utilization versus normalized converter rating
* ``day``      - one exemplar plaza day per architecture kind
* ``ensemble`` - dispersion statistics and the stochastic service sweep
* ``reproduce`` - all four studies in one process, into ``design/``,
  ``tradeoff/``, ``day/`` and ``ensemble/`` under ``--out``
* ``validate`` - load and check the scenario, run no study

Every command checks the scenario as it loads it, so a scenario that
``validate`` rejects stops a study before it writes anything.  Checking a
scenario loads no numpy: :mod:`besspp.studies`, and with it numpy and the
numeric modules, is imported only once the scenario is valid and a study is
about to run.  So ``validate``, ``--help``, ``--version`` and every
configuration error exit without loading them.

Exit codes: 0 on success, 1 for configuration problems (bad scenario file,
bad arguments or flags, failed validation), 2 for runtime failures.
"""

from __future__ import annotations

import gc
import os
import time

_START_WALL_S = time.perf_counter()

# OpenBLAS would start a helper thread per extra core as numpy loads.  The
# package calls no BLAS routine, so those threads can never pay off; they
# only add start-up work and threads, the more the more cores.  Set before
# numpy first loads; a user's own value wins, pool workers inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# The stdlib and besspp build thousands of objects as they load that live
# until exit.  Build them with the cyclic collector off, then freeze them
# (``gc.freeze``), so no collection scans them again: not while they load,
# not in the interpreter's final passes at exit, not in a forked pool
# worker.  The collector comes back on only if it was on to begin with.
# numpy and the numeric modules load the same way, but only once a study
# runs (``_studies``): checking a scenario needs none of them.
_GC_WAS_ENABLED = gc.isenabled()
gc.disable()

import argparse  # noqa: E402 - after the start-up clock and the lines above
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import besspp  # noqa: E402
from besspp.scenario import (  # noqa: E402
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
)

gc.freeze()
if _GC_WAS_ENABLED:
    gc.enable()

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# The studies ``reproduce`` runs, in order, each into its own subdirectory.
STUDIES = ("design", "tradeoff", "day", "ensemble")


def _worker_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besspp",
        description=(
            "Design and evaluate partial power processing architectures "
            "for second-use battery storage."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {besspp.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument(
            "--scenario",
            type=Path,
            default=None,
            help="scenario JSON file (default: the shipped "
            "besspp/default_scenario.json)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the scenario seed",
        )
        if needs_out:
            p.add_argument(
                "--workers",
                type=_worker_count,
                default=1,
                help="worker processes for the ensemble's replay batches; the "
                "other studies run in one process",
            )
            p.add_argument(
                "--out",
                type=Path,
                required=True,
                help="output directory for study artifacts",
            )
            p.add_argument(
                "--timings",
                action="store_true",
                help="print wall and CPU seconds per study stage to stderr",
            )

    add_common(sub.add_parser("design", help="design the sparse layer"))
    add_common(sub.add_parser("tradeoff", help="utilization vs rating sweep"))
    day = sub.add_parser("day", help="simulate one exemplar plaza day")
    add_common(day)
    day.add_argument(
        "--kind",
        action="append",
        default=None,
        help="architecture kind to simulate (repeatable; default: all)",
    )
    add_common(sub.add_parser("ensemble", help="stochastic plaza ensemble"))
    add_common(
        sub.add_parser(
            "reproduce", help="run every study in one process, one subdirectory each"
        )
    )
    add_common(
        sub.add_parser("validate", help="load and check a scenario"),
        needs_out=False,
    )
    return parser


def _load(args) -> Scenario:
    scenario = (
        load_scenario(args.scenario)
        if args.scenario is not None
        else default_scenario()
    )
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    return scenario


# The study drivers of besspp.studies, module attributes of this module too.
_STUDY_RUNNERS = ("run_design", "run_tradeoff", "run_day", "run_ensemble")
_STUDIES = None


def _studies():
    """:mod:`besspp.studies`, imported the first time a study runs.

    It loads numpy and the numeric modules with the collector off, then
    freezes them with everything else alive, as the imports above were:
    once per process, so a later call freezes nothing new.
    """
    global _STUDIES
    if _STUDIES is None:
        # The parser is cyclic garbage by now; collect it (about 0.1 ms) so
        # that the freeze below does not keep it for the life of the process.
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            import besspp.studies
        finally:
            gc.freeze()
            if was_enabled:
                gc.enable()
        _STUDIES = besspp.studies
    return _STUDIES


def __getattr__(name: str):
    # ``run_design`` and the other drivers resolve here (PEP 562) until one
    # is set on this module.
    if name in _STUDY_RUNNERS:
        return getattr(_studies(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _run(study: str, scenario: Scenario, args, out_dir: Path, timer=None) -> None:
    """Run one study into ``out_dir``, then print the paths it wrote."""
    # Through this module's attributes: a driver set on it is the one that runs.
    cli = sys.modules[__name__]
    if study == "design":
        written = cli.run_design(scenario, out_dir, timer=timer)
    elif study == "tradeoff":
        written = cli.run_tradeoff(scenario, out_dir, timer=timer)
    elif study == "day":
        kinds = getattr(args, "kind", None)
        written = cli.run_day(scenario, out_dir, kinds, timer=timer)
    else:
        written = cli.run_ensemble(scenario, out_dir, args.workers, timer=timer)
    for path in written:
        print(path)


class _CollectorTally:
    """Collections per generation, and their wall seconds, while installed.

    A ``gc.callbacks`` hook for one run under ``--timings``; it sees this
    process's collections only, not those of pool workers.
    """

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.wall_s = 0.0
        self._began = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.wall_s += time.perf_counter() - self._began

    def __enter__(self) -> _CollectorTally:
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code kept here for runtime
        # failures; --help and --version still exit 0.
        if exc.code == 2:
            return EXIT_CONFIG
        raise
    try:
        scenario = _load(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"scenario '{scenario.name}' is valid")
        return EXIT_OK

    try:
        # Start-up ends once the numeric modules have loaded.
        timer = _studies().StageTimer()
        startup = (time.perf_counter() - _START_WALL_S, time.process_time())
        with (
            _CollectorTally() if args.timings else contextlib.nullcontext()
        ) as collector:
            if args.command == "reproduce":
                # One timing line per study; the studies' own stages go
                # unprinted.
                for study in STUDIES:
                    with timer.stage(study):
                        _run(study, scenario, args, args.out / study)
            else:
                _run(args.command, scenario, args, args.out, timer)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    if args.timings:
        for stage, wall_s, cpu_s in [("startup", *startup), *timer.stages]:
            print(
                f"timing {args.command} {stage}: "
                f"wall {wall_s:.3f} s, cpu {cpu_s:.3f} s",
                file=sys.stderr,
            )
        print(
            f"timing {args.command} gc: collections "
            f"{'/'.join(map(str, collector.collections))}, "
            f"wall {collector.wall_s:.3f} s, "
            f"frozen {gc.get_freeze_count()} objects",
            file=sys.stderr,
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
