"""End-to-end benchmark of the ``besspp`` CLI studies.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --write-refs

Each timed run is a fresh ``besspp`` process (see ``child.py``), started by
this one process; ``tradeoff`` adds its own two pool workers, so at most two
processes compute at once.  Per-process CPU and peak RSS come from
``os.wait4`` on that child: cumulative ``RUSAGE_CHILDREN`` would mix runs.

Workloads (the seed picks one of :data:`REF_SEEDS`, passed as ``--seed``):

* ``design``   - ``besspp design`` on the default scenario, one worker:
  the layer-1 placement search (7,166 LPs) and the lambda sweep.
* ``tradeoff`` - ``besspp tradeoff``, two workers: capped C-PPP/LS-HiPPP
  LPs and closed-form FPP evaluations, through the process pool.
* ``ensemble`` - ``besspp ensemble``, one worker, on the default scenario
  with :data:`ENSEMBLE_TRAJECTORIES` trajectories: mostly ``simulate_day``.

With ``--trace 0`` the run repeats the study while the next repeat fits in
``--seconds`` and reports the medians of ``wall_s``, ``cpu_s``,
``setup_s`` and ``max_rss_mb``.  With ``--trace 1`` it runs the study once
untraced and once traced, both with one worker so the trace sees every
span, and reports the per-layer metrics of ``layertrace.LAYER_METRICS``.
Every run's artifacts are checked against ``refs/<workload>/<seed>/``;
the last line of stdout is the JSON result, and the exit code is 1 when
any run failed.  Results with machine facts go to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import CheckResult, check_outputs, sha256
from layertrace import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
REFS = HERE / "refs"
CHILD = HERE / "child.py"
DEFAULT_SCENARIO = ROOT / "scenarios" / "default.json"

# Index 0 is the default scenario seed; the rest are held out from it.
REF_SEEDS = tuple(20240915 + i for i in range(10))
# 150 per demand cell; must divide across the cells (checked below).
ENSEMBLE_TRAJECTORIES = 4500
# Setup-only processes after each study run, spread over the run because
# the machine's speed drifts over seconds.
SETUP_PROBES = 2
# Every child must be gone well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "max_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    study: str
    workers: int
    generated_scenario: bool = False

    def scenario(self) -> Path:
        return ensemble_scenario() if self.generated_scenario else DEFAULT_SCENARIO


WORKLOADS = {
    "design": Workload("design", workers=1),
    "tradeoff": Workload("tradeoff", workers=2),
    "ensemble": Workload("ensemble", workers=1, generated_scenario=True),
}


@dataclass
class Sample:
    exit_code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    setup_s: float | None
    trace: dict | None
    check: CheckResult | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and (self.check is None or self.check.ok)


def ensemble_scenario() -> Path:
    """Default scenario with more trajectories and the grid profile inlined.

    A relative ``grid_profile`` path would resolve against the generated
    file's directory, so the profile goes in as a segment list.
    """
    data = json.loads(DEFAULT_SCENARIO.read_text())
    grid = data["grid_profile"]
    if isinstance(grid, str):
        with open(DEFAULT_SCENARIO.parent / grid, newline="") as handle:
            grid = [
                [float(row["time_h"]), float(row["power_kw"])]
                for row in csv.DictReader(handle)
            ]
    n_cells = (
        len(data["demand_means_kwh"])
        * len(data["demand_stds_kwh"])
        * len(data["arrival_rates_per_h"])
    )
    if ENSEMBLE_TRAJECTORIES % n_cells:
        raise SystemExit(
            f"error: {ENSEMBLE_TRAJECTORIES} trajectories do not divide "
            f"across {n_cells} demand cells"
        )
    data.update(grid_profile=grid, n_trajectories=ENSEMBLE_TRAJECTORIES)
    WORK.mkdir(exist_ok=True)
    path = WORK / "ensemble_scenario.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


class Runner:
    """Starts one child at a time and accounts for it with ``os.wait4``.

    Reports, stderr and study outputs go under ``work``.
    """

    def __init__(self, deadline: float, work: Path) -> None:
        self.deadline = deadline
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # An installed package has its bytecode compiled; let the untimed
        # warm-up write it under src/ even where the caller disabled that.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, cli_args: list[str], *flags: str) -> Sample:
        report = self.work / "report.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(report), *flags, "--", *cli_args]
        with open(self.work / "child.stderr", "w") as stderr:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), proc.kill
            )
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write((self.work / "child.stderr").read_text()[-2000:])
        info = json.loads(report.read_text()) if report.is_file() else {}
        setup_done = info.get("setup_done")
        return Sample(
            exit_code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            max_rss_mb=usage.ru_maxrss / 1024.0,
            setup_s=None if setup_done is None else setup_done - start,
            trace=info.get("trace"),
        )


def study_args(workload: Workload, scenario: Path, seed: int, workers: int,
               out_dir: Path) -> list[str]:
    return [
        workload.study, "--scenario", str(scenario), "--seed", str(seed),
        "--workers", str(workers), "--out", str(out_dir),
    ]


def run_study(runner: Runner, name: str, scenario: Path, seed: int,
              workers: int, *flags: str) -> Sample:
    workload = WORKLOADS[name]
    out_dir = runner.work / "out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    sample = runner.spawn(study_args(workload, scenario, seed, workers, out_dir),
                          *flags)
    if sample.exit_code == 0:
        sample.check = check_outputs(out_dir, REFS / name / str(seed))
        for problem in sample.check.problems[:10]:
            print(f"check failed: {name} seed {seed}: {problem}", file=sys.stderr)
    return sample


def measure(runner: Runner, name: str, scenario: Path, seed: int,
            seconds: float) -> tuple[dict, list[Sample]]:
    """Repeat the study while the next repeat fits in ``seconds``."""
    workers = WORKLOADS[name].workers
    probe_args = study_args(WORKLOADS[name], scenario, seed, workers, runner.work)
    studies: list[Sample] = []
    probes: list[Sample] = []
    start = time.monotonic()
    while True:
        studies.append(run_study(runner, name, scenario, seed, workers))
        probes += [runner.spawn(probe_args, "--setup-only") for _ in range(SETUP_PROBES)]
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(studies) > seconds:
            break
    setups = [s.setup_s for s in studies + probes if s.setup_s is not None]
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in studies), len(studies)),
        "cpu_s": (statistics.median(s.cpu_s for s in studies), len(studies)),
        "setup_s": (statistics.median(setups) if setups else 0.0, len(setups)),
        "max_rss_mb": (statistics.median(s.max_rss_mb for s in studies), len(studies)),
    }
    return metrics, studies + probes


def trace(runner: Runner, name: str, scenario: Path, seed: int) -> tuple[dict, list[Sample]]:
    """One untraced and one traced study, both with one worker."""
    plain = run_study(runner, name, scenario, seed, 1)
    traced = run_study(runner, name, scenario, seed, 1, "--trace")
    layers = dict(traced.trace or {})
    if traced.ok and layers.get("designer.layer1.searches") != 1:
        traced.check.problems.append(
            f"designer.layer1.searches is {layers.get('designer.layer1.searches')}"
            ", not 1: the study did not run its own layer-1 search"
        )
    checked = traced.check or CheckResult()
    built = layers.get("plaza.series_points_built", 0)
    layers.update({
        "plaza.series_use_ratio": checked.series_points_written / built if built else 0.0,
        "studies.artifact_bytes": checked.artifact_bytes,
        "studies.digest_identical": int(checked.digest_identical),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    })
    metrics = {key: (layers.get(key, 0), 1) for key in LAYER_METRICS}
    return metrics, [plain, traced]


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 deadline: float) -> dict:
    cli_seed = REF_SEEDS[seed % len(REF_SEEDS)]
    scenario = WORKLOADS[name].scenario()
    runner = Runner(deadline, WORK / name)
    # Untimed: compiles the package's bytecode (see Runner).
    runner.spawn(study_args(WORKLOADS[name], scenario, cli_seed, 1, runner.work),
                 "--setup-only")
    if traced:
        metrics, samples = trace(runner, name, scenario, cli_seed)
        units = LAYER_METRICS
    else:
        metrics, samples = measure(runner, name, scenario, cli_seed, seconds)
        units = END_TO_END
    failed = sum(not s.ok for s in samples)
    return {
        "workload": name,
        "seed": seed,
        "cli_seed": cli_seed,
        "trace": traced,
        "attempted": len(samples),
        "failed": failed,
        "fail_rate": failed / len(samples),
        "metrics": {k: {"value": v, "unit": units[k], "n": n}
                    for k, (v, n) in metrics.items()},
        "samples": [
            {"exit": s.exit_code, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
             "max_rss_mb": s.max_rss_mb, "setup_s": s.setup_s,
             "problems": s.check.problems[:10] if s.check else None}
            for s in samples
        ],
    }


def print_result(result: dict) -> None:
    print(f"{result['workload']}: seed {result['seed']} -> --seed "
          f"{result['cli_seed']}, trace {int(result['trace'])}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:>16.6f} {metric['unit']:6s} n={metric['n']}")
    print(f"  {'fail_rate':32s} {result['fail_rate']:>16.6f} {'ratio':6s} "
          f"n={result['attempted']}")


def write_refs() -> int:
    """Run every workload on every reference seed and store its artifacts."""
    runner = Runner(time.monotonic() + 24 * 3600, WORK)
    for name, workload in WORKLOADS.items():
        scenario = workload.scenario()
        for seed in REF_SEEDS:
            out_dir = REFS / name / str(seed)
            shutil.rmtree(out_dir, ignore_errors=True)
            args = study_args(workload, scenario, seed, workload.workers, out_dir)
            sample = runner.spawn(args)
            if sample.exit_code != 0 or any(
                sha256(out_dir / f) != d
                for f, d in json.loads((out_dir / "manifest.json").read_text())[
                    "outputs"
                ].items()
            ):
                print(f"error: {name} seed {seed} failed", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {sample.wall_s:.2f} s")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true",
                        help="regenerate refs/ from the current program")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "besspp" / "cli.py", DEFAULT_SCENARIO)
               if not p.is_file()]
    if missing:
        print(f"error: not a besspp checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.write_refs:
        return write_refs()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    facts = {"start": machine_facts()}
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
               for name in names]
    facts["end_loadavg"] = list(os.getloadavg())

    print(f"machine: nproc {facts['start']['nproc']}, python "
          f"{facts['start']['python']}, numpy {facts['start']['numpy']}, loadavg "
          f"{facts['start']['loadavg']} -> {facts['end_loadavg']}")
    for result in results:
        print_result(result)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"machine": facts, "results": results}, indent=1) + "\n"
    )

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
        for r in results
        for k, m in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
