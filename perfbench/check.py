"""Artifact checks for one study run against a stored reference run.

A study's output directory holds CSV/JSON artifacts plus ``manifest.json``
with their SHA-256 digests.  :func:`check_outputs` verifies that

* the manifest lists exactly the files present and every digest matches;
* every artifact matches the reference of the same name: text fields
  exactly, numeric fields within :data:`RTOL` relative (:data:`ATOL`
  absolute near zero).  A change that moves floats by less than 1e-12 still
  passes; byte identity is reported separately.

The manifest itself is compared like any JSON artifact, minus its digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
MANIFEST = "manifest.json"
# Header of the per-minute day series; its rows are the series points
# that reach an artifact.
SERIES_HEADER = ["t", "p_grid", "p_bess", "e_bess", "p_ev"]


@dataclass
class CheckResult:
    problems: list[str] = field(default_factory=list)
    digest_identical: bool = False
    artifact_bytes: int = 0
    series_points_written: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _same_number(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def _compare_json(got, want, where: str, problems: list[str]) -> None:
    numeric = (int, float)
    if isinstance(got, bool) or isinstance(want, bool):
        if got is not want:
            problems.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(got, numeric) and isinstance(want, numeric):
        if not _same_number(float(got), float(want)):
            problems.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(got, dict) and isinstance(want, dict):
        if sorted(got) != sorted(want):
            problems.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _compare_json(got[key], want[key], f"{where}.{key}", problems)
    elif isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            problems.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]", problems)
    elif got != want:
        problems.append(f"{where}: {got!r} != {want!r}")


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _compare_csv(got: Path, want: Path, problems: list[str]) -> None:
    got_rows, want_rows = _read_csv(got), _read_csv(want)
    if len(got_rows) != len(want_rows):
        problems.append(f"{got.name}: {len(got_rows)} rows != {len(want_rows)}")
        return
    for r, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        if len(g_row) != len(w_row):
            problems.append(f"{got.name} row {r}: {len(g_row)} fields != {len(w_row)}")
            continue
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            g_num, w_num = _number(g), _number(w)
            if g_num is not None and w_num is not None:
                same = _same_number(g_num, w_num)
            else:
                same = g == w
            if not same:
                problems.append(f"{got.name} row {r} col {c}: {g!r} != {w!r}")


def _load_manifest(directory: Path, problems: list[str]) -> dict | None:
    path = directory / MANIFEST
    if not path.is_file():
        problems.append(f"{directory}: no {MANIFEST}")
        return None
    return json.loads(path.read_text())


def check_outputs(out_dir: Path, ref_dir: Path) -> CheckResult:
    """Check ``out_dir`` against its manifest and the reference ``ref_dir``."""
    result = CheckResult()
    problems = result.problems
    manifest = _load_manifest(out_dir, problems)
    if manifest is None:
        return result
    files = sorted(p.name for p in out_dir.iterdir() if p.is_file())
    result.artifact_bytes = sum((out_dir / name).stat().st_size for name in files)
    digests = manifest.get("outputs", {})
    if sorted(digests) != [name for name in files if name != MANIFEST]:
        problems.append(f"manifest lists {sorted(digests)}, directory has {files}")
        return result
    for name, digest in digests.items():
        if sha256(out_dir / name) != digest:
            problems.append(f"{name}: digest does not match manifest")

    for name in digests:
        if name.endswith(".csv"):
            rows = _read_csv(out_dir / name)
            if rows and rows[0] == SERIES_HEADER:
                result.series_points_written += len(rows) - 1

    ref_manifest = _load_manifest(ref_dir, problems)
    if ref_manifest is None:
        return result
    ref_digests = ref_manifest.get("outputs", {})
    if sorted(ref_digests) != sorted(digests):
        problems.append(f"outputs {sorted(digests)} != reference {sorted(ref_digests)}")
        return result
    for name in sorted(digests):
        if name.endswith(".csv"):
            _compare_csv(out_dir / name, ref_dir / name, problems)
        else:
            _compare_json(
                json.loads((out_dir / name).read_text()),
                json.loads((ref_dir / name).read_text()),
                name,
                problems,
            )
    strip = {k: v for k, v in manifest.items() if k != "outputs"}
    ref_strip = {k: v for k, v in ref_manifest.items() if k != "outputs"}
    _compare_json(strip, ref_strip, MANIFEST, problems)
    result.digest_identical = digests == ref_digests
    return result
