"""Show that the golden files differ from a base commit's only by the schema-2 report change.

Usage, from anywhere in the repository::

    python tools/golden_schema_diff.py BASE

where BASE is a git revision whose reports are schema version 1. Every file
that BASE holds under ``tests/golden``, ``tests/golden_simulate`` and
``tests/golden_median_sd.json`` is compared with the working tree's copy:

- a JSON report (a document with a ``schema_version``) must equal its base
  copy after two edits: ``schema_version`` 1 becomes 2, and in a
  ``simulate`` report with no ``cells`` (one run of ``--beta-dy``/
  ``--beta-yd``) the top-level ``mean_rho`` and ``mean_corr_pi`` move into
  one cell, ``{beta_dy, beta_yd, mean_rho, mean_corr_pi}``, whose pair is
  the one every ``results`` row holds, placed before ``results``;
- every other file must be byte-identical.

The documents are compared as JSON text, so key order, ``-0.0`` and each
number's digits count. The script prints one line per report and a count,
and exits 1 at the first other difference or at a file added or removed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATHS = ("tests/golden", "tests/golden_simulate", "tests/golden_median_sd.json")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def _files(base: str) -> list[str]:
    return _git("ls-tree", "-r", "--name-only", base, "--", *PATHS).decode().splitlines()


def _as_schema_2(old: dict) -> tuple[dict, str]:
    """The base report as schema 2, and what was changed to make it so."""
    if old["schema_version"] != 1:
        raise ValueError("the base report is not schema version 1")
    new = {**old, "schema_version": 2}
    if old["command"] != "simulate" or "cells" in old:
        return new, "schema_version 1 -> 2"
    pairs = {json.dumps([row["beta_dy"], row["beta_yd"]]) for row in old["results"]}
    if len(pairs) != 1:
        raise ValueError(f"the results rows hold {len(pairs)} causal pairs, not one")
    beta_dy, beta_yd = json.loads(pairs.pop())
    cell = {
        "beta_dy": beta_dy,
        "beta_yd": beta_yd,
        "mean_rho": new.pop("mean_rho"),
        "mean_corr_pi": new.pop("mean_corr_pi"),
    }
    new["cells"] = [cell]
    new["results"] = new.pop("results")
    return new, (
        "schema_version 1 -> 2; mean_rho and mean_corr_pi moved into "
        f"cells[0] with (beta_dy, beta_yd) = ({beta_dy}, {beta_yd})"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/golden_schema_diff.py BASE", file=sys.stderr)
        return 2
    [base] = argv
    files = _files(base)
    here = sorted(
        path.relative_to(ROOT).as_posix()
        for name in PATHS
        for path in ([ROOT / name] if (ROOT / name).is_file() else (ROOT / name).rglob("*"))
        if path.is_file()
    )
    if here != sorted(files):
        print(f"the golden files differ in name from {base}'s:", file=sys.stderr)
        print(f"  added {sorted(set(here) - set(files))}", file=sys.stderr)
        print(f"  removed {sorted(set(files) - set(here))}", file=sys.stderr)
        return 1
    identical, reports, moved = 0, 0, 0
    for name in files:
        old_bytes, new_bytes = _git("show", f"{base}:{name}"), (ROOT / name).read_bytes()
        old = json.loads(old_bytes) if name.endswith(".json") else None
        if not (isinstance(old, dict) and "schema_version" in old):
            if old_bytes != new_bytes:
                print(f"{name}: not a report, and not byte-identical", file=sys.stderr)
                return 1
            identical += 1
            continue
        try:
            expected, change = _as_schema_2(old)
        except ValueError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if json.dumps(expected) != json.dumps(json.loads(new_bytes)):
            print(f"{name}: differs by more than: {change}", file=sys.stderr)
            return 1
        print(f"{name}: {change}")
        reports += 1
        moved += "cells[0]" in change
    print(
        f"{reports} reports changed only as shown ({moved} of them single-cell simulate "
        f"reports whose two means moved into one cell); {identical} other files byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
