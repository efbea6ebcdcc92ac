#!/usr/bin/env python3
"""Compare a bench JSON run (bench/bench_json.h output) against a committed
baseline — the CI perf gate.

Usage:
    check_bench_baseline.py <baseline.json> <current.json> [--qps-warn-pct N]

Hard failures (exit 1):
  * The series sets differ (a series vanished or appeared): the bench's
    coverage changed without the baseline being regenerated.
  * Any series' checksum differs: the answers themselves drifted — a
    correctness regression, machine-independent by construction (seeded
    inputs, integer distances, thread-count-deterministic algorithms).
  * Any series in either file has qps 0: it measured nothing, so its
    checksum proves nothing either.

Soft failures (exit 0, warning on stderr + GitHub ::warning:: annotation):
  * A series' throughput dropped more than --qps-warn-pct percent (default
    25) below the baseline. Warn-only because the baseline machine and the
    CI runner are different hardware; trajectories matter, not one number.

Regenerate the baseline by re-running the bench with the pinned env from the
CI job and committing the JSON (see .github/workflows/ci.yml perf-smoke).
"""

from __future__ import annotations

import argparse
import json
import sys


def load_series(path: str) -> dict[str, dict]:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    series = {}
    for entry in doc.get("series", []):
        series[entry["name"]] = entry
    return series


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--qps-warn-pct", type=float, default=25.0)
    args = parser.parse_args(argv)

    baseline = load_series(args.baseline)
    current = load_series(args.current)

    failures = []
    warnings = []

    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    for name in missing:
        failures.append(f"series '{name}' is in the baseline but not the run")
    for name in added:
        failures.append(
            f"series '{name}' is new — regenerate the committed baseline"
        )

    for label, series in (("baseline", baseline), ("run", current)):
        for name in sorted(series):
            if float(series[name].get("qps", 0.0)) == 0.0:
                failures.append(
                    f"series '{name}' has qps 0 in the {label} — it measured "
                    "nothing"
                )

    for name in sorted(set(baseline) & set(current)):
        base = baseline[name]
        cur = current[name]
        if base["checksum"] != cur["checksum"]:
            failures.append(
                f"series '{name}' checksum drifted: baseline "
                f"{base['checksum']} vs run {cur['checksum']} — answers "
                "changed, not just speed"
            )
        base_qps = float(base.get("qps", 0.0))
        cur_qps = float(cur.get("qps", 0.0))
        if base_qps > 0 and cur_qps < base_qps * (1 - args.qps_warn_pct / 100):
            drop = 100 * (1 - cur_qps / base_qps)
            warnings.append(
                f"series '{name}' throughput dropped {drop:.0f}% "
                f"({base_qps:.0f} -> {cur_qps:.0f} qps)"
            )

    for message in warnings:
        print(f"::warning::perf: {message}")
        print(f"WARNING: {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)

    if failures:
        return 1
    checked = len(set(baseline) & set(current))
    print(
        f"perf gate: {checked} series checked, checksums identical, "
        f"{len(warnings)} throughput warning(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
