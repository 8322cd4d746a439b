#!/usr/bin/env python3
"""Run fig12_inter_query_reuse at tiny scale and check its cold rows.

Every Figure 12 group is normalized to its own cold-cache run, so the
"cold caches" row of each group must read exactly Total = 100 in both
the JSON report and the text table.

Usage: check_fig12_cold.py <fig12 binary> <output JSON path>
"""

import json
import subprocess
import sys


def main():
    binary, out_path = sys.argv[1], sys.argv[2]
    text = subprocess.run([binary, "--scale", "tiny", "--json", out_path],
                          check=True, capture_output=True,
                          text=True).stdout
    with open(out_path) as f:
        doc = json.load(f)

    failures = []
    cold = [row for key, rows in doc.items() if key.startswith("Figure 12")
            for row in rows if "cold caches" in row["label"]]
    if len(cold) != 2:
        failures.append(f"expected 2 cold-cache JSON rows, got {len(cold)}")
    for row in cold:
        if row["totalPct"] != 100:
            failures.append(f"{row['label']}: totalPct = {row['totalPct']}")

    cold_lines = [l for l in text.splitlines() if "cold caches" in l]
    if len(cold_lines) != 2:
        failures.append(f"expected 2 cold-cache text rows, got "
                        f"{len(cold_lines)}")
    for line in cold_lines:
        if not line.rstrip().endswith("Total=100.0"):
            failures.append(f"text row: {line.strip()}")

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
