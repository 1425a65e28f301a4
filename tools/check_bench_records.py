#!/usr/bin/env python3
"""Check the committed benchmark records (BENCH_*.json at the repo root).

Every bench writes its record through bench/bench_harness.{h,cc} in one shape:

  {"bench": name, "environment": {...},
   "workloads": [{"label": str, "end_to_end": {name: number},
                  "gates": {name: bool}}]}

A bench exits nonzero when a gate is false, so a committed record with a
false gate documents a run that failed. This check fails on such a record,
and on any record that has drifted from the harness shape:

  1. The file parses as a JSON object with exactly the keys "bench",
     "environment" and "workloads", and "bench" names the file
     (BENCH_<bench>.json).
  2. "environment" is an object with a positive "hardware_concurrency".
  3. "workloads" is a non-empty array of objects with exactly the keys
     "label", "end_to_end" and "gates". Labels are non-empty and unique.
     "end_to_end" maps names to finite numbers; "gates" maps names to
     booleans (a workload that only measures has none).
  4. Every gate is true.

Usage:
  check_bench_records.py   # checks the records at the repository root

Exit code 0 = every record passes, 1 = violations (each printed),
2 = usage/setup error (an argument, or no BENCH_*.json at the root).
"""

import glob
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_KEYS = {"bench", "environment", "workloads"}
WORKLOAD_KEYS = {"label", "end_to_end", "gates"}


def is_finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_workload(index, workload, labels):
    where = f"workloads[{index}]"
    if not isinstance(workload, dict):
        return [f"{where} is not an object"]
    errors = []
    if set(workload) != WORKLOAD_KEYS:
        errors.append(f"{where} has keys {sorted(workload)}, expected "
                      f"{sorted(WORKLOAD_KEYS)}")
    label = workload.get("label")
    if not isinstance(label, str) or not label:
        errors.append(f"{where} has no label")
    else:
        if label in labels:
            errors.append(f"{where} repeats the label '{label}'")
        labels.add(label)
        where = f"workload '{label}'"
    end_to_end = workload.get("end_to_end")
    if not isinstance(end_to_end, dict):
        errors.append(f"{where}: end_to_end is not an object")
    else:
        for name, value in end_to_end.items():
            if not is_finite_number(value):
                errors.append(f"{where}: end_to_end '{name}' is not a finite "
                              f"number: {value!r}")
    gates = workload.get("gates")
    if not isinstance(gates, dict):
        errors.append(f"{where}: gates is not an object")
    else:
        for name, value in gates.items():
            if not isinstance(value, bool):
                errors.append(f"{where}: gate '{name}' is not a boolean: "
                              f"{value!r}")
            elif not value:
                errors.append(f"{where}: gate '{name}' is false")
    return errors


def check_record(path):
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, ValueError) as error:
        return [f"cannot read: {error}"]
    if not isinstance(record, dict):
        return ["the record is not a JSON object"]
    errors = []
    if set(record) != RECORD_KEYS:
        errors.append(f"keys {sorted(record)}, expected {sorted(RECORD_KEYS)}")
    expected_name = os.path.basename(path)[len("BENCH_"):-len(".json")]
    if record.get("bench") != expected_name:
        errors.append(f"bench is {record.get('bench')!r}, expected "
                      f"{expected_name!r} from the file name")
    environment = record.get("environment")
    if not isinstance(environment, dict):
        errors.append("environment is not an object")
    else:
        cores = environment.get("hardware_concurrency")
        if (not isinstance(cores, int) or isinstance(cores, bool)
                or cores < 1):
            errors.append(f"environment.hardware_concurrency is not a "
                          f"positive integer: {cores!r}")
    workloads = record.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        errors.append("workloads is not a non-empty array")
    else:
        labels = set()
        for index, workload in enumerate(workloads):
            errors.extend(check_workload(index, workload, labels))
    return errors


def main():
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not paths:
        print(f"no BENCH_*.json under {ROOT}", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        errors = check_record(path)
        name = os.path.basename(path)
        if errors:
            failed += 1
            for error in errors:
                print(f"{name}: {error}")
        else:
            print(f"{name}: ok")
    if failed:
        print(f"{failed} of {len(paths)} bench records failed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
