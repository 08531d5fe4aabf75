#!/usr/bin/env python3
"""Perf-regression guard over BENCH_graphs.json.

Compares a freshly measured bench_graphs document against the committed
baseline and fails (exit 1) if node-updates/sec drops more than the
tolerance below the baseline for any (topology, dynamics, engine) cell,
where engine is one of strict / batched / reference.

Usage:
    perf_guard.py BASELINE.json MEASURED.json [--drop-tolerance 0.30]
                  [--rename old_topo/old_dyn=new_topo/new_dyn ...]

Notes:
  * The default tolerance is deliberately loose (30%): CI runs --quick on
    shared runners while the committed baseline is a default-mode run, so
    absolute throughput differs with n and machine. The guard's job is to
    catch step-change regressions (an accidentally de-vectorized kernel, a
    reintroduced per-round allocation), not 10% noise.
  * Cells present in the baseline but missing from the measurement (or vice
    versa) are reported and skipped: topology/dynamics additions must not
    break older baselines.
  * When a bench renames a cell (a topology spec string or dynamics name
    changes), pass --rename so the baseline keeps guarding it under the
    new name instead of silently skipping — regenerating the committed
    baseline on unrelated hardware would launder real regressions.
"""

import argparse
import json
import sys

ENGINE_METRICS = [
    "strict_node_updates_per_sec",
    "batched_node_updates_per_sec",
    "reference_node_updates_per_sec",
]


def load_cells(path, role):
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise SystemExit(
            f"perf_guard: {role} file '{path}' does not exist — "
            f"{'the committed baseline is missing (regenerate it with the bench and commit it)' if role == 'baseline' else 'the bench that should have produced it did not run or wrote elsewhere'}")
    except json.JSONDecodeError as e:
        raise SystemExit(
            f"perf_guard: {role} file '{path}' is not valid JSON ({e}) — "
            f"likely a truncated or interrupted bench run; regenerate it")
    cells = {}
    for row in doc.get("topologies", []):
        key = (row.get("topology"), row.get("dynamics"))
        cells[key] = row
    return doc, cells


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("measured")
    parser.add_argument("--drop-tolerance", type=float, default=0.30,
                        help="maximum allowed fractional drop below baseline")
    parser.add_argument("--allow-config-mismatch", action="store_true",
                        help="compare even when mode/n/threads differ between the "
                             "documents (ad-hoc use only; the CI gate requires a "
                             "same-config baseline, otherwise a drifted config "
                             "silently degrades the guard)")
    parser.add_argument("--rename", action="append", default=[],
                        metavar="OLD_TOPO/OLD_DYN=NEW_TOPO/NEW_DYN",
                        help="map a baseline cell key onto its renamed measured key "
                             "(repeatable); keeps renamed bench cells guarded "
                             "instead of skipped")
    args = parser.parse_args()

    renames = {}
    for spec in args.rename:
        try:
            old, new = spec.split("=", 1)
            # Split at the LAST '/': topology keys may contain one
            # ("random 8-regular/identity"), dynamics names never do.
            old_topo, old_dyn = old.rsplit("/", 1)
            new_topo, new_dyn = new.rsplit("/", 1)
        except ValueError:
            print(f"perf_guard: bad --rename '{spec}' "
                  f"(want old_topo/old_dyn=new_topo/new_dyn)", file=sys.stderr)
            return 2
        renames[(old_topo, old_dyn)] = (new_topo, new_dyn)

    base_doc, base_cells = load_cells(args.baseline, "baseline")
    meas_doc, meas_cells = load_cells(args.measured, "measured")
    print(f"baseline: mode={base_doc.get('mode')} n={base_doc.get('n')} "
          f"threads={base_doc.get('threads')}")
    print(f"measured: mode={meas_doc.get('mode')} n={meas_doc.get('n')} "
          f"threads={meas_doc.get('threads')}")
    mismatched = [f for f in ("mode", "n", "threads")
                  if base_doc.get(f) != meas_doc.get(f)]
    if mismatched:
        msg = (f"perf_guard: baseline/measured configs differ on "
               f"{', '.join(mismatched)} — throughput is not comparable; "
               f"regenerate the committed baseline for this configuration")
        if not args.allow_config_mismatch:
            print(msg, file=sys.stderr)
            return 1
        print(f"[warn] {msg} (--allow-config-mismatch given)")

    failures = []
    checked = 0
    for key, base_row in sorted(base_cells.items()):
        lookup = renames.get(key, key)
        meas_row = meas_cells.get(lookup)
        if meas_row is None:
            print(f"  [skip] {key}: not in measured document"
                  + (f" (as {lookup})" if lookup != key else ""))
            continue
        if lookup != key:
            print(f"  [map ] {key} -> {lookup}")
        for metric in ENGINE_METRICS:
            base = base_row.get(metric)
            meas = meas_row.get(metric)
            if base is None or meas is None:
                continue
            checked += 1
            floor = base * (1.0 - args.drop_tolerance)
            status = "ok" if meas >= floor else "FAIL"
            if meas < floor:
                failures.append((key, metric, base, meas))
            print(f"  [{status:>4}] {key[0]} / {key[1]} / {metric}: "
                  f"{meas:.3g} vs baseline {base:.3g} (floor {floor:.3g})")

    rename_targets = set(renames.values())
    for key in sorted(meas_cells):
        if key in base_cells or key in rename_targets:
            continue
        print(f"  [new ] {key}: not in baseline document — unguarded until the "
              f"committed baseline is regenerated")

    if checked == 0:
        print("perf_guard: no comparable cells — schema mismatch?", file=sys.stderr)
        return 1
    if failures:
        print(f"\nperf_guard: {len(failures)} cell(s) dropped more than "
              f"{args.drop_tolerance:.0%} below the committed baseline:",
              file=sys.stderr)
        for (topology, dynamics), metric, base, meas in failures:
            print(f"  {topology} / {dynamics} / {metric}: {meas:.3g} < "
                  f"{base * (1 - args.drop_tolerance):.3g}", file=sys.stderr)
        return 1
    print(f"perf_guard: all {checked} cells within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
