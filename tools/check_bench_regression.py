#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage: check_bench_regression.py BASELINE.json FRESH.json
       [--fail-pct 25] [--warn-pct 10]

Matches series entries by metric (plus enterprises/shards for e2e
points) and compares their throughput field (events_per_sec or
slots_per_sec). A drop beyond --fail-pct fails the job; a drop between
--warn-pct and --fail-pct prints an advisory warning only. Speedups and
new metrics never fail — baselines are refreshed by committing a new
JSON, not by loosening this check.

The simulated event count of every e2e point must equal the baseline's
exactly: an e2e point runs the same deterministic simulation in --quick
and full mode, so a different count means a different simulation, and
a rate compared across two simulations says nothing. The raw series
change their event counts with the mode, so only e2e counts are gated.

CI runs the fresh side in --quick mode (1 repetition, reduced event
counts): rates stay comparable to the full-mode baselines, the extra
noise is why the fail threshold is generous.
"""

import argparse
import json
import sys


RATE_FIELDS = ("events_per_sec", "slots_per_sec")


def series_key(entry):
    key = entry.get("metric", "?")
    for extra in ("enterprises", "shards"):
        if extra in entry:
            key += f"_{entry[extra]}"
    return key


def rate_of(entry):
    for f in RATE_FIELDS:
        if f in entry:
            return float(entry[f])
    return None


def load(path):
    """Returns ({series: rate}, {e2e series: simulated events})."""
    with open(path) as f:
        doc = json.load(f)
    rates, events = {}, {}
    for entry in doc.get("series", []):
        key = series_key(entry)
        rate = rate_of(entry)
        if rate is not None:
            rates[key] = rate
        if entry.get("metric") == "e2e" and "events" in entry:
            events[key] = int(entry["events"])
    return rates, events


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--fail-pct", type=float, default=25.0)
    ap.add_argument("--warn-pct", type=float, default=10.0)
    args = ap.parse_args()

    base, base_events = load(args.baseline)
    fresh, fresh_events = load(args.fresh)

    failures = []
    for key, base_rate in sorted(base.items()):
        if key not in fresh:
            print(f"?? {key}: missing from fresh run (skipped)")
            continue
        fresh_rate = fresh[key]
        drop_pct = (1.0 - fresh_rate / base_rate) * 100.0
        line = (f"{key}: baseline {base_rate:,.0f}/s fresh "
                f"{fresh_rate:,.0f}/s ({-drop_pct:+.1f}%)")
        if drop_pct > args.fail_pct:
            print(f"FAIL {line}")
            failures.append(key)
        elif drop_pct > args.warn_pct:
            print(f"WARN {line}")
        else:
            print(f"ok   {line}")

    event_failures = []
    for key, base_count in sorted(base_events.items()):
        if key not in fresh_events:
            continue
        line = (f"{key}: baseline {base_count:,} events fresh "
                f"{fresh_events[key]:,} events")
        if fresh_events[key] != base_count:
            print(f"FAIL {line}")
            event_failures.append(key)
        else:
            print(f"ok   {line}")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed more than "
              f"{args.fail_pct:.0f}% vs the committed baseline "
              f"({args.baseline}).")
        print("If the slowdown is intended, regenerate and commit the "
              "baseline JSON with the full-mode bench.")
    if event_failures:
        print(f"\n{len(event_failures)} e2e point(s) simulate a different "
              f"number of events than the committed baseline "
              f"({args.baseline}). Commit the new counts together with "
              "the change that explains them.")
    return 1 if failures or event_failures else 0


if __name__ == "__main__":
    sys.exit(main())
