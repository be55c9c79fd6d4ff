#!/usr/bin/env python3
"""Seeded benchmark for talentrank.

    python3 perfbench/run.py --workload {search,offline,embed_sampled}
        --seed N --seconds S --trace {0,1}

Generates its inputs from --seed, drives the program from source in this
checkout, checks the outputs, prints every metric by name, unit and
direction, and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones named in
BENCHMARK.json, measured untraced. With --trace 1 the run measures the
same way, then again with span wrappers installed; the metrics are the
per-layer ones, and the spans, the self-time table and the tracing
overhead (traced minus untraced) are written out alongside.

Results and spans go to .perfbench/ in the checkout; scratch artifacts go
to a per-run directory under it and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

import common  # pins BLAS threads before anything imports numpy

WORKLOADS = ("search", "offline", "embed_sampled")
ARROW = {"lower": "lower is better", "higher": "higher is better", "": ""}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _workload(name: str):
    if name == "search":
        import workload_search as module
    elif name == "offline":
        import workload_offline as module
    else:
        import workload_embed as module
    return module


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit, better, note in rows:
        extra = "; ".join(x for x in (ARROW[better], note) if x)
        print(f"  {name:<40} {_fmt(value):>14} {unit:<6} {extra}")


def _report(args, spec, result, machine) -> dict:
    attempted = max(1, int(result.get("attempted", 1)))
    failures = result.get("failures", [])
    e2e = result["e2e"]
    by_name = {m["name"]: m for m in spec["end_to_end"]}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    rows = [(name, e2e[name], m["unit"], m["better"], f"bound {m['bound']:g}")
            for name, m in by_name.items()]
    rows.append(("error_rate", len(failures) / attempted, "share", "lower",
                 f"{len(failures)} failed of {attempted} attempted"))
    _print_rows("end-to-end (untraced)", rows)
    _print_rows(f"{args.workload} figures", result.get("detail", []))
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": m["unit"]} for name, m in by_name.items()}
    else:
        traced = result["traced_e2e"]
        _print_rows("tracing overhead (traced minus untraced)", [
            (name, traced[name] - e2e[name], by_name[name]["unit"], "",
             f"traced {_fmt(traced[name])}") for name in by_name])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": result["layers"].get(name, 0), "unit": unit}
                   for name, unit in units.items()}
        _print_rows("per layer (traced)",
                    [(name, m["value"], m["unit"], "", "") for name, m in metrics.items()])
        print("self time by span (traced phase)")
        print(f"  {'span':<40} {'calls':>9} {'total s':>10} {'self s':>10}")
        for name, calls, total, self_s in result["self_table"]:
            print(f"  {name:<40} {calls:>9} {total:>10.4f} {self_s:>10.4f}")
        acct = result.get("accounting")
        if acct:
            parts = acct["second_pass_ms"] + acct["retrieve_ms"] + acct["transport_ms"]
            print(f"accounting: second_pass + retrieve + transport = {parts:.3f} ms against "
                  f"client median from send {acct['client_from_send_p50_ms']:.3f} ms "
                  f"(gap {acct['client_from_send_p50_ms'] - parts:+.3f} ms; overhead on p50 "
                  f"{traced['p50_ms'] - e2e['p50_ms']:+.3f} ms)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def _save(args, record: dict) -> None:
    results = os.path.join(common.OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=str)
    print(f"record {os.path.relpath(path, common.ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, _terminate)
    try:
        common.require_program()
        spec = _load_spec()
    except (common.ProgramMissing, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    machine = common.machine_record()
    module = _workload(args.workload)
    trace_dir = os.path.join(common.OUT, "traces",
                             f"{args.workload}-seed{args.seed}-{os.getpid()}")
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
    try:
        with common.workspace(args.workload) as work:
            result = module.run(args.seed, args.seconds, bool(args.trace), work, trace_dir)
    except Exception:  # report the crash, print no result line
        traceback.print_exc()
        return 1
    finally:
        common.stop_all()
    if "e2e" not in result:
        for msg in result.get("failures", []):
            print(f"perfbench: {msg}", file=sys.stderr)
        return 1
    line = _report(args, spec, result, machine)
    _save(args, {"args": vars(args), "machine": machine, "result": line,
                 "e2e": result["e2e"], "detail": result.get("detail"),
                 "failures": result.get("failures"), "traced_e2e": result.get("traced_e2e"),
                 "layers": result.get("layers"), "accounting": result.get("accounting")})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
