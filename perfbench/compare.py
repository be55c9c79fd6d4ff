#!/usr/bin/env python3
"""Summarise benchmark records and compare two sets of them.

    python3 perfbench/compare.py summary RESULTS_DIR
    python3 perfbench/compare.py diff BASE_DIR CHANGE_DIR

A record is the JSON file run.py writes under .perfbench/results/.
`summary` prints, per workload, the median and quartiles of every
end-to-end metric over the untraced records and the per-layer values of
the traced ones. `diff` compares the untraced records of two commits
against the bounds in BENCHMARK.json. It refuses to compare records whose
machine differs in embedding kernel path or BLAS thread count, because
those alone move the numbers.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MUST_MATCH = ("kernel_path", "blas_threads")


def load_records(directory: str) -> list:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return records


def _spec() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": statistics.median(values), "q3": q[2],
            "spread": (q[2] - q[0]) / statistics.median(values)}


def summarise(records: list) -> dict:
    gated = {m["name"] for m in _spec()["end_to_end"]}
    out = {}
    for rec in records:
        w = out.setdefault(rec["args"]["workload"], {"e2e": {}, "layers": [], "seeds": []})
        if rec["args"]["trace"]:
            w["layers"].append({"seed": rec["args"]["seed"], "layers": rec["layers"],
                                "traced_e2e": rec["traced_e2e"], "untraced_e2e": rec["e2e"],
                                "accounting": rec.get("accounting")})
            continue
        w["seeds"].append(rec["args"]["seed"])
        for name in gated:
            w["e2e"].setdefault(name, []).append(rec["e2e"][name])
    for w in out.values():
        w["e2e"] = {name: _quartiles(values) for name, values in w["e2e"].items()}
    return out


def _machines(records: list) -> set:
    return {tuple(rec["machine"][k] for k in MUST_MATCH) for rec in records}


def diff(base: list, change: list) -> int:
    machines = _machines(base) | _machines(change)
    if len(machines) > 1:
        print(f"refused: records differ in {', '.join(MUST_MATCH)}: {sorted(machines)}")
        return 2
    spec = _spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    by_seed = lambda recs, w: {r["args"]["seed"]: r["e2e"] for r in recs  # noqa: E731
                               if r["args"]["workload"] == w and not r["args"]["trace"]}
    for w in sorted({r["args"]["workload"] for r in base} & {r["args"]["workload"] for r in change}):
        b, c = by_seed(base, w), by_seed(change, w)
        if not b or not c:
            continue
        print(f"{w}: {len(b)} base runs, {len(c)} change runs")
        for name, m in bounds.items():
            bv = [e[name] for e in b.values()]
            cv = [e[name] for e in c.values()]
            bq, cq = _quartiles(bv), _quartiles(cv)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (cq["median"] - bq["median"]) / bq["median"]
            pairs = [(b[s][name], c[s][name]) for s in b if s in c]
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            if worse > m["bound"]:
                verdict = "REGRESSION" if bq["spread"] <= m["bound"] else "unresolved"
                status = 1
            elif bq["spread"] > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"  {name:<18} base {bq['median']:.6g} [{bq['q1']:.6g}, {bq['q3']:.6g}]  "
                  f"change {cq['median']:.6g} [{cq['q1']:.6g}, {cq['q3']:.6g}]  "
                  f"worse by {worse:+.3f} (bound {m['bound']})  "
                  f"change better in {wins}/{len(pairs)} paired seeds  {verdict}")
    return status


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "summary":
        records = load_records(argv[1])
        machines = sorted({json.dumps(r["machine"], sort_keys=True) for r in records})
        print(json.dumps({"machine": [json.loads(m) for m in machines],
                          "workloads": summarise(records)}, indent=1, sort_keys=True))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(load_records(argv[1]), load_records(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
