#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and record each metric's spread.

    python3 perfbench/spread.py --set A --workload oneshot --runs 10 \\
        --seconds 30 --record perfbench/spread_record.json
    python3 perfbench/spread.py --table --record perfbench/spread_record.json

The first form runs `sh perfbench/run.sh` once per seed (seeds
first..first+runs-1) from the repository root, prints each run and, per
end-to-end metric, the median and the inter-quartile distance as a share
of the median (the quartiles of Python's statistics.quantiles(values,
n=4)).  With --record the runs and the summary are stored in that JSON
file under sets.<SET>.<WORKLOAD>, next to the sets already in it.

The second form prints, from a record, one Markdown row per workload and
metric: each set's median and spread, and the change of each later
set's median relative to the first set's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    diag = {}
    for line in lines[:-1]:
        try:
            diag.update(json.loads(line).get("diagnostic", {}))
        except ValueError:
            pass
    res = json.loads(lines[-1])
    # the host reference and the run's shape, not per-input detail
    return {"seed": seed,
            "wall_s": wall,
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "units": {k: v["unit"] for k, v in res["metrics"].items()},
            "cpu_loop_ms": diag.get("cpu_loop_ms"),
            "mem_loop_ms": diag.get("mem_loop_ms"),
            "setup_samples_s": diag.get("setup_s"),
            "rounds": len(diag.get("round_ms", []))}


def summarize(runs):
    out = {}
    for name, unit in runs[0]["units"].items():
        vals = [r["metrics"][name] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        out[name] = {"median": med, "q1": q[0], "q3": q[2],
                     "spread": (q[2] - q[0]) / med if med else 0.0,
                     "unit": unit}
    for key in ("cpu_loop_ms", "mem_loop_ms"):
        vals = [x for r in runs for x in (r.get(key) or [])]
        if vals:
            out[key] = {"median": statistics.median(vals), "diagnostic": True}
    return out


def load(path):
    if path and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return {"sets": {}}


def table(record):
    sets = record["sets"]
    names = sorted(sets)
    head = ["workload", "metric"]
    for i, n in enumerate(names):
        head += [f"median {n}", f"spread {n}"] + (
            [f"{n} vs {names[0]}"] if i else [])
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    workloads = sorted({wl for n in names for wl in sets[n]})
    for wl in workloads:
        sums = [sets[n].get(wl, {}).get("summary", {}) for n in names]
        first = next(s for s in sums if s)
        for name, s0 in first.items():
            if s0.get("diagnostic"):
                continue
            cells = [wl, name]
            for i, s in enumerate(sums):
                x = s.get(name)
                cells += ([f"{x['median']:.4g} {x['unit']}",
                           f"{x['spread']:.3f}"] if x else ["-", "-"])
                if i:
                    base = sums[0].get(name)
                    cells.append(f"{x['median'] / base['median'] - 1:+.3f}"
                                 if x and base and base["median"] else "-")
            print("| " + " | ".join(cells) + " |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--set", default="A")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--record")
    ap.add_argument("--host", help="one-line host description to record")
    ap.add_argument("--table", action="store_true")
    a = ap.parse_args()
    if a.table:
        table(load(a.record))
        return
    if not a.workload:
        ap.error("--workload is required unless --table is given")
    runs = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        r = run_once(a.workload, seed, a.seconds)
        print(f"seed {seed}: correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} "
              f"wall={r['wall_s']:.1f}s cpu_loop_ms="
              f"{[round(x, 1) for x in r['cpu_loop_ms'] or []]} "
              f"mem_loop_ms={[round(x, 1) for x in r['mem_loop_ms'] or []]}",
              flush=True)
        runs.append(r)
    summary = summarize(runs)
    for name, s in summary.items():
        if not s.get("diagnostic"):
            print(f"  {name:28s} median {s['median']:12.4f} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}")
    if a.record:
        record = load(a.record)
        if a.host:
            record["host"] = a.host
        record["seconds"] = a.seconds
        record["sets"].setdefault(a.set, {})[a.workload] = {
            "first_seed": a.first_seed, "runs": runs, "summary": summary}
        with open(a.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
