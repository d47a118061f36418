"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload enum_study --seeds 1-10

runs `bash perfbench/run.sh --workload W --seed N --seconds S --trace 0`
once per seed, one run at a time, from the checkout root, and prints
for every metric its median over the runs and the distance between the
first and third quartiles as a share of that median (the quantity the
bounds in BENCHMARK.json limit). Run it from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", default="0", choices=["0", "1"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in a.workload or names:
        values = {}
        for seed in seed_list(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", a.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            result = json.loads(last)
            if out.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{w} seed {seed}: exit {out.returncode}, correct={result.get('correct')}")
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result.get("metrics", {}).items()), flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"{w} {name}: median {med:.6g} spread {spread:.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
