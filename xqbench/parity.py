#!/usr/bin/env python3
"""Front-end parity: sql_server p50 / xquery_reads p50 per read class.

Runs both workloads with the same seed and prints, for each class the two
front ends share, the SQL/XML median over the XQuery median with both
bases. This is ROADMAP item 2's yardstick ("SQL within 1.5x of XQuery").
It is a report, not a benchmark metric.

    python3 xqbench/parity.py --seed 1 --seconds 45
"""

import argparse
import json
import subprocess
import sys

CLASSES = ["probe", "prefilter", "twig", "scan", "point"]


def run(workload, seed, seconds):
    cmd = [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", "xqbench/Cargo.toml", "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} failed ({out.returncode}):\n{out.stderr}{out.stdout}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=45)
    a = p.parse_args()
    xq = run("xquery_reads", a.seed, a.seconds)
    sql = run("sql_server", a.seed, a.seconds)
    print(f"front-end parity, seed {a.seed} (SQL/XML over the server / embedded XQuery):")
    for c in CLASSES:
        key = f"{c}_p50_ms"
        s, x = sql[key]["value"], xq[key]["value"]
        print(f"  {c:<9} {s:10.3f} ms / {x:10.3f} ms = {s / x:8.2f}x")


if __name__ == "__main__":
    main()
