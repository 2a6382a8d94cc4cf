"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py --seeds 10 [--workload NAME ...] [--seconds S]

For each workload, runs ``run.py --trace 0`` once per seed (1..N), then
the default seed a second time.  For every end-to-end metric it prints
the median and the spread -- the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- next to a third of the metric's bound from ``BENCHMARK.json``.
It fails (exit 1) when a run is not correct, when any spread reaches a
third of its bound, or when the two runs of the default seed disagree on
any exact work count.  Results go to
``.perfbench_out/steady.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d failed:\n%s"
                           % (workload, seed, done.stderr[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    summary = {}
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            work, result = run_once(name, seed, args.seconds)
            runs.append(result)
            values = " ".join("%s=%.4g" % (k, v["value"])
                              for k, v in result["metrics"].items())
            print("%s seed %d: correct=%s failed=%d %s"
                  % (name, seed, result["correct"], result["failed"],
                     values), flush=True)
            ok &= bool(result["correct"]) and result["failed"] == 0
            if seed == 1:
                first_work = work["work"]
        again, _ = run_once(name, 1, args.seconds)
        if again["work"] != first_work:
            ok = False
            print("%s: work counts of two default-seed runs differ: %s vs %s"
                  % (name, first_work, again["work"]))
        summary[name] = {"work": first_work, "metrics": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            summary[name]["metrics"][metric] = {
                "values": values, "median": statistics.median(values),
                "spread": s, "bound": bound,
            }
            verdict = "ok" if s < bound / 3 else "TOO WIDE"
            ok &= s < bound / 3
            print("%-14s %-14s median %-12.5g spread %6.3f  third of "
                  "bound %.3f  %s" % (name, metric, statistics.median(values),
                                      s, bound / 3, verdict), flush=True)
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print("steady: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
