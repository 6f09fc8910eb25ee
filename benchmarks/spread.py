"""Run one workload over several seeds and print each metric's median and
quartile spread (the interquartile distance over the median, from
``statistics.quantiles(values, n=4)``).

    python3 benchmarks/spread.py --workload train-small --seeds 1-10 --seconds 38 [--trace 0]

Runs go one after another from the current directory, which must be the
root of a moonnet checkout.  Each run's last stdout line is kept in
``--out`` (default: do not keep).
"""

import argparse
import json
import statistics
import subprocess
import sys


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=int, default=38)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        last["seed"] = seed
        results.append(last)
        print(f"seed {seed}: attempted {last['attempted']} failed {last['failed']} "
              f"correct {last['correct']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) < 2 or med == 0:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{name:32s} median {med:14.6g} {results[0]['metrics'][name]['unit']:8s}"
              f" spread {(q3 - q1) / med:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
