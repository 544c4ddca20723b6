"""Run the benchmark over several seeds, one fresh process per run, and
append each result to a result set (JSON lines) that ``compare.py`` reads.

    python3 perfbench/sweep.py OUT.jsonl [--seeds 1-10] [--trace 0|1] [--held-out]

Runs are sequential, every workload of BENCHMARK.json for one seed before
the next seed, with the run length from BENCHMARK.json. A run that exits non-zero or prints no
result stops the sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(compare.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args(argv)

    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            command = [
                sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ] + (["--held-out"] if args.held_out else [])
            done = subprocess.run(command, cwd=compare.ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                print(f"sweep: {workload} seed {seed} exited {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = {"workload": workload, "seed": seed, "trace": args.trace, "held_out": args.held_out, "result": result}
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    if not args.trace:
        compare.main([args.out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
