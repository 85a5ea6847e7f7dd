#!/usr/bin/env python3
"""Record each workload's sweep rows into reference.json.

    python3 bench/record_reference.py --seeds 0-15

Runs every workload once per seed through the same worker as run.py and
stores, per row, the control, gamma, fit window and n_points from
sweep.csv.  run.py then requires these values (gamma to a relative 1e-9,
the rest exactly) whenever it runs at a recorded seed.  Re-record only
when a change to the library moves the numbers on purpose, and say so.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default=str(run.DEFAULT_SEED), help="e.g. 0-15")
    parser.add_argument("--workloads", nargs="*", default=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    path = run.BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    run.OUT.mkdir(exist_ok=True)
    for workload in args.workloads:
        spec = run.WORKLOADS[workload]
        for seed in parse_seeds(args.seeds):
            run_dir = Path(tempfile.mkdtemp(prefix=f"reference-{workload}-{seed}-", dir=run.OUT))
            config = run_dir / "config.ini"
            config.write_text(run.config_text(spec, seed))
            runner = run.Runner(run_dir, time.monotonic() + 600.0)
            sample = runner.sweep(config, trace=False)
            n, failed, messages = run.check_sweep(sample, spec, seed, {})
            if failed:
                print(f"{workload} seed {seed}: {messages}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = [
                {"control": float(row["control"]), "gamma": float(row["gamma"]),
                 "window_t1": int(row["window_t1"]), "window_t2": int(row["window_t2"]),
                 "n_points": int(row["n_points"])}
                for row in sample["rows"]]
            print(f"{workload} seed {seed}: {sample['sweep_s']:.2f} s", flush=True)
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
