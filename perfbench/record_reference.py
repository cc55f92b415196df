"""Record the reference outputs the benchmark's output gate checks against.

    python3 perfbench/record_reference.py [--seeds 0-9]

Runs every workload once per seed (study_m9 once: it has no random
input) at full size and writes ``perfbench/reference.json``.  Record
only on a commit whose outputs are the accepted ones; a change that is
meant to leave the estimates alone must pass the gate unchanged.
"""

import argparse
import json
import sys

import run

SEEDLESS = ("study_m9",)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)
    first, last = (int(part) for part in args.seeds.split("-"))
    stored = {}
    for workload in run.WORKLOADS:
        seeds = (["*"] if workload in SEEDLESS
                 else [str(s) for s in range(first, last + 1)])
        stored[workload] = {}
        for seed in seeds:
            result = run.run_worker(workload, 0 if seed == "*" else int(seed), "run", 0,
                                    smoke=False, timeout=600.0)
            if "error" in result:
                print(f"{workload} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            stored[workload][seed] = result["outputs"]
            print(f"{workload} seed {seed}: wall {result['wall_s']:.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(
        {"commit": run.git_commit(), "workloads": stored}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
