"""The repository's benchmark: one command for the whole request path.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-dblp --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads: ``engine-imdb`` (the paper's algorithms in-process),
``serve-dblp`` (HTTP with the process pool and result cache),
``ingest-dblp`` (the same deployment with the delta WAL, reads beside
deltas) and ``routed-dblp`` (the read stream through the shard
router). With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it repeats the measurement with span wrappers
installed and reports the per-layer split instead (see README.md).
Either way the result holds every metric ``manifest.py`` lists for the
mode, on every workload.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

The line before it is the run's measured traffic shape. The exit code
is 0 when every answer matched the reference engine, 1 when one did
not, and 2 when the benchmark could not run at all (for instance
outside a checkout that holds ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse(argv):
    """Command-line arguments."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="bench",
                        help="dataset scale: bench (default) or tiny "
                             "(the benchmark's own smoke tests)")
    return parser.parse_args(argv)


def run_one(name, args, workloads, deploy, manifest) -> bool:
    """Run one workload, print its traffic and result lines; returns
    whether every answer was correct."""
    work = deploy.WorkDir()
    try:
        outcome = workloads.WORKLOADS[name](workloads.Run(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scale=workloads.SCALES[args.scale], work=work))
    finally:
        work.close()
    metrics = manifest.complete(name, bool(args.trace), outcome.metrics)
    correct = outcome.mismatched == 0
    if not correct:
        print(f"perfbench: {name}: {outcome.mismatched} answers differ "
              f"from the reference engine", file=sys.stderr)
    print(json.dumps({"workload": name, "traffic": outcome.traffic}))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit)
                    in sorted(metrics.items())},
    }), flush=True)
    return correct


def main(argv=None) -> int:
    """Entry point; returns the exit code."""
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import deploy
    import manifest
    import workloads

    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.scale not in workloads.SCALES or args.seconds <= 0:
        print(f"perfbench: unknown workload/scale or bad --seconds "
              f"(workloads: {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    try:
        results = [run_one(name, args, workloads, deploy, manifest)
                   for name in names]
    except deploy.SetupError as error:
        print(f"perfbench: set-up failed: {error}", file=sys.stderr)
        return 2
    except manifest.Incomplete as error:
        print(f"perfbench: incomplete result: {error}", file=sys.stderr)
        return 2
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
