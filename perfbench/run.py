"""Run one qvss benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Works from any directory of a checkout and imports qvss from its ``src``.
Load is a closed loop with one client and no extra threads: the workload's
pass repeats until ``--seconds`` have gone by, each call starting when the
previous one returns.  ``--trace 0`` reports the end-to-end metrics named
in ``BENCHMARK.json`` (timings are medians over passes); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
plus the tracing overhead.  A human-readable report comes first; the last
line of standard output is one JSON object.  ``--tiny`` shrinks every
input, for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch files (the CLI workload's shares) live here while a run lasts.
WORK = ROOT / ".perfbench-work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qvss" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no qvss sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    if Path(measure.workloads.protocol.__file__).resolve().parents[1] != SRC:
        print(f"error: imported qvss from outside {SRC}", file=sys.stderr)
        return 2
    if args.workload not in measure.workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    spec_metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = measure.run(args, spec_metrics, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
