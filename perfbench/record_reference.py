"""Record the reference outputs of the default seed into reference.json.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are trusted; the benchmark
then compares every later run's outputs with these.  Every op must pass its
invariant checks before anything is written.
"""

from __future__ import annotations

import json
import sys
import tempfile

import check
import inputs
import workloads


def main() -> int:
    refs = {}
    work_root = workloads.HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        for workload in inputs.WORKLOADS:
            ctx = workloads.setup(workload, inputs.DEFAULT_SEED, tmp)
            ctx.refs = {}
            for op in ctx.ops:
                out = workloads.run_op(ctx, op, cli_in_process=True)
                problems = check.check(ctx, op, out)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                refs[op.key] = check.summarize(op, out)
                print(f"recorded {op.key}")
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in sorted(refs)]
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
