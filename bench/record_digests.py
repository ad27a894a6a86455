"""Record the sha256 digests of the workloads' data files into digests.json.

    python3 bench/record_digests.py

Run from the root of a checkout whose outputs are known to be right, in a
fresh interpreter (the BLAS thread pin takes effect before numpy loads): a file
is recorded only when its command exits as expected and passes its verdict and
invariant checks.  Every workload is recorded for the seeds in SEEDS and
digests.json is written from scratch.  Commands that do not depend on the seed
are recorded once, under "any"; seeded commands once per seed.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import workloads
from worker import PINNED_ENV, UNSET_ENV, WORK_DIR, import_cli

SEEDS = range(100)


def record(cli, name: str, seed: int, entry: dict) -> None:
    work = workloads.build(name, seed, WORK_DIR / "record" / name)
    work.write_inputs()
    for command in work.commands:
        if seed != SEEDS[0] and not command.seeded:
            continue
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(command.argv))
        problem, _ = workloads.check_command(work, command, code, out.getvalue(), {})
        if problem:
            raise SystemExit(f"{name} seed {seed} {command.name}: {problem} {err.getvalue()}")
        target = entry["seeds"].setdefault(str(seed), {}) if command.seeded else entry["any"]
        for file in command.outputs:
            target[file] = workloads.sha256(work.workdir / file)


def main() -> int:
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    os.environ.update(PINNED_ENV)
    cli = import_cli()
    table = {}
    for name in workloads.WORKLOADS:
        table[name] = {"any": {}, "seeds": {}}
        for seed in SEEDS:
            record(cli, name, seed, table[name])
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                      encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
