"""Record each job's exit code and stdout sha256 into ``golden.json``.

    python3 perfbench/record_golden.py

Run from the root of a checkout whose outputs are trusted.  A job whose
exit code or count identities fail is not recorded: the script stops with
status 1 and leaves the file as it was.  descent-mix digests are recorded
for each of its content variants, in schedule order, as one
space-separated string per variant; a seed's run order permutes them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if not __package__:
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import descent_mix, run, workloads  # noqa: E402


def record(cli, jobs) -> list[str]:
    out = []
    for res in run.run_pass(cli, jobs, None):
        if res.problem is not None:
            raise SystemExit(f"not recording: {res.problem}")
        out.append(workloads.digest(res.exit, res.sha256))
    return out


def main() -> int:
    cli = run.import_cli()
    golden = {name: record(cli, workloads.jobs_for(name, 0)) for name in workloads.FIXED}
    golden["descent-mix"] = {
        str(content): " ".join(record(cli, descent_mix.documents(content)))
        for content in range(descent_mix.VARIANTS)
    }
    with workloads.GOLDEN_PATH.open("w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
