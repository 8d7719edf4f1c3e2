"""Time the descent commands on documents of k charts over one base point.

    python tests/descent_scale.py [--charts 2000] [--src DIR] [--repeat N]

Writes four documents into a temporary directory: a marking of k charts
over one base point (m = 2, group ``(1 2)``, charts alternating ``p q``
and ``q p``), the morphism document mapping that marking to itself by the
swap of p and q, and the two failing forms of these under the trivial
group ``()``.  It then runs ``verify-descent`` on the first,
``verify-morphism`` on the second and ``equiv-descent`` of the first with
itself, then the two failing rows: ``verify-descent`` of the alternating
charts under ``()``, where every other pair fails, and ``verify-morphism``
of the swap on a marking whose charts all read ``p q`` under ``()``, where
every source chart fails.  Each runs through ``graphstrata.cli.main`` in a
fresh interpreter that imports the package from ``--src`` (default: this
checkout's ``src``).
Each run is timed by wall clock from before the import; its stdout is
hashed as it is written, through a buffer of 1 MiB like a file's, and its
peak RSS is read from ``resource``.  One line per run: command (with
``group=()`` on a failing row), charts, exit code, seconds, peak RSS in MB,
output bytes and sha256.

Give ``--src`` of two checkouts in one session to compare them: the
machine's speed drifts between sessions, so only same-session rows compare.
This is a plain script, not a test module.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNNER = r"""
import hashlib, json, resource, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from graphstrata import cli

class Sink:
    # Hashes what is written, a buffer of about 1 MiB at a time.
    def __init__(self):
        self.digest, self.size, self.buffer, self.buffered = hashlib.sha256(), 0, [], 0
    def write(self, text):
        self.buffer.append(text)
        self.buffered += len(text)
        if self.buffered >= 1 << 20:
            self.flush()
        return len(text)
    def writelines(self, lines):
        for line in lines:
            self.write(line)
    def flush(self):
        data = "".join(self.buffer).encode("utf-8")
        self.digest.update(data)
        self.size += len(data)
        self.buffer, self.buffered = [], 0

sink, stdout = Sink(), sys.stdout
sys.stdout = sink
try:
    code = cli.main(sys.argv[2:])
finally:
    sys.stdout = stdout
sink.flush()
print(json.dumps({
    "exit": code,
    "seconds": time.perf_counter() - start,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "bytes": sink.size,
    "sha256": sink.digest.hexdigest(),
}))
"""


def marking_text(
    k: int, name: str = "marking", group: str = "(1 2)", orderings=("p q", "q p")
) -> str:
    """k charts over one base point x, cycling through ``orderings`` of p q."""
    charts = [f"c{i}" for i in range(k)]
    lines = [
        f"[{name}]",
        "m = 2",
        f"group = {group}",
        "base = x",
        "cover = " + ", ".join(f"{c} -> x" for c in charts),
        "fiber x = p q",
    ]
    lines += [f"sigma {c} = {orderings[i % len(orderings)]}" for i, c in enumerate(charts)]
    return "\n".join(lines) + "\n"


def morphism_text(k: int, group: str = "(1 2)", orderings=("p q", "q p")) -> str:
    """The k-chart marking mapped to itself by the swap of p and q."""
    return (
        marking_text(k, "marking source", group, orderings)
        + marking_text(k, "marking target", group, orderings)
        + "[morphism]\nh = x -> x\nmap x = p -> q, q -> p\n"
    )


def run(src: Path, argv: list[str]) -> dict:
    """One ``cli.main(argv)`` in a fresh interpreter importing from ``src``."""
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src), *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--charts", type=int, default=2000)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    k = args.charts
    documents = {
        "star": marking_text(k),
        "morphism": morphism_text(k),
        "invalid-star": marking_text(k, group="()"),
        "failing-morphism": morphism_text(k, "()", ("p q",)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: str(Path(tmp) / key) for key in documents}
        for key, text in documents.items():
            Path(paths[key]).write_text(text)
        cases = [
            ("verify-descent", [paths["star"]]),
            ("verify-morphism", [paths["morphism"]]),
            ("equiv-descent", [paths["star"], paths["star"]]),
            ("verify-descent group=()", [paths["invalid-star"]]),
            ("verify-morphism group=()", [paths["failing-morphism"]]),
        ]
        for _ in range(args.repeat):
            for name, files in cases:
                row = run(args.src, [name.split()[0], *files])
                print(
                    f"{name} k={k} exit={row['exit']} {row['seconds']:.2f} s"
                    f" {row['peak_rss_mb']:.1f} MB {row['bytes']} bytes sha256 {row['sha256']}",
                    flush=True,
                )


if __name__ == "__main__":
    main()
