"""Print the sha256 prefixes of the CSVs that a refactor must keep.

    python3 tools/csv_hashes.py

runs four ``visim`` commands from the ``src/`` beside this script, each
into its own temporary directory:

- ``compare``
- ``compare --per-entry``
- ``sweep --c 0.5,2 --K 50``
- ``run --solver euclidean --K 50``

and prints one line per CSV written (13 in all): the command, the file
name and the first 8 hex digits of the file's sha256.  A change that
keeps every bit of every series prints the same lines as its parent; to
hash another checkout, copy this script into its ``tools/`` and run it
there.  It exits nonzero if a command fails.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("compare",),
    ("compare", "--per-entry"),
    ("sweep", "--c", "0.5,2", "--K", "50"),
    ("run", "--solver", "euclidean", "--K", "50"),
)
SRC = Path(__file__).resolve().parents[1] / "src"


def csv_hashes(args: tuple[str, ...]) -> list[tuple[str, str]]:
    """(file name, sha256 prefix) of each CSV that ``visim *args`` writes,
    in file-name order."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-c",
               "import sys; from visim.cli import main; sys.exit(main())",
               *args, "--out", out]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        return [(p.name, hashlib.sha256(p.read_bytes()).hexdigest()[:8])
                for p in sorted(Path(out).glob("*.csv"))]


def main() -> int:
    for args in COMMANDS:
        for name, digest in csv_hashes(args):
            print(f"{' '.join(args):<34} {name:<20} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
