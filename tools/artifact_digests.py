"""Print the sha256 of every shipped config's status line and artifacts.

    PYTHONPATH=src python tools/artifact_digests.py

Each file in ``configs/`` runs through ``mergosim.cli.main``
under the command its name starts with (``evolve_flat.json`` runs
``evolve``), and four more runs follow: ``tree_synthetic`` and
``validate_h2o2`` with ``--seed 99``, and ``lz_rbcs`` and ``cost_table``
with ``--format json``. ``validate`` checks every configuration and reads
no seed, so its ``--seed 99`` rows equal its default-seed rows.
Every run writes into a fresh temporary directory, and that path is
masked out of its status line before the line is hashed, so two
checkouts that write the same bytes print the same table. The table is
Markdown on stdout, one row per status line and per artifact; the
mergosim that ran is named on stderr. To compare two checkouts, run the
script once with each ``src`` on PYTHONPATH and diff the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("evolve", "measure", "tree", "lz", "cost", "validate")
EXTRA_RUNS = (("tree_synthetic", ("--seed", "99")),
              ("validate_h2o2", ("--seed", "99")),
              ("lz_rbcs", ("--format", "json")),
              ("cost_table", ("--format", "json")))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: Path, flags: tuple) -> list[tuple[str, str]]:
    """(name, sha256) of the masked status line and of each artifact of
    one CLI run of ``config``."""
    from mergosim import cli

    command = config.stem.split("_")[0]
    if command not in COMMANDS:
        raise SystemExit(f"no command for {config.name}")
    label = config.stem + (f" ({' '.join(flags)})" if flags else "")
    with tempfile.TemporaryDirectory() as out:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, "--config", str(config), "--out", out,
                             *flags])
        status = buf.getvalue().replace(out, "<out>").encode()
        rows = [(f"{label} [status exit={code}]", sha256(status))]
        for name in sorted(os.listdir(out)):
            rows.append((f"{label}/{name}",
                         sha256((Path(out) / name).read_bytes())))
    return rows


def main() -> int:
    import mergosim
    print(f"mergosim from {Path(mergosim.__file__).parent}", file=sys.stderr)
    runs = [(path, ()) for path in sorted(CONFIGS.glob("*.json"))]
    runs += [(CONFIGS / f"{stem}.json", flags)
             for stem, flags in EXTRA_RUNS]
    print("| artifact | sha256 |\n|---|---|")
    for config, flags in runs:
        for name, digest in run(config, flags):
            print(f"| `{name}` | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
