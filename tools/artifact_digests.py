"""Print the sha256 of every shipped config's status line and artifacts.

    PYTHONPATH=src python tools/artifact_digests.py

Each file in ``configs/`` runs through ``mergosim.cli.main``
under the command its name starts with (``evolve_flat.json`` runs
``evolve``), and five more runs follow: ``tree_synthetic`` and
``validate_h2o2`` with ``--seed 99``, ``lz_rbcs`` and ``cost_table``
with ``--format json``, and ``measure_bond`` with ``--seed 3``, whose
measurement heralds success where the config's seed 17 heralds failure.
``validate`` checks every configuration and reads no seed, so its
``--seed 99`` rows equal its default-seed rows.
Both shipped evolve configs take the dense C(t) path, so the benchmark
merge follows (``bench/workloads.evolve_config`` at seeds 0-2 on m = 9
and m = 21 grids, read with ``bench/`` on ``sys.path`` and written as
JSON): its Lanczos ground state and Chebyshev C(t) get rows too.
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
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
COMMANDS = ("evolve", "measure", "tree", "lz", "cost", "validate")
EXTRA_RUNS = (("tree_synthetic", ("--seed", "99")),
              ("validate_h2o2", ("--seed", "99")),
              ("lz_rbcs", ("--format", "json")),
              ("cost_table", ("--format", "json")),
              ("measure_bond", ("--seed", "3")))
BENCH_MERGES = tuple((seed, m) for m in (9, 21) for seed in range(3))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(config: Path, flags: tuple, label: str = ""
        ) -> list[tuple[str, str]]:
    """(name, sha256) of the masked status line and of each artifact of
    one CLI run of ``config``, labelled ``label`` or the file's stem."""
    from mergosim import cli

    command = config.stem.split("_")[0]
    if command not in COMMANDS:
        raise SystemExit(f"no command for {config.name}")
    label = (label or config.stem) + (f" ({' '.join(flags)})" if flags
                                      else "")
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
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import evolve_config
    with tempfile.TemporaryDirectory() as folder:
        config = Path(folder) / "evolve_merge.json"
        for seed, m in BENCH_MERGES:
            config.write_text(json.dumps(evolve_config(seed, m)))
            for name, digest in run(config, (),
                                    f"bench evolve_merge m={m} seed={seed}"):
                print(f"| `{name}` | `{digest}` |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
