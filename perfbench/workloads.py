"""The benchmark's workloads: the CLI invocations that make up one pass.

Each workload maps (seed, output directory) to the list of argv lists given
to ``muharmonic.cli.main`` in one pass.  README.md says why each was chosen.
"""

from __future__ import annotations

import json
from pathlib import Path

FREEWALK_PATHS = 200_000
# At the default n=1000 the cesaro scenario's fixed bound tv(A_n, haar) <= 1e-2
# fails on S5 (0.0144): Cesaro averages converge at O(1/n).  n=4000 gives 0.0036.
LARGE_GROUP_CESARO_N = 4000
LARGE_GROUP_SCENARIOS = (("harmonic", ()), ("cesaro", ("--n", str(LARGE_GROUP_CESARO_N))),
                         ("derriennic", ()))


def _suite(seed: int, out_dir: Path) -> list[list[str]]:
    # the criteria use pinned seeds; the workload seed is only recorded
    return [["suite"]]


def _freewalk(seed: int, out_dir: Path) -> list[list[str]]:
    return [["freewalk", "--word", "ab", "--paths", str(FREEWALK_PATHS), "--seed", str(seed)]]


def _write_s5_config(muharmonic, work_dir: Path) -> Path:
    """S5 (order 120, the package's cap) with mu uniform on {(1 2), (1 2 3 4 5)}."""
    s5 = muharmonic.symmetric_group(5)
    support = [s5.labels.index("(1 2)"), s5.labels.index("(1 2 3 4 5)")]
    path = work_dir / "s5.json"
    path.write_text(json.dumps({"group": {"kind": "symmetric", "n": 5},
                                "measure": {"uniform_on": support}}))
    return path


def prepare(name: str, muharmonic, work_dir: Path):
    """Return ``argvs(seed, out_dir)``, which gives one pass's CLI calls."""
    if name == "suite":
        return _suite
    if name == "freewalk":
        return _freewalk
    if name == "large_group":
        config = str(_write_s5_config(muharmonic, work_dir))

        def _large_group(seed: int, out_dir: Path) -> list[list[str]]:
            return [[scenario, "--config", config, "--out", str(out_dir), "--seed", str(seed),
                     *extra] for scenario, extra in LARGE_GROUP_SCENARIOS]

        return _large_group
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("suite", "freewalk", "large_group")
