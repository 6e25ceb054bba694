"""Check the pinned Betti vectors against the independent dense oracle.

Run from the repository root: ``python3 perfbench/verify_pins.py [name ...]``.
The oracle ranks dense matrices, so theorem2(3) takes minutes; names
restrict the check.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import pins  # noqa: E402
from nilrigid import families, lie_from_model  # noqa: E402
from nilrigid.free_nilpotent import free_nilpotent_lie  # noqa: E402
from oracle import oracle_betti  # noqa: E402

ALGEBRAS = {
    "t1k2": lambda: lie_from_model(families.theorem1_family(2)),
    "t1k3": lambda: lie_from_model(families.theorem1_family(3)),
    "t2k2": lambda: lie_from_model(families.theorem2_family(2)),
    "t2k3": lambda: lie_from_model(families.theorem2_family(3)),
    "t4": lambda: lie_from_model(families.theorem4_example()),
    "free2c4": lambda: free_nilpotent_lie(2, 4).algebra,
    "s3a": lambda: lie_from_model(families.section3_pair()[0]),
    "s3b": lambda: lie_from_model(families.section3_pair()[1]),
}


def main(names: list[str]) -> int:
    bad = 0
    for name in names or list(pins.BETTI):
        t0 = time.perf_counter()
        got = oracle_betti(ALGEBRAS[name]())
        ok = got == pins.BETTI[name]
        bad += not ok
        print(f"{name}: {'ok' if ok else f'MISMATCH oracle {got}'} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
