"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [sweep|rad-power|leafy-queries ...]

The references hold the outputs of the commit that defined the benchmark:
the sweep CSV (one row per algebra), the `verify` dict of each rad^(n+1)
algebra, and a digest of the command outputs of each leafy-queries algebra.
The outputs of `nakayama` must not change, so a later commit that
re-records them hides exactly the regressions they are there to catch.
"""

from __future__ import annotations

import gzip
import json
import sys

import workloads as wl

SWEEP_N_MAX, SWEEP_C_MAX = 6, 7
RAD_SIZES = range(2, 11)
LEAFY_SIZES, LEAFY_C_MAX = range(3, 11), 3


def record_sweep(nk) -> None:
    config = nk.harness.SweepConfig(n_min=2, n_max=SWEEP_N_MAX, c_max=SWEEP_C_MAX)
    (wl.REFERENCE_DIR / "sweep.csv").write_text(nk.harness.to_csv(nk.harness.sweep(config)))


def record_rad_power(nk) -> None:
    verdicts = {
        str(n): nk.harness.verify(nk.algebra.radical_power_algebra(n, n + 1)).to_dict()
        for n in RAD_SIZES
    }
    (wl.REFERENCE_DIR / "rad-power.json").write_text(json.dumps(verdicts, sort_keys=True) + "\n")


def record_leafy(nk) -> None:
    lines = [
        f"{' '.join(map(str, c))}\t{wl.digest(wl.query_bundle(nk, c))}\n"
        for n in LEAFY_SIZES
        for c in wl.kupisch_series(n, LEAFY_C_MAX)
        if wl.is_linear_or_product(c)
    ]
    with gzip.GzipFile(wl.REFERENCE_DIR / "leafy-queries.tsv.gz", "wb", mtime=0) as fh:
        fh.write("".join(lines).encode())


RECORDERS = {"sweep": record_sweep, "rad-power": record_rad_power, "leafy-queries": record_leafy}

if __name__ == "__main__":
    nk = wl.import_package()
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or RECORDERS:
        RECORDERS[name](nk)
