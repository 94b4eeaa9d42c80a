"""Compare tinypeft's erf with scipy.special.erf on every f32 bit pattern.

    PYTHONPATH=src python scripts/check_erf.py

All 2^32 inputs, 2^22 at a time; nan matches nan, otherwise the bit
patterns must be equal (so -0.0 differs from 0.0). Prints the number of
differing inputs and exits 1 if there are any. Takes a few minutes on one
core and about 200 MB of memory. tests/test_tensor.py checks a sample of
these inputs on every test run.
"""

import sys

import numpy as np
from scipy.special import erf

from tinypeft.tensor import _erf

CHUNK = 2**22


def main() -> int:
    bad = 0
    for start in range(0, 2**32, CHUNK):
        u = np.arange(start, start + CHUNK, dtype=np.uint64).astype(np.uint32).view(np.float32)
        with np.errstate(all="ignore"):
            got, want = _erf(u), erf(u)
        same = (got.view(np.uint32) == want.view(np.uint32)) | (np.isnan(got) & np.isnan(want))
        if not same.all():
            first = u[np.flatnonzero(~same)[0]]
            print(f"differ from {first!r}: {int((~same).sum())} inputs", flush=True)
            bad += int((~same).sum())
    print(f"{bad} of 2^32 inputs differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
