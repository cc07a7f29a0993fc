"""A fixed reference job whose wall time measures the host's current speed.

Usage:

    python3 bench/reference.py THREADS

The benchmark runs this between repetitions of `riskboot estimate` and
reports the estimate's times scaled by how long this job took at the
same moment; see REF_S in run.py. It imports numpy and scipy but never
riskboot, so no change to the program under test can change its work.
Its work resembles the program's: interpreter start and the same heavy
imports, resample-and-sort on a 3392-long series in THREADS threads
(each thread does the same fixed work, so its wall time does not depend
on THREADS on a host with that many CPUs), one large allocation touched
once, and parsing 50 000 CSV lines in Python.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.stats  # noqa: F401  (start-up cost, as riskboot pays it)

SERIES = 3392
ROWS = 250           # resamples sorted per round
ROUNDS = 12
TOUCHED = 32_000_000  # float64 values: 256 MB
LINES = 50_000


def resample_and_sort(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(4, SERIES)
    total = 0.0
    for _ in range(ROUNDS):
        idx = rng.integers(0, SERIES, (ROWS, SERIES))
        total += float(np.sort(x[idx], axis=1)[:, SERIES // 100].sum())
    return total


def main(threads):
    with ThreadPoolExecutor(threads) as pool:
        total = sum(pool.map(resample_and_sort, range(threads)))
    big = np.ones(TOUCHED)
    total += float(big[::4096].sum())
    del big
    values = np.random.default_rng(threads).random(LINES).tolist()
    text = "".join(f"2000-01-01,{v!r}\n" for v in values)
    total += sum(float(line.split(",")[1]) for line in text.splitlines())
    print(total)


if __name__ == "__main__":
    main(int(sys.argv[1]))
