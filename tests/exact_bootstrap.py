"""The exact bootstrap law (B = infinity) of an order statistic.

Under the ordinary bootstrap of n ascending values x_(1) <= ... <= x_(n),
the r-th smallest of a resample is at most x_(j) exactly when at least r
of its n draws land among the j smallest values, so

    P(X*_(r) <= x_(j)) = P(Binomial(n, j/n) >= r)

(Maritz & Jarrett 1978; Hutson & Ernst 2000, "The exact bootstrap mean
and variance of an L-estimator", JRSS B 62), ties included. Summing the
tail of the law over the gaps between the values gives

    E*[X*_(r)] = x_(n) - sum over j < n of P(Bin(n, j/n) >= r) (x_(j+1) - x_(j)).

VaR reads one order statistic (two with interpolation) and ES averages
the top ones, each linearly, so a cell's exact bootstrap mean is its
estimator evaluated on the vector of these means. An order-statistic VaR
cell is X*_(r) itself, so the law gives its exact spread as well. The
cost is O(n^2), and only the tests use it: it is an oracle that does not
depend on any random draw.
"""

import math

import numpy as np


def _survival(n) -> np.ndarray:
    """P(Bin(n, j/n) >= r) in row j - 1 and column r, for j < n and r <= n."""
    k = np.arange(n + 1)
    log_factorial = np.array([math.lgamma(i + 1.0) for i in k])
    p = np.arange(1, n)[:, None] / n  # row j - 1 holds P(Bin(n, j/n) = k) for every k
    log_pmf = (log_factorial[n] - log_factorial - log_factorial[::-1]
               + k * np.log(p) + (n - k) * np.log1p(-p))
    return np.cumsum(np.exp(log_pmf)[:, ::-1], axis=1)[:, ::-1]


def exact_order_means(values) -> np.ndarray:
    """E*[X*_(r)] for r = 1..n, ascending, for the ascending values."""
    x = np.asarray(values, dtype=float)
    return x[-1] - np.diff(x) @ _survival(x.size)[:, 1:]


def exact_order_law(n, r) -> np.ndarray:
    """P(X*_(r) = x_(j)) for j = 1..n, the law of the r-th smallest of a
    resample over the n ascending values (tied values share their mass)."""
    return np.diff(np.append(_survival(n)[:, r], 1.0), prepend=0.0)
