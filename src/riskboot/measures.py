"""Tail risk measures computed from the empirical loss distribution.

Everything here operates on a LossSample: an ascending-sorted array where a
positive value is an actual loss and a negative value is a profit. A long
position loses when returns fall and a short position loses when they rise;
to_losses applies that sign convention.

No distribution is fitted. Value at risk is a loss quantile, expected
shortfall averages the worst tail beyond it, and the spectral measure is a
weighted average of every ordered loss with weights that rise in the loss
rank. The exponential weighting family is supplied; its steepness parameter
(the coefficient of absolute risk aversion) controls how hard the weights
lean on the far tail.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ingest import ReturnSeries

# Rank guard: keeps ceil() from jumping a whole rank when alpha * n lands a
# few ulps above an integer.
_RANK_FUZZ = 1e-9

# Below this the exponential weights are flat to machine precision.
_MIN_RISK_AVERSION = 1e-8


class Position(Enum):
    LONG = "long"
    SHORT = "short"


class QuantileMethod(Enum):
    ORDER_STATISTIC = "order"
    LINEAR_INTERPOLATION = "interp"


class Measure(Enum):
    VAR = "var"
    ES = "es"
    SRM = "srm"


# ----------------------------------------------------------------------
# loss samples
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LossSample:
    """Ascending-sorted losses for one instrument and position.

    Construction sorts the values and rejects a position that is not a
    Position and values that are not one-dimensional, empty or finite, so
    every LossSample in circulation is safe to index by rank.
    """

    values: np.ndarray
    position: Position = Position.LONG
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.position, Position):
            raise ValueError(f"unknown position {self.position!r}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"loss sample must be one-dimensional, got shape {values.shape}")
        values = np.sort(values)
        if values.size == 0:
            raise ValueError("loss sample is empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("loss sample contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


def to_losses(series: ReturnSeries, position: Position) -> LossSample:
    """Map a return series to losses for the given position.

    A long position loses when the return is negative, so losses are the
    negated returns; a short position loses when the return is positive, so
    losses are the returns unchanged. Either way the output is positive for
    an actual loss and negative for a profit.
    """
    r = np.asarray(series.returns, dtype=float)
    losses = -r if position is Position.LONG else r
    return LossSample(values=losses, position=position, label=series.label)


# ----------------------------------------------------------------------
# quantile and tail estimators
# ----------------------------------------------------------------------

def _check_integer(value, name):
    """value as a Python int; a ValueError names what is not an integer,
    a bool included."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_alpha(alpha, noun="confidence level") -> float:
    """The level alpha as a float; ValueError, naming it by noun, unless it
    lies strictly between 0 and 1. Both bools lie outside."""
    try:
        ok = math.isfinite(alpha) and 0.0 < alpha < 1.0
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{noun} must lie strictly between 0 and 1, got {alpha!r}")
    return float(alpha)


def _check_real(value, name, above=None) -> float:
    """value as a float; a ValueError names it unless it is a finite real
    number, not a bool, and, when above is given, greater than above."""
    try:
        ok = (not isinstance(value, bool) and math.isfinite(value)
              and (above is None or value > above))
    except (TypeError, OverflowError):  # an int past the float range overflows
        ok = False
    if not ok:
        rule = ("a finite number" if above is None else "a positive finite number" if above == 0
                else f"a finite number above {above:g}")
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def _order_stat_rank(alpha: float, n: int) -> int:
    """Smallest rank r with r >= alpha * n, clamped to 1..n."""
    r = math.ceil(alpha * n - _RANK_FUZZ)
    return min(max(r, 1), n)


def _tail_count(alpha: float, n: int) -> int:
    """Number of worst losses beyond the alpha quantile, always at least 1."""
    m = math.ceil((1.0 - alpha) * n - _RANK_FUZZ)
    return min(max(m, 1), n)


def _first_column(measure: Measure, arg, n: int,
                  method: QuantileMethod = QuantileMethod.ORDER_STATISTIC) -> int:
    """Lowest 0-based column of an ascending n-long row that _evaluate_sorted
    reads for measure at arg: the columns below it never matter."""
    if measure is Measure.ES:
        return n - _tail_count(arg, n)
    if measure is Measure.SRM:
        return 0
    if method is QuantileMethod.ORDER_STATISTIC:
        return _order_stat_rank(arg, n) - 1
    if method is QuantileMethod.LINEAR_INTERPOLATION:
        return math.floor(1.0 + arg * (n - 1)) - 1  # alpha < 1, so floor(h) <= n
    raise ValueError(f"unknown quantile method {method!r}")


def _evaluate_sorted(rows: np.ndarray, measure: Measure, arg,
                     method: QuantileMethod = QuantileMethod.ORDER_STATISTIC,
                     n: int | None = None, mirrored: bool = False) -> np.ndarray:
    """The one estimator: evaluate a measure on each row of a (rows, width)
    array of ascending losses. arg is the confidence level for VAR and ES,
    which give one value per row, and for SRM always a (K, n) stack of K
    length-n weight vectors in the order of the full rows' columns, which
    gives a (rows, K) array, one column per vector; method applies to VAR
    only.

    n is the length of the full sorted rows and defaults to width. A
    narrower array holds only their last width columns, which must cover
    _first_column of the measure. The public measures are its one-row
    case, spectral_risk_measure with a one-row stack.

    mirrored evaluates any of the measures on the mirror image of the
    rows, the losses of the opposite position: column j of the mirrored
    full rows is -rows[:, n - 1 - j], and the value is negated here, so a
    caller never negates one. A narrower array then holds the first width
    columns of the full rows, and an SRM stack holds the mirrored sample's
    weights reversed, so that it still follows the columns of rows. The
    bootstrap passes mirrored rows only whole: its tail path gathers each
    sample's own losses and reads them unmirrored. Narrow mirrored rows
    remain supported all the same."""
    n = rows.shape[1] if n is None else n
    first = _first_column(measure, arg, n, method)
    if mirrored:
        sign, c, step = -1.0, n - 1 - first, -1
        tail = rows[:, :c + 1]
    else:  # c is the column of rows that holds column first of the full rows
        sign, c, step = 1.0, first - n + rows.shape[1], 1
        tail = rows[:, c:]
    if measure is Measure.ES:
        return sign * tail.mean(axis=1)
    if measure is Measure.SRM:
        # einsum sums each row of a multi-row array in one fixed order, whatever
        # the row count; a BLAS matrix product does not. A lone row longer than
        # numpy's 8192-element buffer einsum sums in another order, so it reads
        # one as two stacked copies of itself and keeps the first sum. Each
        # vector of a stack gets the same sums as a one-row stack of it.
        both = np.broadcast_to(rows, (2, rows.shape[1])) if rows.shape[0] == 1 else rows
        return sign * np.einsum("ij,kj->ik", both, arg)[:rows.shape[0]]
    lo = sign * rows[:, c]
    if method is QuantileMethod.ORDER_STATISTIC or first == n - 1:
        return lo
    h = 1.0 + arg * (n - 1)  # fractional rank, 1-indexed; its floor is first + 1
    return lo + (h - (first + 1)) * (sign * rows[:, c + step] - lo)


def _evaluate(sample: LossSample, measure: Measure, arg,
              method: QuantileMethod = QuantileMethod.ORDER_STATISTIC) -> float:
    return _evaluate_sorted(sample.values[None, :], measure, arg, method).item()


def value_at_risk(sample: LossSample, alpha: float,
                  method: QuantileMethod = QuantileMethod.ORDER_STATISTIC) -> float:
    """Value at risk: the loss quantile at confidence level alpha, the loss
    exceeded with probability at most 1 - alpha.

    Parameters:
    - sample: the loss sample.
    - alpha: confidence level, strictly between 0 and 1.
    - method: ORDER_STATISTIC returns the ceil(alpha * n)-th smallest loss;
      LINEAR_INTERPOLATION interpolates between the two order statistics
      around the fractional rank 1 + alpha * (n - 1).
    """
    _check_alpha(alpha)
    return _evaluate(sample, Measure.VAR, alpha, method)


def expected_shortfall(sample: LossSample, alpha: float) -> float:
    """Average of the worst ceil((1 - alpha) * n) losses.

    At least one observation is always averaged, so the measure degenerates
    to the sample maximum when (1 - alpha) * n falls below 1. Never smaller
    than value_at_risk at the same level.
    """
    _check_alpha(alpha)
    return _evaluate(sample, Measure.ES, alpha)


# ----------------------------------------------------------------------
# spectral weighting
# ----------------------------------------------------------------------

def _check_aversion(k) -> float:
    """The risk aversion k as a float; ValueError unless the weights are
    defined and not numerically flat at k."""
    k = _check_real(k, "risk aversion", above=0.0)
    if k < _MIN_RISK_AVERSION:
        raise ValueError(
            f"risk aversion {k!r} is below {_MIN_RISK_AVERSION:g}; the weights are "
            "numerically flat there and the measure collapses to the plain mean of "
            "losses, which should be used directly instead")
    return k


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each element. numpy picks its exp code by the CPU's
    instruction set at run time, and the last bits of its results differ
    between them; the platform libm's do not depend on the CPU."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _weight_density(p, k: float) -> np.ndarray:
    """The exponential profile phi(p) = k e^(-k(1-p)) / (1 - e^(-k)) at
    quantile levels p in [0, 1]."""
    k = _check_aversion(k)
    return k * _exp(-k * (1.0 - np.asarray(p, dtype=float))) / -math.expm1(-k)


def spectral_weights(n: int, k: float) -> np.ndarray:
    """Discrete spectral weights for a sample of n losses at risk aversion k:
    the mass of each of the n equal probability cells, in ascending rank.

    The exponential profile phi(p) = k e^(-k(1-p)) / (1 - e^(-k)) is a
    density over quantile levels p in [0, 1] describing how much a
    risk-averse holder cares about each loss quantile. It is nonnegative,
    integrates to one and never decreases in p, so worse outcomes always
    receive at least as much weight; those three properties are what make
    the resulting measure coherent. The steepness k sets the tilt toward
    the far tail: phi(1) / phi(0) = e^k.

    Weight i is the exact integral of phi over ((i-1)/n, i/n], so the
    weights inherit nonnegativity and monotonicity from phi and sum to one
    by telescoping.
    """
    k = _check_aversion(k)
    if _check_integer(n, "cell count") < 1:
        raise ValueError(f"need at least one cell, got {n}")
    i = np.arange(1, n + 1, dtype=float)
    return _exp(-k * (1.0 - i / n)) * (math.expm1(-k / n) / math.expm1(-k))


def spectral_risk_measure(sample: LossSample, aversion: float) -> float:
    """Weighted average of the ordered losses under the exponential
    profile with risk aversion k = aversion.

    Rising weights keep the value between the sample mean and the sample
    maximum; it approaches the mean as k -> 0 and the maximum as k -> inf.
    """
    return _evaluate(sample, Measure.SRM, spectral_weights(sample.n, aversion)[None, :])
