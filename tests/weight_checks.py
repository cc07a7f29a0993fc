"""Coherence check of a discrete spectral weight vector.

The package builds its weights from one closed form and never takes a
caller's weights, so only the tests check a weight vector's coherence,
and the check lives here rather than in the package.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightingReport:
    """Coherence check of a discrete weight vector.

    first_violation is the 1-based rank of the earliest cell breaking
    either nonnegativity or monotonicity, or None if both hold.
    """

    nonnegative: bool
    sums_to_one: bool
    nondecreasing: bool
    total_mass: float
    first_violation: int | None

    @property
    def coherent(self) -> bool:
        return self.nonnegative and self.sums_to_one and self.nondecreasing


def validate_weighting(weights, tol: float = 1e-12) -> WeightingReport:
    """Check the three coherence conditions on a discrete weight vector:
    no negative weight, total mass 1 within tol, and no decrease in rank.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("weight vector is empty")
    negative = np.flatnonzero(w < 0.0)
    decreasing = np.flatnonzero(np.diff(w) < 0.0)
    total = float(w.sum())
    violations = []
    if negative.size:
        violations.append(int(negative[0]) + 1)
    if decreasing.size:
        violations.append(int(decreasing[0]) + 2)  # rank of the offending later cell
    return WeightingReport(
        nonnegative=negative.size == 0,
        sums_to_one=abs(total - 1.0) <= tol,
        nondecreasing=decreasing.size == 0,
        total_mass=total,
        first_violation=min(violations) if violations else None)
