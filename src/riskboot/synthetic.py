"""Synthetic return generators and closed-form oracles.

The generators exist so the estimators can be checked against known
distributions; everything is deterministic in the seed. The oracles give
reference values by independent routes: exact normal formulas for the
quantile and tail mean, from the standard library's statistics.NormalDist,
and direct numeric integration of the weighted quantile function for the
spectral measure. The integrand's weight density is the measures module's
_weight_density, whose libm exp gives the same bits on any CPU; the
integration shares no code with the discrete cell weights used by the
estimator, so the two routes can validate each other.

Each distribution parameter has one rule, in _FIELD_RULES, which the
families apply when they are built and the synth command applies to its
flags of the same names.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import NormalDist

import numpy as np

from .bootstrap import _check_seed
from .ingest import ReturnSeries
from .measures import _check_alpha, _check_aversion, _check_integer, _check_real, _weight_density

_START_DATE = np.datetime64("1991-01-01")
_MOST_N = (np.datetime64("9999-12-31") - _START_DATE).item().days + 1  # %Y has four digits

_STANDARD_NORMAL = NormalDist()
_standard_normal_ppf = np.vectorize(_STANDARD_NORMAL.inv_cdf, otypes=[float])


# ----------------------------------------------------------------------
# distribution families
# ----------------------------------------------------------------------

# The rule of each family field, by name: the field as a float, or a ValueError.
_FIELD_RULES = {
    "mu": lambda x: _check_real(x, "mu"),
    "shift": lambda x: _check_real(x, "shift"),
    "sigma": lambda x: _check_real(x, "sigma", above=0.0),
    "scale": lambda x: _check_real(x, "scale", above=0.0),
    "widen": lambda x: _check_real(x, "widen", above=0.0),
    "dof": lambda x: _check_real(x, "degrees of freedom", above=2.0),
    "weight": lambda x: _check_alpha(x, "mixture weight"),
}


class _Family:
    """Checks every field of a family dataclass by its rule and stores it
    as a float; a bool is not a number."""

    def __post_init__(self):
        for name in (field.name for field in fields(self)):
            object.__setattr__(self, name, _FIELD_RULES[name](getattr(self, name)))


@dataclass(frozen=True)
class Normal(_Family):
    """Normal with mean mu and standard deviation sigma."""

    mu: float = 0.0
    sigma: float = 1.0

    def draw(self, rng, n):
        return rng.normal(self.mu, self.sigma, n)

    def tag(self):
        return f"normal(mu={self.mu:g};sigma={self.sigma:g})"


@dataclass(frozen=True)
class StudentT(_Family):
    """Student-t scaled by a constant. dof > 2 keeps the variance finite."""

    dof: float
    scale: float = 1.0

    def draw(self, rng, n):
        return self.scale * rng.standard_t(self.dof, n)

    def tag(self):
        return f"t(dof={self.dof:g};scale={self.scale:g})"


@dataclass(frozen=True)
class SkewedMix(_Family):
    """Normal core contaminated by an occasional shifted, widened component.

    With probability weight the draw comes from
    Normal(mu + shift * sigma, widen * sigma) instead of Normal(mu, sigma).
    The default shift is negative, giving the crash-like left skew typical
    of daily futures returns.
    """

    mu: float = 0.0
    sigma: float = 1.0
    weight: float = 0.1
    shift: float = -3.0
    widen: float = 3.0

    def draw(self, rng, n):
        hit = rng.random(n) < self.weight
        core = rng.normal(self.mu, self.sigma, n)
        tail = rng.normal(self.mu + self.shift * self.sigma, self.widen * self.sigma, n)
        return np.where(hit, tail, core)

    def tag(self):
        return f"skewmix(w={self.weight:g};shift={self.shift:g};widen={self.widen:g})"


@dataclass(frozen=True)
class SyntheticSpec:
    """One synthetic return series: its family, length, seed and label."""

    family: Normal | StudentT | SkewedMix
    n: int
    seed: int
    label: str = ""

    def __post_init__(self):
        _check_n(self.n)
        _check_seed(self.seed)


def _check_n(n):
    if not 1 <= _check_integer(n, "n") <= _MOST_N:
        raise ValueError(f"need n >= 1, got {n}" if n < 1 else
                         f"need n <= {_MOST_N}, the days from 1991-01-01 to 9999-12-31, got {n}")


def generate(spec: SyntheticSpec) -> ReturnSeries:
    """Draw a return series; the same spec always yields the same series.

    Dates are synthetic consecutive calendar days from 1991-01-01, so the
    output plugs into the same pipeline as a loaded file; SyntheticSpec
    keeps them before year 10000, which strptime's %Y could not read back.
    """
    rng = np.random.default_rng(int(spec.seed))
    values = spec.family.draw(rng, spec.n)
    dates = _START_DATE + np.arange(spec.n)
    return ReturnSeries(label=spec.label or spec.family.tag(), dates=dates, returns=values)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def normal_quantile(p):
    """Quantile function of the standard normal; accepts scalars or arrays."""
    return _standard_normal_ppf(p)[()]  # a scalar for a scalar, not a 0-d array


def normal_var_oracle(alpha: float) -> float:
    """Exact alpha-quantile of a standard normal loss distribution."""
    return _STANDARD_NORMAL.inv_cdf(_check_alpha(alpha))


def normal_es_oracle(alpha: float) -> float:
    """Exact mean of a standard normal loss beyond its alpha-quantile."""
    alpha = _check_alpha(alpha)
    return _STANDARD_NORMAL.pdf(_STANDARD_NORMAL.inv_cdf(alpha)) / (1.0 - alpha)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# Edges span twelve decades of distance from each open endpoint; panels
# beyond that add nothing at double precision.
_EDGE_DECADES = 1e-12

# srm_quadrature_oracle's starting panel count, tolerances and most doublings
_PANELS = 200
_REL_TOL, _ABS_TOL = 1e-9, 1e-12
_MAX_DOUBLINGS = 8


def _panel_edges(p_min: float, m: int) -> np.ndarray:
    """m quadrature panels over (p_min, 1), clustered toward the endpoints.

    The upper half always clusters geometrically toward 1, where the weight
    density peaks and unbounded quantile functions diverge. When p_min is 0
    the lower half mirrors that toward 0 for the symmetric divergence;
    otherwise the weight density is negligible near p_min and uniform
    panels suffice.
    """
    u0 = 1.0 - p_min
    h = m // 2
    ratio = _EDGE_DECADES ** (1.0 / (h - 1))
    upper_gap = u0 / 2 * ratio ** np.arange(h)
    upper = np.concatenate([1.0 - upper_gap, [1.0]])
    if p_min == 0.0:
        lower = np.concatenate([[0.0], (u0 / 2 * ratio ** np.arange(h))[::-1]])
    else:
        lower = np.linspace(p_min, 1.0 - u0 / 2, h + 1)
    # lower ends exactly where upper begins; keep one copy of that edge
    return np.concatenate([lower[:-1], upper])


def _composite_gl(quantile_fn, k: float, edges: np.ndarray) -> float:
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    p = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    f = np.asarray(quantile_fn(p.ravel()), dtype=float).reshape(p.shape) * _weight_density(p, k)
    return float(((f @ _GL_WEIGHTS) * half).sum())


def srm_quadrature_oracle(quantile_fn, k: float) -> float:
    """Spectral measure by direct numeric integration of quantile * weight.

    Parameters:
    - quantile_fn: quantile function of the loss distribution; must accept a
      numpy array of probabilities strictly inside (0, 1).
    - k: risk-aversion coefficient of the exponential weighting; a
      ValueError rejects the same k that spectral_weights rejects.

    The integrand below p_min = 1 - 36.9 / k is dropped: there the weight
    density is under 1e-16 of its peak and contributes nothing at double
    precision. The rest is integrated by a composite 16-node Gauss-Legendre
    rule on 200 panels, doubled until two successive values agree within
    max(1e-9 * |value|, 1e-12), at most 8 times; if they never do an
    ArithmeticError reports the last value. Intended for smooth quantile
    functions, where the practical accuracy is far better than 1e-6
    relative.
    """
    k = _check_aversion(k)
    p_min = max(0.0, 1.0 - 36.9 / k)
    m = _PANELS
    previous = None
    for _ in range(_MAX_DOUBLINGS + 1):
        value = _composite_gl(quantile_fn, k, _panel_edges(p_min, m))
        if previous is not None and abs(value - previous) <= max(_REL_TOL * abs(value), _ABS_TOL):
            return value
        previous = value
        m *= 2
    raise ArithmeticError(
        f"quadrature did not settle after refining to {m // 2} panels; "
        f"value still moving near {previous!r}")
