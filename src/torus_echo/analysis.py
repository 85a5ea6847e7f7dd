"""Exponential decay-rate extraction and analytic rate predictions.

Curves M(t) or P(t) decay exponentially after a short transient and saturate
at a finite-size floor of order 1/N.  fit_decay_rate extracts the rate by a
least-squares line through -ln(value) over a window that skips an initial
transient and stops at the last sample above floor_factor * floor_hint.
"""

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .decoherence import LORENTZ_DEFAULT_IMAGE_CUTOFF, build_kernel, purity_curve
from .dynamics import MapParams, build_propagator
from .echo import averaged_le
from .hilbert import SpaceDescriptor, _check_integer, coherent_state
from .rng import substream

DEFAULT_TRANSIENT_SKIP = 2
DEFAULT_FLOOR_FACTOR = 3.0
MIN_WINDOW_POINTS = 4
RATE_MODELS = ("gdm", "dc")  # the models _prediction_for has a closed-form rate for


class FitError(ValueError):
    """Raised when a curve has too few usable points for a rate fit."""


@dataclass(frozen=True)
class RateFit:
    """Fitted decay rate per map step over the window [t1, t2]."""

    gamma: float
    stderr: float
    window: tuple
    n_points: int
    floor_estimate: float


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: control value, its fit (None on fit failure), the
    fitted curve's values, an analytic prediction when one applies, and the
    failure message."""

    control: float
    fit: Optional[RateFit]
    curve: np.ndarray = field(compare=False)
    prediction: Optional[float] = None
    error: Optional[str] = None


def fit_decay_rate(curve, floor_hint: float,
                   transient_skip: int = DEFAULT_TRANSIENT_SKIP,
                   floor_factor: float = DEFAULT_FLOOR_FACTOR) -> RateFit:
    """Least-squares slope of -ln(value) vs t over [transient_skip, t2],
    t2 being the last index with value > floor_factor * floor_hint.

    Accepts a Curve or a bare value sequence indexed by t.
    Requires at least four window samples; fewer raises FitError (remedy:
    increase N, or decrease epsilon / sigma so the curve decays slower).
    """
    v = np.asarray(getattr(curve, "values", curve), dtype=float)
    _check_integer("transient_skip", transient_skip, 0)
    threshold = floor_factor * floor_hint
    above = np.nonzero(v > threshold)[0]
    if len(above) == 0:
        raise FitError(f"no samples above the exclusion threshold {threshold:.3e}")
    t2 = int(above[-1])
    t1 = int(transient_skip)
    n = t2 - t1 + 1
    if n < MIN_WINDOW_POINTS:
        raise FitError(
            f"window [{t1}, {t2}] has {max(n, 0)} samples, need >= {MIN_WINDOW_POINTS} "
            "(increase N or decrease the perturbation/decoherence strength)"
        )
    window = v[t1:t2 + 1]
    if np.any(window <= 0.0):
        raise FitError("nonpositive curve values inside the fit window")
    t = np.arange(t1, t2 + 1, dtype=float)
    y = -np.log(window)
    t_c = t - t.mean()
    denom = np.einsum("i,i->", t_c, t_c)  # einsum's own loop: no BLAS call in a run
    slope = np.einsum("i,i->", t_c, y - y.mean()) / denom
    resid = y - (y.mean() + slope * t_c)
    dof = max(n - 2, 1)
    stderr = float(np.sqrt(np.einsum("i,i->", resid, resid) / dof / denom))
    tail = v[t2 + 1:]
    floor_estimate = float(tail.mean()) if tail.size else float("nan")
    return RateFit(gamma=float(slope), stderr=stderr, window=(t1, t2),
                   n_points=n, floor_estimate=floor_estimate)


def gdm_rate_prediction(epsilon: float, N: int) -> float:
    """Small-epsilon analytic purity rate for the Gaussian diffusion model:
    -ln(sum c^2) = -2*ln[(1 + 2*E^2) / (1 + 2*E)^2] ~ 8*E,
    with E = exp(-2*pi^2/(eps*N)^2) = exp(-1/(2*s^2)), s = eps*N/(2*pi).

    Derivation: once the map has spread the state over the chord plane, each
    step keeps the fraction sum_{q,p} c(q,p)^2 of its purity.  For s << 1 the
    Gaussian weights per axis are (1, E, E) on the offsets (0, +1, -1) up to
    O(E^4), so sum c^2 = [(1 + 2*E^2) / (1 + 2*E)^2]^2.  The source paper's
    Eq. (11), 4*(E + 4*E^2)/(1 + 4*E)^2, is half this rate at leading order.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    E = np.exp(-2.0 * np.pi**2 / (epsilon * N) ** 2)
    return float(2.0 * (2.0 * np.log1p(2.0 * E) - np.log1p(2.0 * E * E)))


def dc_rate_prediction(epsilon: float) -> float:
    """Purity decay rate of the depolarizing channel, 2*epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return 2.0 * epsilon


def _sweep_rows(space: SpaceDescriptor, controls: Sequence[float], curve_of, prediction_of,
                transient_skip: int, floor_factor: float) -> list:
    """One row per control, in input order: the curve, its fit against the
    1/N floor, and the prediction.  Fit failures are kept on the row."""
    rows = []
    for control in controls:
        values = curve_of(control).values
        try:
            fit, error = fit_decay_rate(values, 1.0 / space.N, transient_skip, floor_factor), None
        except FitError as err:
            fit, error = None, str(err)
        rows.append(SweepRow(control=float(control), fit=fit, curve=values,
                             prediction=prediction_of(control), error=error))
    return rows


def sweep_echo(space: SpaceDescriptor, params: MapParams,
               sigma_over_hbar_list: Sequence[float], t_max: int,
               n_states: int, seed: int,
               transient_skip: int = DEFAULT_TRANSIENT_SKIP,
               floor_factor: float = DEFAULT_FLOOR_FACTOR,
               workers: Optional[int] = None) -> list:
    """Echo decay rate versus rescaled perturbation strength.

    For each control value, evolves the (k, k + sigma) pair, averages over
    n_states coherent states on averaged_le's workers threads, and fits the
    decay rate.  Fit failures are recorded per row, not raised.
    """
    if any(c <= 0 for c in sigma_over_hbar_list):
        raise ValueError("all sigma_over_hbar controls must be > 0")
    return _sweep_rows(space, sigma_over_hbar_list,
                       lambda control: averaged_le(space, params, control, t_max, n_states, seed,
                                                   workers=workers),
                       lambda control: None, transient_skip, floor_factor)


def _prediction_for(model_tag: str, epsilon: float, N: int) -> Optional[float]:
    if model_tag == "gdm":
        return gdm_rate_prediction(epsilon, N)
    if model_tag == "dc":
        return dc_rate_prediction(epsilon)
    return None


def sweep_purity(space: SpaceDescriptor, params: MapParams, model_tag: str,
                 epsilon_list: Sequence[float], t_max: int, seed: int,
                 mixture_weight: float = 0.5,
                 image_cutoff: int = LORENTZ_DEFAULT_IMAGE_CUTOFF,
                 transient_skip: int = DEFAULT_TRANSIENT_SKIP,
                 floor_factor: float = DEFAULT_FLOOR_FACTOR) -> list:
    """Purity decay rate versus decoherence strength for one channel family.

    All rows evolve the same seeded coherent state (no ensemble averaging).
    The prediction column carries the analytic rate where one exists (GDM
    small-eps law, DC linear law).
    """
    if any(e <= 0 for e in epsilon_list):
        raise ValueError("all epsilon controls must be > 0")
    q0, p0 = substream(seed, 0).random(2)
    psi0 = coherent_state(space, q0, p0)
    prop = build_propagator(space, params)

    def curve_of(eps):
        kernel = build_kernel(space, model_tag, eps, mixture_weight, image_cutoff)
        return purity_curve(psi0, prop, kernel, t_max)

    return _sweep_rows(space, epsilon_list, curve_of,
                       lambda eps: _prediction_for(model_tag, eps, space.N),
                       transient_skip, floor_factor)

