"""Quantum maps on the discretized torus: Loschmidt echo, purity decay and
decay-rate extraction under phase-space decoherence channels."""

from .hilbert import (
    SpaceDescriptor,
    make_space,
    coherent_state,
)
from .dynamics import (
    Curve,
    MapParams,
    Propagator,
    lyapunov_closed_form,
    build_propagator,
)
from .echo import averaged_le
from .decoherence import (
    build_kernel,
    gaussian_kernel,
    depolarizing_kernel,
    lorentz_kernel,
    mixture_kernel,
    chord_multiplier,
    purity_curve,
)
from .analysis import (
    RateFit,
    SweepRow,
    FitError,
    fit_decay_rate,
    gdm_rate_prediction,
    dc_rate_prediction,
    sweep_echo,
    sweep_purity,
)

__version__ = "0.1.0"

__all__ = [
    "SpaceDescriptor", "make_space", "coherent_state",
    "Curve", "MapParams", "Propagator", "lyapunov_closed_form", "build_propagator",
    "averaged_le", "build_kernel",
    "gaussian_kernel", "depolarizing_kernel", "lorentz_kernel",
    "mixture_kernel", "chord_multiplier", "purity_curve",
    "RateFit", "SweepRow", "FitError", "fit_decay_rate",
    "gdm_rate_prediction", "dc_rate_prediction", "sweep_echo", "sweep_purity",
    "__version__",
]
