"""Tools to construct, reduce and certify gate set tomography experiment designs."""

from .model import (  # noqa: F401
    Circuit,
    GateSet,
    GateSetError,
    apply_gauge_transform,
    circuit_probabilities,
    from_vector,
    gauge_tangent,
    n_params,
    non_gauge_count,
    probability_hessian,
    probability_jacobian,
    to_vector,
)

__version__ = "0.1.0"
