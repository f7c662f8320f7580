"""polynet: polynomial views of small feedforward networks.

Networks whose activations are polynomials expand into explicit
multivariate polynomials; conversely, weights realizing a target
polynomial (or dataset) can be synthesized by solving the coefficient
matching equations.  funcapprox builds polynomial stand-ins for the usual
activations so the same machinery covers them approximately.
"""

from .errors import (
    ConfigurationError,
    DimensionError,
    Error,
    NumericError,
    ParseError,
    StructuralError,
    UsageError,
)
from .funcapprox import (
    ApproxError,
    FourierSeries,
    SampledFunction,
    UniPoly,
    approx_error,
    builtin,
    fourier_fit,
    fourier_to_poly,
    lsq_poly_fit,
    trig_term_budget,
    unipoly_from_text,
    unipoly_to_text,
)
from .multipoly import (
    MultiPoly,
    poly_eval,
    poly_from_text,
    poly_to_text,
    truncate_degree,
)
from .network import (
    Dataset,
    Identity,
    LayerSpec,
    MonomialPower,
    NetworkSpec,
    PolyActivation,
    classify,
    dataset_from_csv,
    dataset_to_csv,
    expand_network,
    expansion_degree,
    forward,
    load_dataset,
    load_network,
    network_from_json,
    network_to_json,
    save_dataset,
    save_network,
)
from .synthesis import (
    ResidualSystem,
    SolveReport,
    build_coefficient_system,
    build_data_system,
    class_target_poly,
    compress_network,
    network_weights,
    residual_jacobian,
    solve_system,
    with_weights,
)

__version__ = "0.1.0"
