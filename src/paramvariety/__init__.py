"""paramvariety: input-output equations and parameter varieties of
polynomial state-space models via Groebner-basis elimination.

Given a model definition and measured (or model-generated pseudo-) output
jets, the toolkit derives the model's input-output equation, solves for its
coefficient values, emits the polynomial constraints cutting out every
data-consistent parameter, and runs the extension check certifying that no
spurious parameters remain.

The exact half (input-output equation, Groebner basis, extension check) is
pure Python, and each of its layers reads the jet ring off the polynomials
it is given. So is pseudo-data generation: the RK4 refinement on Python
floats, the exact push-forward jets, the central finite differences and the
exact coefficient solve. numpy serves only the float least-squares solve of
measured, closed-form or finite-difference jets and sampling, and is
imported on the first such call, so importing the package, running
``ioeq``, ``extend`` or ``pseudo``, or ``variety`` on generated
push-forward data, does not load it.
"""

from .algebra import (
    DiffVar,
    MonomialOrder,
    ParamPoly,
    ParamRat,
    Poly,
    poly_divide,
)
from .groebner import (
    GBLimits,
    buchberger,
    elimination_subset,
    reduce_basis,
    s_polynomial,
)
from .model import (
    ModelSpec,
    ProlongedSystem,
    load_model,
    parse_model,
    prolong,
)
from .ioeq import IOEquationBasis, derive_io_basis, normalize_io
from .datalab import (
    DataSet,
    JetSample,
    Trajectory,
    central_difference,
    exact_viral_solution,
    integrate_model,
    jet_at,
    make_dataset,
)
from .variety import (
    SolveResult,
    VarietyConstraints,
    build_linear_system,
    sample_variety,
    solve_coefficients,
    variety_constraints,
)
from .extension import (
    ExtensionReport,
    check_extension,
    extension_sets,
    run_extension_check,
)

__version__ = "0.1.0"
# the exact-arithmetic kernels are the pure-Python ones in algebra.py
KERNEL_BACKEND = "pure"
