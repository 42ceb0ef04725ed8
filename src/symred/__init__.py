"""Symmetry reduction toolkit: transversality, defect and kernel analysis."""

from .expr import (
    Builtin,
    Constant,
    Expression,
    ExpressionError,
    FunctionApp,
    FunctionSymbol,
    ImaginaryUnit,
    Power,
    Product,
    Rational,
    Sum,
    SymredError,
    Variable,
    differentiate,
    free_variables,
    function_symbols,
    normalize,
    substitute,
    to_text,
)
from .parser import ParseError, jet_name, parse_expression, split_jet_name
from .numeric import (
    Binding,
    EvaluationError,
    PointRejected,
    bessel_i,
    evaluate,
    instantiate_functions,
    substitute_functions,
)
from .sampling import SamplePlan, SamplingError, numeric_equiv
from .jets import (
    CandidateSolution,
    JetError,
    JetPoint,
    VariableSpace,
    key_of_variable,
    make_space,
    sample_points,
    substitute_candidate,
    total_derivative,
)
from .fields import (
    Algebra,
    ClosureReport,
    ExpressionMatrix,
    FieldError,
    VectorField,
    apply_prolonged,
    characteristic_matrix,
    closure_check,
    lie_bracket,
    prolong,
    xi_matrices,
)
from .analysis import (
    AnalysisError,
    DefectReport,
    KernelReport,
    RankReport,
    TransversalityReport,
    classify_transversality,
    constant_kernel_generators,
    defect,
    generic_rank,
    invariance_check,
    symmetry_check,
    weak_check_candidate,
    weak_minors,
)
from .models import (
    MODEL_IDS,
    ModelError,
    builtin,
    derived_constraint_check,
    discrepancy_report,
    draw_params,
    reduced_ode_check,
    residual,
    resolve_candidate,
    vnls_residual,
)
from .dsl import DslError, Workspace, load_workspace, parse_workspace, workspace_to_text

__version__ = "0.1.0"
