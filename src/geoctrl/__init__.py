"""Global controllability analysis for affine control systems.

The package decides, for systems dx/dt = f(x) + sum_i u^i g_i(x) on a
rectangular window, whether the system is globally controllable there.
It combines a symbolic Lie-algebra layer, numerical transport of drift
vectors along control-direction flows, convex-position tests in the
quotient of the state space by the control distribution, and an
independent Monte-Carlo reachability oracle used for cross-validation.
"""

from .expr import (
    Expr,
    Const,
    Var,
    Unary,
    Binary,
    ParseError,
    ExprSyntaxError,
    UnknownIdentifierError,
    ArityError,
    EvalDomainError,
    parse_expression,
    evaluate,
    differentiate,
    simplify,
    to_string,
)
from .fields import VectorField, Point, jacobian, lie_bracket
from .system import SystemSpec, SpecFileError, load_spec, serialize_spec
from .lie import (
    BracketFamily,
    RegularityReport,
    NotRegularError,
    generate_bracket_basis,
    rank_at,
    audit_regularity,
    codimension,
)
from .flows import (
    StepControl,
    Segment,
    LeafSample,
    FlowError,
    WindowEscapeError,
    StepUnderflowError,
    integrate_flow,
    pushforward_along,
    sample_leaf,
    sample_leaves,
    transport_walks,
)
from .criterion import (
    PointVerdict,
    GlobalVerdict,
    SupportReport,
    criterion_value,
    sign_change_on_leaf,
    quotient_projection,
    interior_convex_test,
    check_condition,
    switched_condition,
    global_verdict,
    verify_supporting_distribution,
)
from .reach import (
    ReachCloud,
    simulate_reach,
    coverage,
    monotone_witness_check,
    cross_validate,
    export_csv,
)
from .metrics import (
    CostEstimate,
    estimate_cost,
    sr_distance,
    steering_costs,
    loop_length,
    loop_lengths,
)

__version__ = "0.1.0"

from .report import Report, run_pipeline  # noqa: E402  (needs __version__)
