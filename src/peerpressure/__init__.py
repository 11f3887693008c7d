"""Best-response cooperation dynamics under social pressure on networks.

A simulator for synchronous cost-minimising behaviour revision with three
public behaviours (defector, hypocrite, cooperator) and an extended model
that splits contributing from punishing, together with the verification
machinery that ties simulated runs back to the model's provable
convergence guarantees.
"""

from .graphs import (
    GenerationError,
    GraphMetrics,
    Network,
    bfs_distances,
    build_torus_grid,
    compute_metrics,
    read_edge_list,
    sample_random_regular,
    write_edge_list,
)
from .model import (
    BINARY_BEHAVIORS,
    Behavior,
    ConditionStatus,
    MAIN_BEHAVIORS,
    MainParams,
    TIE_PRIORITY,
    TWO_ORDER_BEHAVIORS,
    TwoOrderConditionStatus,
    TwoOrderParams,
    classify_main_conditions,
    classify_two_order_conditions,
    cost_main,
    cost_two_order,
    map_configuration,
    map_two_order_params,
    params_from_dict,
    sample_initial_binary,
    sample_initial_main,
    sample_initial_two_order,
)
from .dynamics import (
    DecisionTable,
    RuleKind,
    Termination,
    Trace,
    UpdateRule,
    decision_table,
    format_trace_csv,
    punishing_counts,
    run,
    step,
    write_trace_csv,
)
from .analysis import (
    BoundAudit,
    CheckRefused,
    PresetDraws,
    audit_convergence_bound,
    check_contagion,
    check_reduction_equivalence,
    convergence_round,
    neighborhood,
    reference_step,
)
from .experiments import (
    NetworkSpec,
    PhaseDiagram,
    SweepSpec,
    derived_seed,
    format_sweep_csv,
    render_ppm,
    run_sweep,
    run_time_evolution,
    write_ppm,
    write_sweep_csv,
)

__version__ = "0.1.0"
