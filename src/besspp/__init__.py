"""Design and evaluation toolkit for second-use battery energy storage.

Retired EV battery modules come back with scattered residual capacities.
This package models that supply, sizes partial power processing converter
networks around it (dedicated, adjacent-ladder, and sparse hierarchical
layouts), and evaluates the resulting storage units in a stochastic EV
charging plaza simulation.
"""

from besspp.supply import (
    BatteryModule,
    ExpectedSet,
    SupplyDistribution,
    flatten_distribution,
    sample_pack,
    usable_energy,
)
from besspp.flows import (
    ConverterEdge,
    FlowNetwork,
    FlowSolution,
    InfeasibleFlowError,
    fpp_deliverable,
    max_deliverable_energy,
    min_peak_flow,
)
from besspp.architectures import (
    ArchitectureConfig,
    ArchitectureKind,
    BudgetSplit,
    assemble_network,
    split_budget,
    split_lambda,
    validate_network,
)
from besspp.designer import (
    Layer1Design,
    TradeoffPoint,
    design_layer1,
    design_layer2,
    enumerate_placements,
    tradeoff_curve,
)
from besspp.plaza import (
    ArrivalModel,
    BessMonolith,
    ChargeCycle,
    CurtailmentStats,
    DayTrajectory,
    DemandModel,
    GridProfile,
    curtailed_minutes_per_ev,
    simulate_day,
)
from besspp.metrics import (
    MetricReport,
    captured_value,
    derating_factor,
    grid_ev_energy_gap,
    system_efficiency,
)

__version__ = "0.1.0"

from besspp.scenario import (  # noqa: E402 - depends on the names above
    PlazaSettings,
    Scenario,
    ScenarioError,
    default_scenario,
    load_scenario,
)
from besspp.studies import (  # noqa: E402
    StudyResult,
    run_day,
    run_design,
    run_ensemble,
    run_tradeoff,
    scenario_fingerprint,
    validate_scenario,
)
