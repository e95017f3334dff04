"""Day-ahead scheduling and local-trading settlement for home energy
communities: a pooled MILP scheduler, selfish baselines, mid-market-rate
settlement, and an independent feasibility checker."""

from .domain import (
    CommunityConfig,
    ConfigError,
    EssParams,
    HomeConfig,
    HvacParams,
    InvalidConfigError,
    ParseError,
    PvParams,
    SchemaError,
    ValidationReport,
    archetype_counts,
    config_to_dict,
    config_to_json,
    generate_synthetic_community,
    load_community_config,
    replication_config,
    validate_config,
)
from .milp import (
    HomeModelBatch,
    MilpModel,
    big_m_value,
    build_home_model,
    build_system_centric_model,
    write_lp,
)
from .scenarios import (
    SCENARIO_KINDS,
    BenchReport,
    ComparisonReport,
    InfeasibleHomeError,
    ScenarioResult,
    bench_scaling,
    compare,
    run_scenario,
    run_scenarios,
)
from .solve import (
    CommunitySchedule,
    FeasibilityReport,
    LpSession,
    Solution,
    SolverError,
    SolverOptions,
    check_schedule_feasibility,
    extract_schedule,
    solve_model,
)
from .thermal import pv_output_energy, simulate_indoor_trajectory
from .trading import (
    SettlementReport,
    SlotSettlement,
    community_cost,
    mid_price,
    mid_price_series,
    settle_day,
    settle_day_at_external_prices,
)

__version__ = "0.1.0"
