"""Arc-consistency toolkit for simple temporal networks.

Exact interval algebra, the network models and their text formats, a
centralized worklist solver with a shortest-path oracle, a deterministic
multi-agent runtime running the distributed protocol, workload generators,
and a benchmarking CLI.
"""

from .bench import CSV_COLUMNS, RunMetrics, parse_bench_config, run_bench
from .distributed import DistributedRun, SimConfig, SolverAgent, solve_distributed
from .errors import (
    BoundOverflowError,
    DeadlockError,
    FormatError,
    GenerationError,
    ProtocolError,
    RunawayError,
    StnacError,
    ValidationError,
)
from .intervals import EMPTY, Interval, interval
from .mastn import (
    AgentView,
    ExternalConstraint,
    FlatIndex,
    Mastn,
    agent_view,
    flatten,
    parse_mastn,
    serialize_mastn,
)
from .oracle import (
    NegativeCycle,
    certify_cycle,
    oracle_minimal_domains,
)
from .rng import SplitMix64
from .sim import (
    AgentMessage,
    AuditResult,
    LogEntry,
    MessageLog,
    MsgKind,
    PrivacyAuditor,
    SimReport,
    TreeInfo,
    audit_privacy,
    dump_log,
    echo_setup,
    run_simulation,
)
from .solver import (
    AcClosure,
    AcInconsistent,
    AcOutcome,
    enforce_ac,
    extract_bound_solution,
    sample_solution,
    verify_assignment,
)
from .stn import DEFAULT_MAGNITUDE_CAP, Stn, parse_stn, serialize_stn
from .workloads import (
    FAMILIES,
    GenSpec,
    gen_factory_mastn,
    gen_grid_stn,
    gen_random_mastn,
    gen_random_stn,
    gen_scale_free_stn,
    generate,
    render_generated,
)

__version__ = "0.1.0"
