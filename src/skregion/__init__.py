"""Secret-key rate regions and random-binning key agreement for a
three-user source model with mutually wiretapping users."""

from .pmf import (
    BudgetExceededError,
    Channel,
    ConsistencyError,
    JointPmf,
    PmfError,
    VariableId,
    cond_mutual_information,
    entry_budget,
    iid_extension,
    is_markov_chain,
    mutual_information,
)
from .region import (
    AuxSystem,
    GridSpec,
    RateConstraintSet,
    RateRegion,
    backward_inner_point,
    backward_outer_point,
    single_key_capacity,
    enumerate_region,
    explicit_outer,
    forward_inner_point,
    forward_outer_point,
    pareto_frontier,
)
from .codec import (
    Codebook,
    TypicalityParams,
    build_backward_codebooks,
    build_forward_codebooks,
    backward_decode,
    backward_encode,
    forward_decode,
    forward_encode,
    jointly_typical,
    typical_sequences,
    wiretap_decode,
)
from .sim import (
    EpsParams,
    SimConfig,
    SimReport,
    check_definition1,
    exact_leakage,
    exact_report,
    run_trials,
    sample_sources,
)
from .cases import (
    CaseDiagnosis,
    case1_region,
    case2_region,
    case3_region,
    diagnose,
    lemma3_check,
    verify_coincidence,
)

__version__ = "0.1.0"
