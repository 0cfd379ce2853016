"""Submodular resource-allocation games with compromised agents.

Construct games whose agents pick resource subsets under a submodular,
nondecreasing, normalized welfare; compromise some agents (blind, isolated
or disabled); enumerate the pure Nash equilibria exactly; measure the
anarchy ratio against closed-form worst-case bounds and certify the bound
derivations numerically per instance; and simulate log-linear learning.
"""

from .game import (
    EMPTY_ACTION,
    TOLERANCE,
    Action,
    Compromise,
    GameInstance,
    JointAction,
    ModelIncompleteError,
    SeparableWelfare,
    SizeCapError,
    TabulatedWelfare,
    UnsupportedUtilityError,
    Utility,
    ValidationError,
    all_profiles,
    base_set,
    check_submodular,
    check_vug,
    designed_utility,
    effective_utility,
    empty_profile,
    equal_share,
    joint_space_size,
    marginal_contribution,
    masked_profile,
    observation_structure,
    observed_set,
    selection_counts,
    validate_joint_action,
    welfare_eval,
)
from .equilibrium import (
    BoundChainCertificate,
    EquilibriumSet,
    PoAReport,
    SearchConfig,
    UtilityClass,
    best_response_set,
    check_bound_chain_general,
    check_bound_chain_mc,
    enumerate_pne,
    instance_poa,
    is_pne,
    optimal_welfare,
    theoretical_poa,
    worst_case_search,
)
from .instances import (
    FamilyParams,
    ParseError,
    gen_family,
    gen_fig1,
    gen_k_blind,
    gen_mc_blind,
    gen_mc_noblind,
    gen_random_separable,
    gen_sim_game,
    parse,
    serialize,
)
from .learning import (
    LllRunResult,
    SweepResult,
    SweepRow,
    action_distribution,
    lll_run,
    sub_seed,
    temperature_sweep,
)

__version__ = "0.1.0"
