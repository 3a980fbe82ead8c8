"""Additive approximation for graph edit distance and QAP under bounded VC
dimension, plus Weisfeiler-Leman-based robust graph isomorphism."""

from .graphs import (
    Assignment,
    Graph,
    blowup,
    edit_cost,
    edit_distance_bruteforce,
    is_isomorphic_bruteforce,
    neighbour_masks,
    parse_graph,
    partial_injection,
    serialize_graph,
    threshold_graph,
)
from .setsystems import (
    SetSystem,
    epsilon_approximation_sample,
    epsilon_net_greedy,
    is_shattered,
    mixed_system,
    neighbourhood_system,
    qap_threshold_system,
    vc_dimension_exact,
    weak_vc_test,
    weighted_graph_vc,
)
from .qap import (
    QapInstance,
    b_alpha,
    ged_to_qap,
    parse_qap,
    qap_bruteforce,
    qap_cost,
    serialize_qap,
    weighted_ged_to_qap,
)
from .approx import (
    ApproxReport,
    LinearProgram,
    LpModel,
    approximate_ged,
    approximate_qap,
    build_alpha_lp,
    complete_matching,
    lp_model,
    m_bound,
    round_apec,
    solve_lp,
)
from .wl import (
    GiCertificate,
    HomogenisingSet,
    StableColouring,
    colour_refinement,
    homogenising_set_coloured,
    homogenising_set_net,
    is_homogenising,
    k_wl_stable,
    robust_gi,
)
from .generators import (
    InstanceBundle,
    cfi_graph,
    gen_blowup_pair,
    gen_cfi_pair,
    gen_vc_gap_qap,
    gen_random_graph,
    load_bundle,
    save_bundle,
    stock_base,
)

__version__ = "0.1.0"
