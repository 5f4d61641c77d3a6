"""Order sequences of finite groups: computation, comparison, verification."""

from .catalog import (
    abelian_groups_of_order,
    catalog,
    elementary_product,
    frobenius20,
    frobenius21,
    group_by_name,
    modular16,
    nilpotent_groups_of_order,
    semidihedral16,
    standard_family,
    supported_orders,
)
from .errors import (
    LengthMismatch,
    NoWitness,
    OrdseqError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    UnsupportedOrderError,
)
from .fields import FiniteField, affine_frobenius_group, make_field, psl_3_4
from .graphs import (
    LabeledGraph,
    canonical_form,
    directed_power_graph,
    gk_graph,
    power_graph,
    render_dot,
)
from .groups import (
    FiniteGroup,
    abelian,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    heisenberg,
    symmetric,
)
from .partitions import (
    abelian_order_sequence,
    box_move_chain,
    conjugate,
    cyclic_subgroup_counts,
    defining_partition,
    majorizes,
    partition,
    partitions_of,
)
from .posets import Poset, build_poset, extremes, hasse, render
from .sequences import (
    HallCertificate,
    OrderSequence,
    comparable,
    dominates,
    nilpotent_from_sequence,
    order_sequence,
    parse_sequence,
    plausibility_violation,
    psi,
    psi_k,
    realize,
    rho,
    seq_join,
    seq_product,
    strictly_dominates,
    strong_domination,
)
from .suites import (
    SuiteReport,
    minimal_nonnilpotent_group,
    nonnilpotent_order_witness,
    run_all,
    run_suite,
)

__version__ = "0.1.0"
