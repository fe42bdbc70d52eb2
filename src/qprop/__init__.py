"""Supervaluational truth values for quantum propositions.

Closed subspaces of finite-dimensional complex Hilbert spaces represent
experimental propositions; contexts of orthogonal projectors span Boolean
lattices; a state evaluates a proposition to true, false, or a truth-value
gap depending on whether the two subspaces share a lattice. Tensoring the
system with an environment makes gappy propositions bivalent.
"""

from .errors import (
    DimensionMismatch,
    DuplicateElements,
    HomeNotInContext,
    Incomplete,
    InvalidInput,
    InvalidSpectralDecomposition,
    InvalidSplice,
    MissingContext,
    MissingEnvProp,
    NotAnElement,
    NotAProjector,
    NotOrthogonal,
    QpropError,
    ScenarioSyntaxError,
    TooLarge,
    TrivialMember,
    TruthTableError,
    UnknownLabel,
    UnknownName,
    UnknownReference,
    ValidationFailed,
)
from .composition import (
    BivalenceReport,
    CompositeSpace,
    build_environment_scenario,
    build_sigma_A,
    induced_bivalence,
    stability_check,
    stability_filter,
    tensor_chain,
    tensor_state,
    tensor_subspace,
)
from .hasse import (
    DiagramOptions,
    HasseGraph,
    HasseVertex,
    Marker,
    annotate,
    build_graph,
    covering_relation,
    emit_dot,
    merge_graphs,
)
from .lattices import (
    Context,
    DistributivityReport,
    HilbertSublattice,
    InvariantSubspaceLattice,
    LatticeCollection,
    check_distributivity,
    collection_of,
    context_new,
    find_common_lattices,
    individual_subspaces,
    intertwined,
    lattice_of,
    observable_commutator,
    paste_sublattice,
)
from .scenario import (
    Scenario,
    check_scenario,
    parse_scenario,
    scenario_from_data,
    serialize_scenario,
)
from .subspaces import (
    DEFAULT_EPS,
    Projector,
    StateVector,
    Subspace,
    commutator,
    complement,
    contained_in,
    contains_subspace,
    contains_vector,
    equal_to,
    full_space,
    identity_projector,
    is_invariant_under,
    join,
    meet,
    negate,
    projector_at,
    projector_of,
    qubit_projector,
    range_of,
    subspace_from_spanning,
    subspace_sum,
    subspace_sums,
    subspaces_commute,
    validate_projector,
    zero_space,
)
from .valuation import (
    Proposition,
    TruthValue,
    ValuationInput,
    context_valuation_profile,
    default_home,
    evaluate,
    evaluate_disjunction_with_negation,
    negation_of,
    truth_table,
)

__version__ = "0.1.0"
