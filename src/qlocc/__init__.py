"""qlocc: verification and search toolkit for local distinguishability of
multipartite orthogonal quantum state sets."""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    Leaf,
    Measure,
    apply_measurement,
    apply_outcome,
    certify_activation_protocol,
    tree_from_json,
    tree_to_json,
    verify_protocol,
)
from .fixtures import FIXTURE_NAMES, build_fixture, builtin_protocol, fixture_corrections
from .oplm import (
    LocalMeasurement,
    OplmSpace,
    block_structure,
    eliminable_states,
    is_locally_irreducible,
    is_trivial,
    measurement_candidates,
    oplm_space,
    projective_oplms,
)
from .partitions import hidden_nonlocality_profile, qubit_times_n_rule
from .protocol import SetAnalyzer, activation_search, search_distinguishing_protocol
from .qset import QsetError, parse_qset, serialize_qset
from .render import extract_tiles, render
from .states import (
    Bipartition,
    Ket,
    PartySpace,
    StateSet,
    equal_up_to_local_relabeling,
    gram_check,
    inner_product,
    make_ket,
    merge_parties,
    redundancy_check,
    reduced_state,
    schmidt_rank,
)
from .upb import check_unextendible, numeric_extension_search
