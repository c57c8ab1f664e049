"""Exact computations with free non-archimedean topological groups.

Desk-scale, fully verified kernels: Graev-type ultra-norms on free Boolean
groups, epsilon-subgroup membership for the free abelian / balanced /
Boolean neighborhood bases, quotients onto free groups of finite partitions,
universal extensions into Boolean groups, and isometric action lifting.
"""

from .abelian import AbelianWord, ab_add, ab_eps_membership, ab_negate, class_sums, lh
from .boolean import (
    BooleanWord,
    Configuration,
    NormCertificate,
    bool_add,
    eps_subgroup_membership,
    graev_norm_bruteforce,
    graev_norm_fast,
    lift_action,
    support,
)
from .duality import universal_extension
from .errors import CapExceeded, InputError, NafreeError, PreconditionError
from .finite_groups import FiniteGroupTable, IsometricAction, SeminormTable
from .freegroup import FreeWord, eps_tilde_membership, fg_invert, fg_multiply, quotient_hom
from .spaces import (
    AugmentedSpace,
    Partition,
    PartitionChain,
    UltraMetricSpace,
    ball_partition,
    combine_pseudometrics,
    extend_with_zero,
    validate_ultrametric,
)

__version__ = "0.1.0"
