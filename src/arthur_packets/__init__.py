"""Exact combinatorics of packet coordinates for p-adic classical groups.

Public API: block/parameter data types, sign characters, change-of-order
transforms, reduction rewrites, the decision engine, packet enumeration,
independent closed-form oracles, and the three-block cross-check of the packet
plan against them (``compare_three_block``, ``random_three_block_shapes``,
``three_block_parameter``, ``three_block_shape``).  The command-line module
``cli`` is the only one that imports click, and no library module imports it.
"""

from .halfint import HalfInt, hi
from .core import (
    AdmissibleOrder,
    DataError,
    JordanBlock,
    Parameter,
    ParameterError,
    RhoLabel,
    SignedData,
    all_admissible_orders,
    block_parity,
    is_admissible,
    natural_order,
    parameter_from_json,
    parameter_to_json,
)
from .characters import (
    Character,
    eps_M_MW,
    eps_MW_W,
    eps_l_eta,
    quasisplit_ok,
    translate_M_to_W,
)
from .transforms import (
    TransformPreconditionError,
    reorder,
    s_minus_pair,
    s_plus_pair,
    sigma0_canonical,
    sigma0_equiv,
    sub_condition_ok,
    sup_condition_ok,
    swap_records,
    u_pair,
)
from .reductions import (
    ReductionStep,
    change_sign,
    expand_amount,
    measure,
)
from .engine import (
    Engine,
    RecursionLimitError,
    Verdict,
    basic_ok,
)
from .oracle import (
    OracleError,
    count_three_block_classes,
    oracle_three_block,
    oracle_two_block,
    three_block_grid,
)
from .packets import candidates, enumerate_packet, packet_size
from .crosscheck import (
    compare_three_block,
    random_three_block_shapes,
    three_block_parameter,
    three_block_shape,
)

__all__ = [name for name in dir() if not name.startswith("_")]
