"""Differential check of the packet plan against the three-block closed form.

The three-block family (integral coordinates, zeta pattern (+1, -1, +1),
ascending A and B chains) has an independent closed-form classification in
``oracle``.  ``three_block_parameter`` and ``three_block_shape`` convert
between a shape ``(A1, B1, A2, B2, A3, B3)`` and the parameter it describes;
``compare_three_block`` diffs the packet plan against the oracle over the
shape's full ``(l, eta)`` grid.  The oracle itself imports nothing from this
package.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .core import AdmissibleOrder, DataError, JordanBlock, Parameter, RhoLabel
from .engine import Engine
from .halfint import hi
from .oracle import oracle_three_block, three_block_grid
from .packets import enumerate_packet


def three_block_parameter(A1, B1, A2, B2, A3, B3) -> Tuple[Parameter, AdmissibleOrder]:
    """Build the three-block family instance with its descending natural order.

    Occurrences are listed greatest first, so data indices (0, 1, 2)
    correspond to blocks (3, 2, 1) of the ascending labelling.
    """
    rho = RhoLabel("r1", "orthogonal", 1)
    blocks = (
        JordanBlock(rho, hi(A3), hi(B3), 1),
        JordanBlock(rho, hi(A2), hi(B2), -1),
        JordanBlock(rho, hi(A1), hi(B1), 1),
    )
    psi = Parameter(blocks, group_kind=None)
    return psi, AdmissibleOrder(((0, 1, 2),))


def three_block_shape(psi: Parameter) -> Tuple[int, ...]:
    """Extract ascending (A1,B1,A2,B2,A3,B3) if psi fits the three-block family."""
    if len(psi.blocks) != 3 or len(psi.fibers()) != 1:
        raise DataError("oracle path needs a single fiber of three blocks")
    blocks = sorted(psi.blocks, key=lambda b: (b.A.twice, b.B.twice))
    if any(not (b.A.is_integral and b.B.is_integral) for b in blocks):
        raise DataError("oracle path needs integral coordinates")
    b1, b2, b3 = blocks
    if not (b1.zeta == b3.zeta == 1 and b2.zeta == -1):
        raise DataError("oracle path needs the zeta pattern (+1, -1, +1)")
    if not (
        b3.A >= b2.A >= b1.A and b3.B >= b2.B >= b1.B
    ):
        raise DataError("oracle path needs ascending A and B chains")
    return (
        b1.A.as_int(), b1.B.as_int(),
        b2.A.as_int(), b2.B.as_int(),
        b3.A.as_int(), b3.B.as_int(),
    )


def compare_three_block(A1, B1, A2, B2, A3, B3, engine: Optional[Engine] = None):
    """Full-grid oracle/packet comparison; returns the list of mismatches.

    Each grid point's oracle verdict is compared with whether its canonical
    representative (eta = +1 where 2l = A - B + 1) is a member of
    ``enumerate_packet``, so the check runs the packet plan's own filters.
    The member set holds every grid point that a member stands for: both
    etas where l is invisible, none for an eta of -1 there.
    """
    psi, order = three_block_parameter(A1, B1, A2, B2, A3, B3)
    # Each block's invisible l: (A - B + 1) / 2 where A - B is odd, else none (-1).
    v1, v2, v3 = [(d + 1) // 2 if d % 2 else -1 for d in (A1 - B1, A2 - B2, A3 - B3)]
    both = (1, -1)
    members = set()
    for d in enumerate_packet(psi, order, engine=engine):
        (l3, l2, l1), (e3, e2, e1) = d.l, d.eta
        if (l1 == v1 and e1 < 0) or (l2 == v2 and e2 < 0) or (l3 == v3 and e3 < 0):
            continue
        for f1 in both if l1 == v1 else (e1,):
            for f2 in both if l2 == v2 else (e2,):
                for f3 in both if l3 == v3 else (e3,):
                    members.add((l1, f1, l2, f2, l3, f3))
    mismatches = []
    for point in three_block_grid(A1, B1, A2, B2, A3, B3):
        want = oracle_three_block(A1, B1, A2, B2, A3, B3, *point)
        got = point in members
        if got != want:
            mismatches.append((point, want, got))
    return mismatches


def random_three_block_shapes(count: int, max_a: int, seed: int) -> List[Tuple[int, ...]]:
    """Random (A1,B1,A2,B2,A3,B3) satisfying the three-block hypotheses.

    Each coordinate is drawn below the ones it is bounded by, so every draw
    is a shape: B1 <= A1 <= A2 bounds B2, and B2 <= A2 <= A3 bounds B3.
    """
    randrange = random.Random(seed).randrange
    shapes = []
    for _ in range(count):
        A3 = randrange(max_a + 1)
        A2 = randrange(A3 + 1)
        A1 = randrange(A2 + 1)
        B1 = randrange(A1 + 1)
        B2 = randrange(B1, A2 + 1)
        B3 = randrange(B2, A3 + 1)
        shapes.append((A1, B1, A2, B2, A3, B3))
    return shapes
