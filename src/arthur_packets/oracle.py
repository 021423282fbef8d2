"""Independent brute-force ground truth for differential testing.

Everything here is self-contained integer arithmetic: no imports from the
transforms/reductions/engine layers, so verdicts are derived only from the
explicit closed-form inequality systems.

``oracle_three_block`` evaluates the six-system classification for the
three-block family (integral coordinates, zeta pattern (+1, -1, +1), order
block3 > block2 > block1 with A3 >= A2 >= A1 and B3 >= B2 >= B1).

``oracle_two_block`` evaluates the closed-form condition for a standalone
same-zeta pair whose upper block dominates the lower one (A2 >= A1,
B2 >= B1); equal blocks are the special case with matching intervals.
"""

from __future__ import annotations

from typing import Iterator, Tuple


class OracleError(ValueError):
    pass


def _check_block(A: int, B: int, name: str) -> None:
    if not (isinstance(A, int) and isinstance(B, int)):
        raise OracleError(f"{name}: coordinates must be plain integers")
    if not (A >= B >= 0):
        raise OracleError(f"{name}: need A >= B >= 0, got A={A}, B={B}")


def _l_bound_ok(A: int, B: int, l: int) -> bool:
    return 0 <= l <= (A - B + 1) // 2


def _eps(A: int, B: int, l: int, eta: int) -> int:
    d = A - B
    value = eta if (d + 1) % 2 else 1
    value *= -1 if ((d + 1) // 2 + l) % 2 else 1
    return value


def oracle_three_block(
    A1: int,
    B1: int,
    A2: int,
    B2: int,
    A3: int,
    B3: int,
    l1: int,
    eta1: int,
    l2: int,
    eta2: int,
    l3: int,
    eta3: int,
) -> bool:
    """Nonvanishing verdict for the three-block family.

    Hypotheses (checked): integral A_i, B_i; A3 >= A2 >= A1; B3 >= B2 >= B1;
    signs are for the zeta pattern (zeta3, zeta2, zeta1) = (+1, -1, +1) under
    the order 3 > 2 > 1.  The verdict includes the l-range bounds and the
    quasisplit product constraint.
    """
    _check_block(A1, B1, "block1")
    _check_block(A2, B2, "block2")
    _check_block(A3, B3, "block3")
    if not (A3 >= A2 >= A1 and B3 >= B2 >= B1):
        raise OracleError("hypotheses require A3 >= A2 >= A1 and B3 >= B2 >= B1")
    if not (eta1 in (1, -1) and eta2 in (1, -1) and eta3 in (1, -1)):
        raise OracleError("eta values must be +1/-1")

    d1 = A1 - B1
    d2 = A2 - B2
    d3 = A3 - B3
    # The l-range bounds: 0 <= l <= (A - B + 1) // 2 on each block.
    if not (
        0 <= l1 <= (d1 + 1) // 2 and 0 <= l2 <= (d2 + 1) // 2 and 0 <= l3 <= (d3 + 1) // 2
    ):
        return False
    if _eps(A1, B1, l1, eta1) * _eps(A2, B2, l2, eta2) * _eps(A3, B3, l3, eta3) != 1:
        return False

    eta3_matches = eta3 == ((-1) ** (d1 + d2)) * eta1
    eta2_matches = eta2 == ((-1) ** d1) * eta1
    # Threshold used by the four mismatched-eta3 systems.
    below_threshold = 2 * (l3 - l1) < d3 - 2 * d1 + 2 * l1

    if eta3_matches and eta2_matches:
        return (
            l3 + l1 > A1 - B3
            and -B2 <= l2 - l1 <= A2 - d1
            and d1 - B3 + 1 <= l3 - l2 + 2 * l1 <= A3 + d1 - d2 + 1
        )
    if eta3_matches and not eta2_matches:
        return (
            l3 + l1 > A1 - B3
            and l1 + l2 > d1 - B2
            and l3 + l2 + 2 * l1 > d1 + d2 - B3 + 1
        )
    if not eta3_matches and eta2_matches and below_threshold:
        return (
            -(B3 - B1) <= l3 - l1 <= A3 - A1
            and -B2 <= l2 - l1 <= A2 - d1
            and l3 + l2 - 2 * l1 > d2 - d1 - B3 - 1
        )
    if not eta3_matches and eta2_matches:
        return (
            -(B3 - B1) <= l3 - l1 <= A3 - A1
            and -B2 <= l2 - l1 <= A2 - d1
            and d1 - A3 <= -l3 - l2 + 2 * l1 <= d1 - d2 + B3
        )
    if not eta3_matches and not eta2_matches and below_threshold:
        return (
            -(B3 - B1) <= l3 - l1 <= A3 - A1
            and l1 + l2 > d1 - B2
            and -d1 - B3 - 1 <= l3 - l2 - 2 * l1 <= A3 - d1 - d2 - 1
        )
    return (
        -(B3 - B1) <= l3 - l1 <= A3 - A1
        and l1 + l2 > d1 - B2
        and -l3 + l2 + 2 * l1 > d1 + d2 - A3
    )


def three_block_grid(
    A1: int, B1: int, A2: int, B2: int, A3: int, B3: int
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """All (l1, eta1, l2, eta2, l3, eta3) candidates within the l-range bounds."""
    for l1 in range((A1 - B1 + 1) // 2 + 1):
        for l2 in range((A2 - B2 + 1) // 2 + 1):
            for l3 in range((A3 - B3 + 1) // 2 + 1):
                for eta1 in (1, -1):
                    for eta2 in (1, -1):
                        for eta3 in (1, -1):
                            yield (l1, eta1, l2, eta2, l3, eta3)


def count_three_block_classes(A1, B1, A2, B2, A3, B3) -> int:
    """Number of nonvanishing (l, eta) classes mod the eta-flip equivalence."""
    seen = set()
    for l1, e1, l2, e2, l3, e3 in three_block_grid(A1, B1, A2, B2, A3, B3):
        if oracle_three_block(A1, B1, A2, B2, A3, B3, l1, e1, l2, e2, l3, e3):
            key = []
            for (A, B, l, e) in ((A1, B1, l1, e1), (A2, B2, l2, e2), (A3, B3, l3, e3)):
                free = 2 * l == (A - B) + 1
                key.append((l, 1 if free else e))
            seen.add(tuple(key))
    return len(seen)


def oracle_two_block(
    A1: int, B1: int, A2: int, B2: int, l1: int, eta1: int, l2: int, eta2: int
) -> bool:
    """Closed-form verdict for a standalone dominated same-zeta pair.

    Block 2 is the greater one, with A2 >= A1 and B2 >= B1.  Matching signs
    (eta2 = (-1)^(A1-B1) eta1) require A2 - l2 >= A1 - l1 and
    B2 + l2 >= B1 + l1; mismatched signs require B2 + l2 > A1 - l1.
    """
    _check_block(A1, B1, "block1")
    _check_block(A2, B2, "block2")
    if not (A2 >= A1 and B2 >= B1):
        raise OracleError("hypotheses require A2 >= A1 and B2 >= B1")
    if eta1 not in (1, -1) or eta2 not in (1, -1):
        raise OracleError("eta values must be +1/-1")
    if not (_l_bound_ok(A1, B1, l1) and _l_bound_ok(A2, B2, l2)):
        return False
    if eta2 == ((-1) ** (A1 - B1)) * eta1:
        return A2 - l2 >= A1 - l1 and B2 + l2 >= B1 + l1
    return B2 + l2 > A1 - l1
