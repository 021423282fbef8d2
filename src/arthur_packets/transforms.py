"""Change-of-order transforms on packet coordinates.

For two adjacent blocks of a fiber (positions k > k-1 in the order):
  - same zeta, upper interval contains lower:  S+ (to the swapped order) and
    its inverse S-;
  - opposite zeta: U (an exact involution).
Together with the observation that any admissible adjacent swap of same-zeta
blocks involves a nested-or-equal pair, these transport (l, eta) between any
two admissible orders (reorder).

The pair formulas only depend on each block's A - B; helpers here take those
integers directly.  ``swap_records`` applies them to fiber records, the form
in which both the decision engine and ``reorder`` transport (l, eta).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .core import (
    AdmissibleOrder,
    DataError,
    Parameter,
    RhoLabel,
    Sign,
    SignedData,
    is_admissible,
)


# A fiber record: (tA, tB, zeta, l, eta) with tA, tB doubled coordinates.
Rec = Tuple[int, int, int, int, int]


class TransformPreconditionError(DataError):
    """The data does not satisfy the necessary condition required by a transform."""


def _sgn_pow(d: int) -> int:
    return -1 if d % 2 else 1


# ---------------------------------------------------------------------------
# Necessary conditions for an adjacent nested same-zeta pair.
# "big" is the block with the containing interval (larger A - B = d_big),
# "small" the contained one.  Which of the two sits above in the order is part
# of each function's contract.
# ---------------------------------------------------------------------------

def sup_condition_ok(
    d_big: int, d_small: int, l_big: int, e_big: Sign, l_small: int, e_small: Sign
) -> bool:
    """Necessary condition when the containing block is above."""
    if e_big == _sgn_pow(d_small) * e_small:
        return 0 <= l_big - l_small <= d_big - d_small
    return l_big + l_small > d_small


def sub_condition_ok(
    d_big: int, d_small: int, l_big: int, e_big: Sign, l_small: int, e_small: Sign
) -> bool:
    """Necessary condition when the contained block is above."""
    if e_small == _sgn_pow(d_big) * e_big:
        return 0 <= l_big - l_small <= d_big - d_small
    return l_big + l_small > d_small


# ---------------------------------------------------------------------------
# Pair-level transforms
# ---------------------------------------------------------------------------

def s_plus_pair(
    d_big: int, d_small: int, l_big: int, e_big: Sign, l_small: int, e_small: Sign
) -> Tuple[int, Sign, int, Sign]:
    """Swap a nested pair with the container above.

    Input is the data for the container-above order; output
    (l_big', e_big', l_small', e_small') is the data for the swapped order.
    """
    if not sup_condition_ok(d_big, d_small, l_big, e_big, l_small, e_small):
        raise TransformPreconditionError(
            "input does not satisfy the container-above necessary condition"
        )
    step = d_small - 2 * l_small + 1
    if e_big != _sgn_pow(d_small) * e_small:
        new_l_big = l_big - step
        new_e_big = e_small
    elif 2 * (l_big - l_small) < d_big - 2 * d_small + 2 * l_small:
        new_l_big = l_big + step
        new_e_big = -e_small
    else:
        new_l_big = (d_big - d_small) + 2 * l_small - l_big
        new_e_big = e_small
    new_e_small = _sgn_pow(d_big) * e_small
    out = (new_l_big, new_e_big, l_small, new_e_small)
    if not sub_condition_ok(d_big, d_small, *out):
        raise AssertionError(
            "s_plus output violates the contained-above necessary condition"
        )
    return out


def s_minus_pair(
    d_big: int, d_small: int, l_big: int, e_big: Sign, l_small: int, e_small: Sign
) -> Tuple[int, Sign, int, Sign]:
    """Swap a nested pair with the contained block above (inverse of s_plus_pair).

    Input is the data for the contained-above order; output is the data for the
    container-above order.
    """
    if not sub_condition_ok(d_big, d_small, l_big, e_big, l_small, e_small):
        raise TransformPreconditionError(
            "input does not satisfy the contained-above necessary condition"
        )
    new_e_small = _sgn_pow(d_big) * e_small
    step = d_small - 2 * l_small + 1
    if e_small != _sgn_pow(d_big) * e_big:
        new_e_big = _sgn_pow(d_small) * new_e_small
        new_l_big = l_big - step
    elif 2 * (l_big - l_small) < d_big - 2 * d_small + 2 * l_small:
        new_e_big = -_sgn_pow(d_small) * new_e_small
        new_l_big = l_big + step
    else:
        new_e_big = _sgn_pow(d_small) * new_e_small
        new_l_big = (d_big - d_small) - l_big + 2 * l_small
    out = (new_l_big, new_e_big, l_small, new_e_small)
    if not sup_condition_ok(d_big, d_small, *out):
        raise AssertionError(
            "s_minus output violates the container-above necessary condition"
        )
    return out


def u_pair(
    d_upper: int, d_lower: int, l_upper: int, e_upper: Sign, l_lower: int, e_lower: Sign
) -> Tuple[int, Sign, int, Sign]:
    """Opposite-zeta swap: l's unchanged, each eta picks up (-1)^(d_other + 1)."""
    return (
        l_upper,
        _sgn_pow(d_lower + 1) * e_upper,
        l_lower,
        _sgn_pow(d_upper + 1) * e_lower,
    )


# ---------------------------------------------------------------------------
# Fiber records
# ---------------------------------------------------------------------------

def fiber_records(
    psi: Parameter, occurrences: Iterable[int], l: Sequence[int], eta: Sequence[Sign]
) -> List[Rec]:
    """The records of the given block occurrences, in the order listed."""
    return [
        (psi.blocks[i].A.twice, psi.blocks[i].B.twice, psi.blocks[i].zeta, l[i], eta[i])
        for i in occurrences
    ]


def swap_records(lower: Rec, upper: Rec) -> Tuple[Rec, Rec]:
    """Exchange an adjacent pair of fiber records, transporting (l, eta).

    ``upper`` is the greater of the two in the current order.  U is applied
    for opposite zeta, S+ when the upper interval contains the lower one and
    S- when the lower contains the upper.  Returns the new (lower, upper)
    pair: the old upper record, now below, and the old lower one, now above.
    Raises TransformPreconditionError when the pair's necessary condition
    fails, which means the member vanishes.
    """
    tA1, tB1, z1, l1, e1 = lower
    tA2, tB2, z2, l2, e2 = upper
    d1 = (tA1 - tB1) // 2
    d2 = (tA2 - tB2) // 2
    if z1 != z2:
        l2, e2, l1, e1 = u_pair(d2, d1, l2, e2, l1, e1)
    elif tB2 <= tB1 and tA2 >= tA1:
        l2, e2, l1, e1 = s_plus_pair(d2, d1, l2, e2, l1, e1)
    elif tB1 <= tB2 and tA1 >= tA2:
        l1, e1, l2, e2 = s_minus_pair(d1, d2, l1, e1, l2, e2)
    else:
        raise AssertionError(
            "unreachable: adjacent same-zeta pair neither nested nor allowed to swap"
        )
    return (tA2, tB2, z2, l2, e2), (tA1, tB1, z1, l1, e1)


# ---------------------------------------------------------------------------
# Equivalence mod ~Sigma_0
# ---------------------------------------------------------------------------

def sigma0_equiv(d1: SignedData, d2: SignedData, psi: Parameter) -> bool:
    """l identical, eta identical except at blocks where l = (A-B+1)/2."""
    d1.check_bounds(psi)
    d2.check_bounds(psi)
    if d1.l != d2.l:
        return False
    for i, blk in enumerate(psi.blocks):
        if d1.eta[i] != d2.eta[i] and not blk.eta_is_free_at(d1.l[i]):
            return False
    return True


def sigma0_canonical(psi: Parameter, data: SignedData) -> SignedData:
    """Representative with eta = +1 wherever the eta-flip is invisible."""
    eta = list(data.eta)
    for i, blk in enumerate(psi.blocks):
        if blk.eta_is_free_at(data.l[i]):
            eta[i] = 1
    return SignedData(data.l, tuple(eta))


# ---------------------------------------------------------------------------
# Parameter-level API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjacentSwap:
    """Identifies the greater block of an adjacent pair in a per-rho order.

    ``k`` indexes the fiber order counted from the least block: the pair is
    the blocks at positions k and k-1, with 2 <= k <= n.
    """

    rho: RhoLabel
    k: int


def _swap_positions(
    psi: Parameter, order: AdmissibleOrder, swap: AdjacentSwap
) -> Tuple[int, int, Tuple[int, ...]]:
    fiber = order.fiber_for(psi, swap.rho)
    n = len(fiber)
    if not (2 <= swap.k <= n):
        raise DataError(f"swap position k={swap.k} out of range for fiber of size {n}")
    upper = fiber[n - swap.k]
    lower = fiber[n - swap.k + 1]
    return upper, lower, fiber


def swapped_order(
    psi: Parameter, order: AdmissibleOrder, swap: AdjacentSwap
) -> AdmissibleOrder:
    upper, lower, fiber = _swap_positions(psi, order, swap)
    new_fiber = list(fiber)
    i = new_fiber.index(upper)
    new_fiber[i], new_fiber[i + 1] = new_fiber[i + 1], new_fiber[i]
    per_rho = tuple(
        tuple(new_fiber) if t == fiber else t for t in order.per_rho
    )
    return AdmissibleOrder(per_rho)


def _apply_pair(
    psi: Parameter,
    data: SignedData,
    upper: int,
    lower: int,
    new_upper_vals: Tuple[int, Sign],
    new_lower_vals: Tuple[int, Sign],
) -> SignedData:
    l = list(data.l)
    eta = list(data.eta)
    l[upper], eta[upper] = new_upper_vals
    l[lower], eta[lower] = new_lower_vals
    return SignedData(tuple(l), tuple(eta))


def s_plus(
    swap: AdjacentSwap, psi: Parameter, order: AdmissibleOrder, data: SignedData
) -> SignedData:
    """Same-zeta adjacent swap with the containing block above."""
    data.check_bounds(psi)
    upper, lower, _ = _swap_positions(psi, order, swap)
    bu, bl = psi.blocks[upper], psi.blocks[lower]
    if bu.zeta != bl.zeta:
        raise DataError("s_plus requires equal zeta")
    if not (bu.B <= bl.B and bu.A >= bl.A):
        raise DataError("s_plus requires the upper interval to contain the lower one")
    lk2, ek2, l12, e12 = s_plus_pair(
        bu.d, bl.d, data.l[upper], data.eta[upper], data.l[lower], data.eta[lower]
    )
    return _apply_pair(psi, data, upper, lower, (lk2, ek2), (l12, e12))


def s_minus(
    swap: AdjacentSwap, psi: Parameter, order: AdmissibleOrder, data: SignedData
) -> SignedData:
    """Same-zeta adjacent swap with the containing block below."""
    data.check_bounds(psi)
    upper, lower, _ = _swap_positions(psi, order, swap)
    bu, bl = psi.blocks[upper], psi.blocks[lower]
    if bu.zeta != bl.zeta:
        raise DataError("s_minus requires equal zeta")
    if not (bl.B <= bu.B and bl.A >= bu.A):
        raise DataError("s_minus requires the lower interval to contain the upper one")
    l_big, e_big, l_small, e_small = s_minus_pair(
        bl.d, bu.d, data.l[lower], data.eta[lower], data.l[upper], data.eta[upper]
    )
    return _apply_pair(psi, data, upper, lower, (l_small, e_small), (l_big, e_big))


def u_transform(
    swap: AdjacentSwap, psi: Parameter, order: AdmissibleOrder, data: SignedData
) -> SignedData:
    data.check_bounds(psi)
    upper, lower, _ = _swap_positions(psi, order, swap)
    bu, bl = psi.blocks[upper], psi.blocks[lower]
    if bu.zeta == bl.zeta:
        raise DataError("u_transform requires opposite zeta")
    lu, eu, ll, el = u_pair(
        bu.d, bl.d, data.l[upper], data.eta[upper], data.l[lower], data.eta[lower]
    )
    return _apply_pair(psi, data, upper, lower, (lu, eu), (ll, el))


def reorder(
    psi: Parameter,
    from_order: AdmissibleOrder,
    to_order: AdmissibleOrder,
    data: SignedData,
) -> SignedData:
    """Transport (l, eta) from one admissible order to another."""
    data.check_bounds(psi)
    if not is_admissible(from_order, psi):
        raise DataError("from_order is not admissible")
    if not is_admissible(to_order, psi):
        raise DataError("to_order is not admissible")
    l = list(data.l)
    eta = list(data.eta)
    for rho in psi.fibers():
        # Both lists run greatest first, so recs[i + 1] is below recs[i].
        current = list(from_order.fiber_for(psi, rho))
        target = to_order.fiber_for(psi, rho)
        target_rank = {occ: len(target) - pos for pos, occ in enumerate(target)}
        recs = fiber_records(psi, current, l, eta)
        changed = True
        while changed:
            changed = False
            for i in range(len(current) - 1):
                if target_rank[current[i]] >= target_rank[current[i + 1]]:
                    continue
                recs[i + 1], recs[i] = swap_records(recs[i + 1], recs[i])
                current[i], current[i + 1] = current[i + 1], current[i]
                changed = True
        if current != list(target):
            raise AssertionError("reorder did not reach the target order")
        for occ, rec in zip(current, recs):
            l[occ], eta[occ] = rec[3], rec[4]
    return SignedData(tuple(l), tuple(eta))
