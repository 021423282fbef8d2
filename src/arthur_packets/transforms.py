"""Change-of-order transforms on packet coordinates.

For two adjacent blocks of a fiber (positions k > k-1 in the order):
  - same zeta, upper interval contains lower:  S+ (to the swapped order) and
    its inverse S-;
  - opposite zeta: U (an exact involution).
Together with the observation that any admissible adjacent swap of same-zeta
blocks involves a nested-or-equal pair, these transport (l, eta) between any
two admissible orders (reorder).

The pair formulas only depend on each block's A - B; helpers here take those
integers directly.  ``pair_kind`` reads from two records' (2A, 2B, zeta)
which map swaps them.  ``swap_records`` applies it to fiber records, and
``transport`` sorts a fiber's records by swapping neighbours: the one way
in which the decision engine moves (l, eta).  It is
``swap_along(recs, swap_schedule(keys))``: the swap positions depend on the
keys alone, so a caller that sorts the same keys again can keep the schedule.
``reorder`` is the one Parameter-level transport: a single adjacent swap is
``reorder`` to the order with that pair exchanged.  Its swaps depend only on
the two orders, so the first call for a pair of orders compiles, for each
fiber whose order changes, a pair program: the occurrences, kind and A - B
values of each swap, run in place on the (l, eta) lists.  The order each
moving fiber reaches is a function of its schedule alone, so it is checked
once, when the pair of orders is compiled; a fiber in the same order in both
has no swap and keeps its (l, eta).  Both orders are checked when the pair
is compiled; the compiled pair is kept only for admissible orders.  Every
call still checks the bounds and each swap's conditions.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .core import (
    AdmissibleOrder,
    DataError,
    InvariantError,
    Parameter,
    Sign,
    SignedData,
    is_admissible,
)


# A fiber record: (tA, tB, zeta, l, eta) with tA, tB doubled coordinates.
Rec = Tuple[int, int, int, int, int]


class TransformPreconditionError(DataError):
    """The data does not satisfy the necessary condition required by a transform."""


# (-1)**d is _SIGN[d & 1].
_SIGN = (1, -1)


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
    if e_big == _SIGN[d_small & 1] * e_small:
        return 0 <= l_big - l_small <= d_big - d_small
    return l_big + l_small > d_small


def sub_condition_ok(
    d_big: int, d_small: int, l_big: int, e_big: Sign, l_small: int, e_small: Sign
) -> bool:
    """Necessary condition when the contained block is above."""
    if e_small == _SIGN[d_big & 1] * e_big:
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
    if e_big != _SIGN[d_small & 1] * e_small:
        new_l_big = l_big - step
        new_e_big = e_small
    elif 2 * (l_big - l_small) < d_big - 2 * d_small + 2 * l_small:
        new_l_big = l_big + step
        new_e_big = -e_small
    else:
        new_l_big = (d_big - d_small) + 2 * l_small - l_big
        new_e_big = e_small
    new_e_small = _SIGN[d_big & 1] * e_small
    out = (new_l_big, new_e_big, l_small, new_e_small)
    if not sub_condition_ok(d_big, d_small, *out):
        raise InvariantError(
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
    new_e_small = _SIGN[d_big & 1] * e_small
    step = d_small - 2 * l_small + 1
    if e_small != _SIGN[d_big & 1] * e_big:
        new_e_big = _SIGN[d_small & 1] * new_e_small
        new_l_big = l_big - step
    elif 2 * (l_big - l_small) < d_big - 2 * d_small + 2 * l_small:
        new_e_big = -_SIGN[d_small & 1] * new_e_small
        new_l_big = l_big + step
    else:
        new_e_big = _SIGN[d_small & 1] * new_e_small
        new_l_big = (d_big - d_small) - l_big + 2 * l_small
    out = (new_l_big, new_e_big, l_small, new_e_small)
    if not sup_condition_ok(d_big, d_small, *out):
        raise InvariantError(
            "s_minus output violates the container-above necessary condition"
        )
    return out


def u_pair(
    d_upper: int, d_lower: int, l_upper: int, e_upper: Sign, l_lower: int, e_lower: Sign
) -> Tuple[int, Sign, int, Sign]:
    """Opposite-zeta swap: l's unchanged, each eta picks up (-1)^(d_other + 1)."""
    return (
        l_upper,
        _SIGN[(d_lower + 1) & 1] * e_upper,
        l_lower,
        _SIGN[(d_upper + 1) & 1] * e_lower,
    )


# ---------------------------------------------------------------------------
# Fiber records
# ---------------------------------------------------------------------------

def fiber_records(
    psi: Parameter, occurrences: Iterable[int], l: Sequence[int], eta: Sequence[Sign]
) -> List[Rec]:
    """The records of the given block occurrences, in the order listed."""
    records = psi.records
    return [records[i] + (l[i], eta[i]) for i in occurrences]


# The map that swaps an adjacent pair, as ``pair_kind`` names it.
U, S_PLUS, S_MINUS, NEITHER = range(4)


def pair_kind(tA1: int, tB1: int, z1: int, tA2: int, tB2: int, z2: int) -> int:
    """Which map swaps an adjacent pair, from the lower record's (2A, 2B,
    zeta) and then the upper's: U for opposite zeta, S_PLUS when the upper
    interval contains the lower one, S_MINUS when the lower contains the
    upper, NEITHER for a same-zeta pair that is not nested (no swap between
    admissible orders exchanges one).
    """
    if z1 != z2:
        return U
    if tB2 <= tB1 and tA2 >= tA1:
        return S_PLUS
    if tB1 <= tB2 and tA1 >= tA2:
        return S_MINUS
    return NEITHER


def _neither_nested(*_):
    """The map of a NEITHER pair: there is none."""
    raise InvariantError("unreachable: adjacent same-zeta pair neither nested nor allowed to swap")


def swap_records(lower: Rec, upper: Rec) -> Tuple[Rec, Rec]:
    """Exchange an adjacent pair of fiber records, transporting (l, eta).

    ``upper`` is the greater of the two in the current order; the map is
    ``pair_kind``'s.  Returns the new (lower, upper) pair: the old upper
    record, now below, and the old lower one, now above.  Raises
    TransformPreconditionError when the pair's necessary condition fails,
    which means the member vanishes.
    """
    tA1, tB1, z1, l1, e1 = lower
    tA2, tB2, z2, l2, e2 = upper
    d1 = (tA1 - tB1) // 2
    d2 = (tA2 - tB2) // 2
    kind = pair_kind(tA1, tB1, z1, tA2, tB2, z2)
    if kind == U:
        l2, e2, l1, e1 = u_pair(d2, d1, l2, e2, l1, e1)
    elif kind == S_PLUS:
        l2, e2, l1, e1 = s_plus_pair(d2, d1, l2, e2, l1, e1)
    elif kind == S_MINUS:
        l1, e1, l2, e2 = s_minus_pair(d1, d2, l1, e1, l2, e2)
    else:
        _neither_nested()
    return (tA2, tB2, z2, l2, e2), (tA1, tB1, z1, l1, e1)


def swap_schedule(keys: Sequence) -> List[int]:
    """The adjacent swaps that sort ``keys`` stably, as positions in turn.

    A bubble sort whose sweeps run bottom-up; equal keys never swap.  A
    sweep starts just below the previous sweep's first swap and stops at its
    last one, which skips only comparisons that cannot swap.
    """
    keys = list(keys)
    schedule: List[int] = []
    lo, hi = 0, len(keys) - 1
    while lo < hi:
        first = last = None
        for i in range(lo, hi):
            if keys[i] > keys[i + 1]:
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
                schedule.append(i)
                if first is None:
                    first = i
                last = i
        if last is None:
            break
        lo, hi = max(first - 1, 0), last
    return schedule


def swap_along(recs: Sequence[Rec], schedule: Iterable[int]) -> List[Rec]:
    """Apply ``swap_records`` at each position of ``schedule`` in turn.

    Raises TransformPreconditionError as ``swap_records`` does.
    """
    work = list(recs)
    for i in schedule:
        work[i], work[i + 1] = swap_records(work[i], work[i + 1])
    return work


def transport(recs: Sequence[Rec], keys: Sequence) -> List[Rec]:
    """Sort an ascending fiber's records by ``keys`` with adjacent swaps.

    Records with equal keys never swap, and each swap is ``swap_records``.
    Raises TransformPreconditionError as ``swap_records`` does.
    """
    return swap_along(recs, swap_schedule(keys))


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
    data.check_bounds(psi)
    eta = list(data.eta)
    for i, blk in enumerate(psi.blocks):
        if blk.eta_is_free_at(data.l[i]):
            eta[i] = 1
    return SignedData._derived(data.l, tuple(eta))


# ---------------------------------------------------------------------------
# Parameter-level transport
# ---------------------------------------------------------------------------

def _transports(psi: Parameter, from_order: AdmissibleOrder, to_order: AdmissibleOrder):
    """Compile the pair program of each fiber whose order differs between
    the two admissible orders: its swaps as ``(kind, a, b, d_a, d_b)``, the
    pair function's two occurrences in its argument order and their A - B.
    A fiber in the same order in both leaves its (l, eta) as they are.

    The programs depend only on the two orders, so each pair is compiled once
    and kept on ``psi``.  A swap moves the records' (2A, 2B, zeta) by
    position whatever their (l, eta), so the order a program reaches is
    checked here, once; a pair that does not reach ``to_order`` raises and
    keeps nothing.
    """
    records, blocks, target_rank = psi.records, psi.blocks, to_order._rank
    programs = []
    for current, target in zip(from_order.per_rho, to_order.per_rho):
        if current == target:
            continue
        # Both fibers list greatest first; programs run ascending.
        work, want = list(current[::-1]), target[::-1]
        steps = []
        for i in swap_schedule([target_rank[occ] for occ in work]):
            lower, upper = work[i], work[i + 1]
            kind = pair_kind(*records[lower], *records[upper])
            # s_minus_pair takes the lower block first, u_pair and s_plus_pair the upper.
            a, b = (lower, upper) if kind == S_MINUS else (upper, lower)
            steps.append((kind, a, b, blocks[a].d, blocks[b].d))
            work[i], work[i + 1] = upper, lower
        if tuple(work) != want:
            raise InvariantError("reorder did not reach the target order")
        programs.append(tuple(steps))
    psi._transports[from_order, to_order] = programs = tuple(programs)
    return programs


def reorder(
    psi: Parameter,
    from_order: AdmissibleOrder,
    to_order: AdmissibleOrder,
    data: SignedData,
) -> SignedData:
    """Transport (l, eta) from one admissible order to another.

    The bounds and every swap's conditions are checked on every call.  Both
    orders are checked when the pair is compiled; the compiled pair is kept
    only for admissible orders.  The pair programs, and with them the order
    each moving fiber reaches, are compiled and checked once per pair.
    """
    data.check_bounds(psi)
    programs = psi._transports.get((from_order, to_order))
    if programs is None:
        if not is_admissible(from_order, psi):
            raise DataError("from_order is not admissible")
        if not is_admissible(to_order, psi):
            raise DataError("to_order is not admissible")
        programs = _transports(psi, from_order, to_order)
    l = list(data.l)
    eta = list(data.eta)
    # The maps indexed by kind, looked up on every call rather than kept in
    # the programs, so that a pair function wrapped after compilation is the
    # one called.
    pair = (u_pair, s_plus_pair, s_minus_pair, _neither_nested)
    for program in programs:
        for kind, a, b, d_a, d_b in program:
            l[a], eta[a], l[b], eta[b] = pair[kind](d_a, d_b, l[a], eta[a], l[b], eta[b])
    return SignedData._derived(tuple(l), tuple(eta))
