"""Output checks that do not go through the engine.

Each check recomputes what it needs from the block data (doubled coordinates
``tA, tB``) with its own arithmetic, or from the self-contained closed-form
oracle, so a fault in the engine, the transforms or the sign characters
cannot hide itself.  Every check returns a list of violations (empty when the
output is correct), so the self-test can show which rule rejected a planted
error.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

Point = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (l, eta)


def block_d(blk) -> int:
    """A - B of a block, from its doubled coordinates."""
    return (blk.A.twice - blk.B.twice) // 2


def eps(d: int, l: int, eta: int) -> int:
    """eta^(d+1) * (-1)^(floor((d+1)/2) + l), the sign of one block."""
    value = eta if (d + 1) % 2 else 1
    return -value if ((d + 1) // 2 + l) % 2 else value


def canonical(ds: Sequence[int], point: Point) -> Point:
    """Representative modulo the eta-flip: eta = +1 wherever 2l = d + 1."""
    l, eta = point
    return (tuple(l), tuple(1 if 2 * li == d + 1 else e for li, e, d in zip(l, eta, ds)))


def grid_size(ds: Sequence[int]) -> int:
    """Number of canonical (l, eta) candidates of blocks with these A - B."""
    size = 1
    for d in ds:
        size *= sum(1 if 2 * l == d + 1 else 2 for l in range((d + 1) // 2 + 1))
    return size


def sign_violations(ds: Sequence[int], points: Iterable[Point]) -> List[str]:
    """Members out of the l-range or with sign product -1 (not quasisplit)."""
    bad = []
    for l, eta in points:
        if any(not (0 <= li <= (d + 1) // 2) for li, d in zip(l, ds)):
            bad.append(f"l out of range: {l}")
            continue
        prod = 1
        for li, e, d in zip(l, eta, ds):
            prod *= eps(d, li, e)
        if prod != 1:
            bad.append(f"not quasisplit: l={l} eta={eta}")
    return bad


# ---------------------------------------------------------------------------
# golden: the member set against the closed-form three-block oracle
# ---------------------------------------------------------------------------

def oracle_members(oracle, blocks) -> set:
    """Nonvanishing classes of a three-block parameter from the closed form.

    ``blocks`` are the parameter's blocks in data order.  The oracle labels
    them ascending by (A, B); the result is in data order, reduced modulo the
    eta-flip.
    """
    asc = sorted(range(3), key=lambda i: (blocks[i].A.twice, blocks[i].B.twice))
    coords = []
    for i in asc:
        coords += [blocks[i].A.as_int(), blocks[i].B.as_int()]
    ds = [block_d(b) for b in blocks]
    members = set()
    for g in oracle.three_block_grid(*coords):
        if oracle.oracle_three_block(*coords, *g):
            l = [0, 0, 0]
            eta = [0, 0, 0]
            for k, i in enumerate(asc):
                l[i], eta[i] = g[2 * k], g[2 * k + 1]
            members.add(canonical(ds, (tuple(l), tuple(eta))))
    return members


def golden_violations(reference: set, expected_size: int, members: Iterable[Point]) -> List[str]:
    got = [(tuple(l), tuple(eta)) for l, eta in members]
    bad = []
    if len(got) != expected_size:
        bad.append(f"packet size {len(got)} != {expected_size}")
    if set(got) != reference or len(set(got)) != len(got):
        missing = len(reference - set(got))
        extra = len(set(got) - reference)
        bad.append(f"member set differs from the oracle: {missing} missing, {extra} extra")
    return bad


# ---------------------------------------------------------------------------
# multifiber: order invariance, reorder bijectivity, signs, fiber product
# ---------------------------------------------------------------------------

def multifiber_violations(
    ds: Sequence[int],
    fibers: Sequence[Sequence[int]],
    packs: Sequence[Sequence[Point]],
    image: Sequence[Point],
) -> List[str]:
    """``packs[k]`` is the packet under order k; ``image`` is packet 0
    transported to order 1.  ``fibers`` lists the block indices of each
    fiber."""
    bad = []
    sizes = [len(p) for p in packs]
    if len(set(sizes)) != 1:
        bad.append(f"packet size depends on the order: {sizes}")
    if {canonical(ds, p) for p in image} != {canonical(ds, p) for p in packs[1]} or len(
        image
    ) != len(packs[1]):
        bad.append("reorder does not map packet 0 onto packet 1")
    for k, pack in enumerate(packs):
        bad += [f"order {k}: {v}" for v in sign_violations(ds, pack)]
        if len(fibers) == 2:
            bad += [f"order {k}: {v}" for v in fiber_product_violations(ds, fibers, pack)]
    return bad


def fiber_product_violations(
    ds: Sequence[int], fibers: Sequence[Sequence[int]], pack: Sequence[Point]
) -> List[str]:
    """Within one class of the sign product over the first fiber, the packet
    of a two-fiber parameter is the product of its two fiber projections:
    nonvanishing is a per-fiber conjunction and the quasisplit sign is the
    product of the two fiber signs."""
    f1, f2 = fibers
    classes: Dict[int, set] = {1: set(), -1: set()}
    for l, eta in pack:
        s = 1
        for i in f1:
            s *= eps(ds[i], l[i], eta[i])
        part1 = tuple((l[i], eta[i]) for i in f1)
        part2 = tuple((l[i], eta[i]) for i in f2)
        classes[s].add((part1, part2))
    bad = []
    for s, pairs in classes.items():
        left = {a for a, _ in pairs}
        right = {b for _, b in pairs}
        if len(pairs) != len(left) * len(right):
            bad.append(
                f"sign class {s:+d}: {len(pairs)} members is not "
                f"{len(left)} x {len(right)} fiber projections"
            )
    return bad


# ---------------------------------------------------------------------------
# deep_chain and oracle_compare
# ---------------------------------------------------------------------------

def verdict_violations(reference: bool, verdict: bool) -> List[str]:
    if verdict != reference:
        return [f"verdict {verdict} differs from {reference} under the second order"]
    return []


def mismatch_violations(mismatches: Sequence) -> List[str]:
    if mismatches:
        return [f"{len(mismatches)} oracle/engine mismatches, first {mismatches[0]!r}"]
    return []
