"""Reduction rewrites on fiber records: Expand, Change sign, termination measure.

The decision engine rewrites a fiber, held as records ``(tA, tB, zeta, l, eta)``
with tA, tB doubled coordinates, by Pull, Expand and Change sign only, until
every piece is in good shape.  This module holds the pure record-level parts
of those rewrites: the Expand amount, the Change-sign rule, the termination
measure with ``decreases``, the one place its decrease rule is written (the
engine checks it on every step where no rule is stored and once per stored
rule), and ``ReductionStep``, the ``(kind, before, after)`` record that a
trace lists.  Pull stays inside the engine, because it moves the pulled block
through its fiber with ``transforms.swap_along``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from .core import InvariantError
from .transforms import Rec


# ---------------------------------------------------------------------------
# Expand and Change sign
# ---------------------------------------------------------------------------

def expand_amount(top: Rec, lower: Sequence[Rec]) -> int:
    """The Expand amount t for the top record of a fiber.

    Expand replaces (A, B, l) of ``top`` by (A + t, B - t, l + t).  t is the
    least (B_top - B) / 2, rounded down, over the ``lower`` records of the
    same zeta, or floor(B_top) when there are none.  Each of those records
    must have B < B_top: one with B >= B_top would be contained in the top
    interval or equal to it, and Pull handles those first.
    """
    same_z = [rec[1] for rec in lower if rec[2] == top[2]]
    if any(tB >= top[1] for tB in same_z):
        raise InvariantError(
            "Expand site: a lower same-zeta block has B >= B of the top block"
        )
    if same_z:
        return min((top[1] - tB) // 2 for tB in same_z)
    return top[1] // 2


def change_sign(rec: Rec) -> Tuple[str, Rec]:
    """The Change-sign rewrite of a B = 0 or B = 1/2 record: (kind, new record).

    B = 0 flips zeta and keeps (l, eta).  B = 1/2 turns (A, 1/2, zeta) into
    (A + 1, 1/2, -zeta); eta is first set to -1 when l is maximal with A - B
    odd (the flip is invisible there), then eta = +1 gives (l + 1, -1) and
    eta = -1 gives (l, +1).
    """
    tA, tB, zeta, l, eta = rec
    if tB == 0:
        return "ChangeSignIntegral", (tA, 0, -zeta, l, eta)
    if tB != 1:
        raise InvariantError(f"Change-sign site: B must be 0 or 1/2, got 2B = {tB}")
    if 2 * l == (tA - tB) // 2 + 1:
        eta = -1
    if eta == 1:
        return "ChangeSignHalf", (tA + 2, 1, -zeta, l + 1, -1)
    return "ChangeSignHalf", (tA + 2, 1, -zeta, l, 1)


# ---------------------------------------------------------------------------
# Termination measure
# ---------------------------------------------------------------------------

def measure(recs: Sequence[Rec]) -> Tuple[int, int, int]:
    """(working-set size, sum of 2B, count of zetas opposing the max-A block).

    The max-A block is the first record with the largest (2A, 2B).
    """
    if not recs:
        return (0, 0, 0)
    top_a, top_b, top_z = recs[0][:3]
    total = plus = 0
    for tA, tB, zeta, _, _ in recs:
        total += tB
        if zeta == 1:
            plus += 1
        if tA > top_a or (tA == top_a and tB > top_b):
            top_a, top_b, top_z = tA, tB, zeta
    # Every zeta is +1 or -1.
    return (len(recs), total, len(recs) - plus if top_z == 1 else plus)


def decreases(before: Sequence[Rec], after: Sequence[Sequence[Rec]]) -> bool:
    """Whether every subproblem's termination measure is below the fiber's."""
    m = measure(before)
    return all(measure(sub) < m for sub in after)


class ReductionStep(NamedTuple):
    """One rewrite applied by the engine.

    ``before`` is the working-set record tuple the step consumed; ``after``
    holds the working-set record tuple of every emitted subproblem.  The
    conjunction of the subproblem verdicts equals the verdict of ``before``,
    except on a Pull-equal step, which also asks the pulled pair's basic
    condition.
    """

    kind: str  # PullUnequal | PullEqual | Expand | ChangeSignIntegral | ChangeSignHalf
    before: Tuple[Rec, ...]
    after: Tuple[Tuple[Rec, ...], ...]

    @property
    def measure_before(self) -> Tuple[int, int, int]:
        return measure(self.before)

    @property
    def measure_after(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(map(measure, self.after))

    def decreases(self) -> bool:
        return decreases(self.before, self.after)
