"""Decision engine: nonvanishing of a packet member for given (l, eta).

The engine normalizes each rho-fiber to the natural order (A descending, ties
by B), transporting (l, eta) with ``transforms.transport``.  The pure kernel
``rewrite`` maps a canonical fiber to a verdict or to the subproblems of one
step; the only rewrites are Pull, Expand and Change sign.  ``Engine`` walks
that conjunction tree on an explicit stack, memoizing every verdict, until
every remaining piece is in good shape.  Good shape is a stop rule: its pair
chunks are adjacent same-zeta pairs, whose basic condition the kernel's fast
fail has already checked.

Internally a fiber is a tuple of records (tA, tB, zeta, l, eta) listed in
ascending order (index 0 = least block), with tA, tB doubled coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .characters import quasisplit_ok
from .core import AdmissibleOrder, DataError, Parameter, SignedData, is_admissible
from .reductions import ReductionStep, change_sign, expand_amount
from .transforms import (
    Rec,
    TransformPreconditionError,
    _sgn_pow,
    fiber_records,
    sup_condition_ok,
    swap_records,
    transport,
)


class RecursionLimitError(RuntimeError):
    """The engine exceeded its reduction-step budget."""


@dataclass(frozen=True)
class Verdict:
    nonvanishing: bool
    trace: Tuple = ()


def _d(rec: Rec) -> int:
    return (rec[0] - rec[1]) // 2


def basic_ok(lower: Rec, upper: Rec) -> bool:
    """The two-block condition for a comparable pair (upper dominates lower)."""
    tA1, tB1, _z1, l1, e1 = lower
    tA2, tB2, _z2, l2, e2 = upper
    if e2 == _sgn_pow(_d(lower)) * e1:
        return tA2 - 2 * l2 >= tA1 - 2 * l1 and tB2 + 2 * l2 >= tB1 + 2 * l1
    return tB2 + 2 * l2 > tA1 - 2 * l1


# ---------------------------------------------------------------------------
# Good shape (record level)
# ---------------------------------------------------------------------------

def _good_shape(recs: Sequence[Rec]) -> bool:
    """Whether an ascending fiber splits into separated singleton/pair chunks.

    A pair chunk must be same-zeta and comparable; the separation conditions
    are checked with minimal dominating stacks: each block of a chunk must
    have B above the stacked version of everything below, and every block
    above the chunk must have B above the worst-case minimal stack of the
    chunk itself.
    """
    n = len(recs)
    for lo, up in zip(recs, recs[1:]):
        if up[0] < lo[0] or up[1] < lo[1]:
            return False
    # prefix_top[i] = top of the greedy minimal interval-disjoint dominating
    # stack of recs[0..i-1] (None when empty).
    prefix_top: List[Optional[int]] = [None] * (n + 1)
    top: Optional[int] = None
    for i, rec in enumerate(recs):
        start = rec[1] if top is None else max(rec[1], top + 2)
        top = start + (rec[0] - rec[1])
        prefix_top[i + 1] = top

    def chunk_ok(i: int, size: int) -> bool:
        below_top = prefix_top[i]
        if below_top is not None and recs[i][1] <= below_top:
            return False
        if size == 1:
            stack_top = recs[i][0]
        else:
            lo, up = recs[i], recs[i + 1]
            if lo[2] != up[2]:
                return False
            # Worst case over the admissible orders of the pair: the minimal
            # dominating stack top with the pair stacked either way.  The
            # reversed order is admissible only when the pair is not forced
            # by strict two-sided dominance.
            stack_top = up[0] + max(0, lo[0] - up[1] + 2)
            if not (up[0] > lo[0] and up[1] > lo[1]):
                stack_top = max(stack_top, lo[0] + max(0, up[0] - lo[1] + 2))
        j = i + size
        if j < n and recs[j][1] <= stack_top:
            return False
        return True

    feasible = [False] * (n + 1)
    feasible[n] = True
    for i in range(n - 1, -1, -1):
        feasible[i] = (i + 2 <= n and feasible[i + 2] and chunk_ok(i, 2)) or (
            feasible[i + 1] and chunk_ok(i, 1)
        )
    return feasible[0]


# ---------------------------------------------------------------------------
# Rewrite kernel
# ---------------------------------------------------------------------------

def _moved(seq: Sequence[Rec], src: int, dst: int) -> List[Rec]:
    """Move record ``src`` to position ``dst``, the others keeping their order."""
    keys = [2 * i for i in range(len(seq))]
    keys[src] = 2 * dst + (1 if dst > src else -1)
    return transport(seq, keys)


def rewrite(seq: Tuple[Rec, ...]) -> Tuple[Optional[ReductionStep], Union[bool, Tuple]]:
    """One rewrite of a canonical fiber: ``(step or None, outcome)``.

    ``outcome`` is the verdict or the tuple of subproblems whose conjunction
    is the verdict; only a Pull-equal step whose basic condition fails
    returns its step and False.
    """
    n = len(seq)

    # Fast fail: necessary conditions on adjacent same-zeta pairs.
    for i in range(n - 1):
        lo, up = seq[i], seq[i + 1]
        if lo[2] != up[2]:
            continue
        if up[1] >= lo[1]:
            if not basic_ok(lo, up):
                return None, False
        else:
            if not sup_condition_ok(_d(up), _d(lo), up[3], up[4], lo[3], lo[4]):
                return None, False

    # Every pair chunk is an adjacent same-zeta comparable pair: checked above.
    if _good_shape(seq):
        return None, True

    P = seq[-1]
    rest = list(seq[:-1])

    def contained(rec: Rec) -> bool:
        return (
            rec[2] == P[2]
            and rec[1] >= P[1]
            and rec[0] <= P[0]
            and (rec[1] > P[1] or rec[0] < P[0])
        )

    pull = [i for i in range(n - 1) if contained(seq[i])]
    equal = [
        i
        for i in range(n - 1)
        if seq[i][2] == P[2] and seq[i][0] == P[0] and seq[i][1] == P[1]
    ]

    if pull:
        q = max(pull, key=lambda i: (seq[i][0], seq[i][1], i))
        try:
            work = _moved(seq, q, n - 2)
            P = work[-1]
            Q = work[-2]
            # S+ on the nested pair: P's data in the order with Q above.  It
            # raises exactly when the pair's basic condition fails.
            P_swapped, _ = swap_records(Q, P)
        except TransformPreconditionError:
            return None, False
        rest = work[:-2]
        step = ReductionStep.make(
            "PullUnequal", seq, (rest, rest + [Q], rest + [P_swapped])
        )
        return step, step.after

    if equal:
        # Blocks between equal-interval partners share the key and have the
        # opposite zeta, so these are all U-swaps.
        work = _moved(seq, max(equal), n - 2)
        P = work[-1]
        R = work[-2]
        rest = work[:-2]
        step = ReductionStep.make("PullEqual", seq, (rest, rest + [R]))
        return step, basic_ok(R, P) and step.after

    t = expand_amount(P, rest)
    if t >= 1:
        expanded = (P[0] + 2 * t, P[1] - 2 * t, P[2], P[3] + t, P[4])
        step = ReductionStep.make("Expand", seq, (rest + [expanded],))
        return step, step.after

    # B of the top block is 0 or 1/2, and every lower block has the
    # opposite zeta: move it to the bottom with U-swaps, change sign.
    if any(rec[2] == P[2] for rec in rest):
        raise AssertionError("Change-sign site: a lower block has the same zeta")
    work = _moved(seq, n - 1, 0)
    kind, changed = change_sign(work[0])
    step = ReductionStep.make(kind, seq, ([changed] + work[1:],))
    return step, step.after


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class Engine:
    def __init__(self, recursion_limit: int = 10000):
        self.recursion_limit = recursion_limit
        self._memo = {}
        self._steps = 0

    # -- fiber normalization ---------------------------------------------

    @staticmethod
    def _canonicalize(seq: Sequence[Rec]) -> Tuple[Rec, ...]:
        """Sort into ascending natural order, transporting the data.

        Raises TransformPreconditionError when a same-zeta swap finds its
        necessary condition violated (which implies the verdict is False).
        """
        work = transport(seq, [(rec[0], rec[1]) for rec in seq])
        for i, rec in enumerate(work):
            if 2 * rec[3] == _d(rec) + 1:
                work[i] = (rec[0], rec[1], rec[2], rec[3], 1)
        return tuple(work)

    # -- fiber decision ---------------------------------------------------

    def _fiber_decide(self, seq: Sequence[Rec], trace: Optional[list]) -> bool:
        """Decide a fiber by a depth-first walk of ``rewrite``'s conjunctions.

        A stack frame closes, memoized, once a subproblem fails or all hold.
        Memo hits are reused with or without a trace, so a trace lists only
        the steps this walk takes.
        """
        stack: List[Tuple[Tuple[Rec, ...], Iterator]] = []
        pending = seq
        while True:
            try:
                canon = self._canonicalize(pending)
            except TransformPreconditionError:
                verdict = False
            else:
                verdict = self._memo.get(canon)
                if verdict is None:
                    step, outcome = rewrite(canon)
                    if step is not None:
                        if not step.decreases():
                            raise AssertionError(
                                f"termination measure failed to decrease on {step.kind}: "
                                f"{step.measure_before} -> {step.measure_after}"
                            )
                        self._steps += 1
                        if self._steps > self.recursion_limit:
                            raise RecursionLimitError(
                                f"reduction-step budget of {self.recursion_limit} exceeded"
                            )
                        if trace is not None:
                            trace.append(step)
                    verdict = outcome is not False
                    stack.append((canon, iter(outcome if isinstance(outcome, tuple) else ())))
            # Hand the verdict up: open the next subproblem or close the frame.
            while stack:
                canon, subs = stack[-1]
                pending = next(subs, None) if verdict else None
                if pending is not None:
                    break
                stack.pop()
                self._memo[canon] = verdict
            else:
                return verdict

    # -- public API -------------------------------------------------------

    def decide(
        self,
        psi: Parameter,
        order: AdmissibleOrder,
        data: SignedData,
        collect_trace: bool = False,
    ) -> Verdict:
        data.check_bounds(psi)
        if not is_admissible(order, psi):
            raise DataError("order is not admissible")
        if not quasisplit_ok(psi, data):
            raise DataError("data violates the quasisplit product constraint")
        return self._decide_unchecked(psi, order, data, collect_trace)

    def _decide_unchecked(
        self,
        psi: Parameter,
        order: AdmissibleOrder,
        data: SignedData,
        collect_trace: bool = False,
    ) -> Verdict:
        trace: Optional[list] = [] if collect_trace else None
        self._steps = 0
        ok = all(
            self._fiber_decide(fiber_records(psi, reversed(fiber), data.l, data.eta), trace)
            for fiber in order._fibers
        )
        return Verdict(ok, tuple(trace) if trace is not None else ())

