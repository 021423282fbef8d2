"""Decision engine: nonvanishing of a packet member for given (l, eta).

The engine normalizes each rho-fiber to the natural order (A descending, ties
by B), transporting (l, eta) with ``transforms.transport``.  The pure kernel
``rewrite`` maps a canonical fiber to a verdict or to the subproblems of one
step; the only rewrites are Pull, Expand and Change sign.  Which rewrite
applies, and where, depends only on the fiber's skeleton (tA, tB, zeta), so
``rewrite(seq) = _apply(_rule(seq), seq)``: ``_rule`` decides the
skeleton's half, reading only (tA, tB, zeta), and ``_apply`` runs every data
check on the records.
``Engine`` walks that conjunction tree on an explicit stack, memoizing every
verdict, until every remaining piece is in good shape; a subproblem of 0 or
1 record always is, so the walk never opens one.  Good shape is a stop rule:
separated blocks, or one same-zeta pair, whose basic conditions the
kernel's fast fail has already checked.

A rewrite step is ``(kind, after, ok)``: its kind, the records of its
subproblems, and ``ok``, False only on a Pull-equal step whose basic condition
fails.  The termination measure reads only the skeleton, and a step's
subproblem skeletons follow from its fiber's skeleton and rule, so whether a
rule decreases the measure does not depend on (l, eta).  ``Engine`` checks it
with ``reductions.decreases`` on every step of its first decision, which
stores no rule, and on the first step of each stored rule after that; it
builds ``ReductionStep`` records only for a trace or a failed check.

Internally a fiber is a tuple of records (tA, tB, zeta, l, eta) listed in
ascending order (index 0 = least block), with tA, tB doubled coordinates.
``decide`` validates its ``(psi, order, data)`` and builds those records;
``_decide_unchecked`` takes them directly, as the packet plan does, with
each fiber's canonicalization plan (``_plan``, which also names the canonical
skeleton it sorts to) when the caller knows its skeleton in advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .characters import quasisplit_ok
from .core import (
    AdmissibleOrder,
    DataError,
    InvariantError,
    Parameter,
    SignedData,
    is_admissible,
)
from .reductions import ReductionStep, change_sign, decreases, expand_amount
from .transforms import (
    Rec,
    TransformPreconditionError,
    _SIGN,
    fiber_records,
    sup_condition_ok,
    swap_along,
    swap_records,
    swap_schedule,
    transport,
)


class RecursionLimitError(RuntimeError):
    """The engine exceeded its reduction-step budget."""


@dataclass(frozen=True)
class Verdict:
    nonvanishing: bool
    trace: Tuple = ()


# The verdicts of an untraced decision, shared: a Verdict is immutable.
_HOLDS = Verdict(True)
_VANISHES = Verdict(False)


def basic_ok(lower: Rec, upper: Rec) -> bool:
    """The two-block condition for a comparable pair (upper dominates lower)."""
    tA1, tB1, _z1, l1, e1 = lower
    tA2, tB2, _z2, l2, e2 = upper
    if e2 == _SIGN[((tA1 - tB1) // 2) & 1] * e1:
        return tA2 - 2 * l2 >= tA1 - 2 * l1 and tB2 + 2 * l2 >= tB1 + 2 * l1
    return tB2 + 2 * l2 > tA1 - 2 * l1


# ---------------------------------------------------------------------------
# Good shape (record level)
# ---------------------------------------------------------------------------

def _good_shape(recs: Sequence[Rec]) -> bool:
    """Whether an ascending fiber is in good shape: one same-zeta pair whose
    2A and 2B do not decrease, or blocks each of whose 2B is above the 2A of
    the block below (0 or 1 record among them).

    The fast fail has checked the basic condition of every adjacent
    same-zeta pair, and that decides both cases.  Each case is a base case
    of the stop rule that this one replaced (greedy chunks of singletons and
    comparable same-zeta pairs, separated by minimal dominating stacks):
    over every ascending single-fiber skeleton of 2-4 blocks with 2A <= 14
    (<= 15 half-integral) and of 5 blocks with 2A <= 10 (<= 11), 6 172 656
    in all, this rule stops on none that the chunk rule did not, and on the
    50 216 where the two answer otherwise the rewrites reach the same
    verdict on all 2 569 768 grid points, each rule in force for the whole
    walk.  Every canonical fiber is a point of its skeleton's canonical
    grid, so that search is exhaustive on the bound.  Over the same bound,
    stopping only on separated blocks, or only on 0 or 1 record, changes
    no verdict either; ``tools/good_shape_search.py`` runs those two
    searches, on this bound by default or on a wider one.
    """
    if len(recs) == 2:
        lo, up = recs
        if lo[2] == up[2] and up[0] >= lo[0] and up[1] >= lo[1]:
            return True
    return all(up[1] > lo[0] for lo, up in zip(recs, recs[1:]))


# ---------------------------------------------------------------------------
# Rewrite kernel: a rule from the skeleton, applied to the records
# ---------------------------------------------------------------------------

# Type aliases for readers and type checkers; the import defines none of them.
if TYPE_CHECKING:
    # A fiber's skeleton: the (tA, tB, zeta) of its records, in order.
    Skeleton = Tuple[Tuple[int, int, int], ...]
    # What one rewrite does to every fiber of a canonical skeleton, as
    # (checks, kind, arg); see ``_rule``.
    Rule = Tuple[List[Tuple[int, bool, int, int]], str, Union[range, int, str, None]]
    # How to canonicalize a subproblem of a known skeleton: its sort
    # schedule, its (position, l) pairs where eta is invisible (A - B odd,
    # l maximal) and the canonical skeleton that the schedule sorts to.
    Plan = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], Skeleton]


def _rule(fiber: Sequence[Rec]) -> Rule:
    """The rule of a canonical fiber: everything a rewrite decides without
    looking at (l, eta), as ``(checks, kind, arg)``.  It reads only the
    (2A, 2B, zeta) of each record, so it is a function of the skeleton.

    ``checks`` lists the fast fail's adjacent same-zeta pairs in turn, as
    ``(i, basic, d_up, d_lo)``: ``basic_ok`` when the upper block's B is not
    below the lower one's, else ``sup_condition_ok`` with the pair's A - B.
    ``kind`` is ``Good`` (the stop rule), ``PullUnequal``, ``PullEqual``,
    ``Expand``, ``ChangeSign`` or ``Invariant``; ``arg`` is the swap
    positions, the Expand amount, or the failed site's message.
    """
    n = len(fiber)
    checks = []
    for i in range(n - 1):
        lo, up = fiber[i], fiber[i + 1]
        if lo[2] == up[2]:
            checks.append((i, up[1] >= lo[1], (up[0] - up[1]) // 2, (lo[0] - lo[1]) // 2))
    # Good shape's one pair is an adjacent same-zeta comparable pair:
    # checked by the fast fail.
    if _good_shape(fiber):
        return (checks, "Good", None)

    P = fiber[-1]
    top_a, top_b, top_z = P[:3]
    # The lower same-zeta blocks whose interval P strictly contains.
    pull = [
        i
        for i, rec in enumerate(fiber[:-1])
        if rec[2] == top_z
        and rec[1] >= top_b
        and rec[0] <= top_a
        and (rec[1] > top_b or rec[0] < top_a)
    ]
    if pull:
        # The greatest contained block moves up to just below P.
        q = max(pull, key=lambda i: (fiber[i][0], fiber[i][1], i))
        return (checks, "PullUnequal", range(q, n - 2))
    equal = [
        i
        for i, rec in enumerate(fiber[:-1])
        if rec[0] == top_a and rec[1] == top_b and rec[2] == top_z
    ]
    if equal:
        # Blocks between equal-interval partners share the key and have the
        # opposite zeta, so these are all U-swaps.
        return (checks, "PullEqual", range(max(equal), n - 2))
    rest = fiber[:-1]
    # A site that fails is raised only once the fast fail has passed.
    try:
        t = expand_amount(P, rest)
    except InvariantError as exc:
        return (checks, "Invariant", str(exc))
    if t >= 1:
        return (checks, "Expand", t)
    # B of the top block is 0 or 1/2, and every lower block has the
    # opposite zeta: move it to the bottom with U-swaps, change sign.
    if any(rec[2] == top_z for rec in rest):
        return (checks, "Invariant", "Change-sign site: a lower block has the same zeta")
    return (checks, "ChangeSign", range(n - 2, -1, -1))


def _apply(
    rule: Rule, seq: Tuple[Rec, ...]
) -> Tuple[Optional[str], Tuple[Tuple[Rec, ...], ...], bool]:
    """Run a rule on a canonical fiber of its skeleton, checking the data.

    Returns ``(kind or None, after, ok)``: the kind of the step taken, the
    records of its subproblems (``()`` when no step is taken), and ``ok``.
    The verdict is False when ``ok`` is, else the conjunction of ``after``'s.
    """
    checks, kind, arg = rule
    for i, basic, d_up, d_lo in checks:
        lo, up = seq[i], seq[i + 1]
        if basic:
            if not basic_ok(lo, up):
                return None, (), False
        elif not sup_condition_ok(d_up, d_lo, up[3], up[4], lo[3], lo[4]):
            return None, (), False
    if kind == "Good":
        return None, (), True
    if kind == "PullUnequal":
        try:
            work = swap_along(seq, arg)
            Q, P = work[-2:]
            # S+ on the nested pair: P's data in the order with Q above.  It
            # raises exactly when the pair's basic condition fails.
            P_swapped, _ = swap_records(Q, P)
        except TransformPreconditionError:
            return None, (), False
        rest = tuple(work[:-2])
        return kind, (rest, rest + (Q,), rest + (P_swapped,)), True
    if kind == "PullEqual":
        work = swap_along(seq, arg)
        R, P = work[-2:]
        rest = tuple(work[:-2])
        return kind, (rest, rest + (R,)), basic_ok(R, P)
    if kind == "Expand":
        P = seq[-1]
        expanded = (P[0] + 2 * arg, P[1] - 2 * arg, P[2], P[3] + arg, P[4])
        return kind, ((*seq[:-1], expanded),), True
    if kind == "ChangeSign":
        work = swap_along(seq, arg)
        kind, changed = change_sign(work[0])
        return kind, ((changed, *work[1:]),), True
    raise InvariantError(arg)


def rewrite(seq: Tuple[Rec, ...]) -> Tuple[Optional[ReductionStep], bool]:
    """One rewrite of a canonical fiber: ``(step or None, ok)``.

    The fiber's verdict is False when ``ok`` is, else the conjunction of the
    verdicts of ``step.after`` (True when there is no step).  Only a
    Pull-equal step whose basic condition fails has ``ok`` False.
    """
    kind, after, ok = _apply(_rule(seq), seq)
    return (None if kind is None else ReductionStep(kind, seq, after)), ok


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _plan(recs: Sequence[Rec]) -> Plan:
    """The plan that canonicalizes ``recs``, and every fiber of their skeleton."""
    # The stable sort that the schedule performs, on the skeleton.
    skeleton = tuple(sorted([rec[:3] for rec in recs], key=lambda s: s[:2]))
    free = tuple(
        (i, (tA - tB + 2) // 4) for i, (tA, tB, _z) in enumerate(skeleton) if (tA - tB) % 4 == 2
    )
    return tuple(swap_schedule([rec[:2] for rec in recs])), free, skeleton


class Engine:
    """Decides fibers, memoizing every verdict by canonical fiber.

    A rule is a pure function of the canonical skeleton, so from its second
    top-level decision on an engine stores every rule it computes under it,
    with the plans of its subproblems that can fail (2 or more records); a
    plan names the canonical skeleton to read a rule under.  Its first
    decision stores none: an engine that decides one fiber would only pay
    for them in memory.  The measure decrease is checked on each step whose
    rule is not stored, and on a stored rule's first step, which fills its
    plans whatever that step's verdict.

    ``_grids`` holds the packet plan's fiber grids (``packets._choices``
    rows by fiber records) of one parameter, ``_grids_of``, the last one
    planned: the orders of a parameter share them.
    """

    def __init__(self, recursion_limit: int = 10000):
        self.recursion_limit = recursion_limit
        self._memo = {}
        self._steps = 0
        # canonical skeleton -> [rule, None until the rule's first step, then
        # the (index, plan) of each of that step's subproblems that can fail]
        self._rules: Dict[Skeleton, list] = {}
        self._decisions = 0
        self._grids: Dict[tuple, list] = {}
        self._grids_of: Optional[Parameter] = None

    # -- fiber normalization ---------------------------------------------

    @staticmethod
    def _canonicalize(seq: Sequence[Rec]) -> Tuple[Rec, ...]:
        """Sort into ascending natural order, transporting the data, and set
        eta = +1 where it is invisible (2l = A - B + 1).

        Raises TransformPreconditionError when a same-zeta swap finds its
        necessary condition violated (which implies the verdict is False).
        """
        work = transport(seq, [(rec[0], rec[1]) for rec in seq])
        for i, rec in enumerate(work):
            if 4 * rec[3] == rec[0] - rec[1] + 2:
                work[i] = (rec[0], rec[1], rec[2], rec[3], 1)
        return tuple(work)

    # -- fiber decision ---------------------------------------------------

    def _fiber_decide(
        self, seq: Sequence[Rec], trace: Optional[list], plan: Optional[Plan] = None
    ) -> bool:
        """Decide a fiber by a depth-first walk of the rewrites' conjunctions.

        ``plan``, when given, is ``_plan`` of the fiber's skeleton, and the
        walk canonicalizes by it in place of ``_canonicalize``.  A node
        with nothing to open (no step, a failed step, or a step whose
        subproblems all have at most one record) is memoized where it is
        decided; a stack frame is pushed only to open a subproblem, and
        closes, memoized, once a subproblem fails or all hold.  Memo hits
        are reused with or without a trace, so a trace lists only the steps
        this walk takes.  The walk counts steps in a local, written back to
        ``_steps`` on return and before raising.
        """
        self._decisions += 1
        first = self._decisions == 1
        memo, rules = self._memo, self._rules
        steps, limit = self._steps, self.recursion_limit
        stack: List[Tuple[Tuple[Rec, ...], tuple, Iterator]] = []
        pending = seq
        while True:
            try:
                if plan is None:
                    canon = self._canonicalize(pending)
                elif plan[0] or plan[1]:
                    work = swap_along(pending, plan[0])
                    for i, l in plan[1]:
                        rec = work[i]
                        if rec[3] == l:
                            work[i] = (rec[0], rec[1], rec[2], l, 1)
                    canon = tuple(work)
                else:
                    # Nothing to swap and no eta that can be invisible.
                    canon = tuple(pending)
            except TransformPreconditionError:
                verdict = False
            else:
                verdict = memo.get(canon)
                if verdict is None:
                    if first:
                        stored = [_rule(canon), None]
                    else:
                        skeleton = plan[2] if plan else tuple([rec[:3] for rec in canon])
                        stored = rules.get(skeleton)
                        if stored is None:
                            stored = rules[skeleton] = [_rule(canon), None]
                    kind, after, verdict = _apply(stored[0], canon)
                    if kind is not None:
                        if stored[1] is None:
                            if not decreases(canon, after):
                                self._steps = steps
                                step = ReductionStep(kind, canon, after)
                                raise InvariantError(
                                    f"termination measure failed to decrease on {kind}: "
                                    f"{step.measure_before} -> {step.measure_after}"
                                )
                            stored[1] = tuple(
                                (i, None if first else _plan(sub))
                                for i, sub in enumerate(after)
                                if len(sub) > 1
                            )
                        steps += 1
                        if steps > limit:
                            self._steps = steps
                            raise RecursionLimitError(f"reduction-step budget of {limit} exceeded")
                        if trace is not None:
                            trace.append(ReductionStep(kind, canon, after))
                        if verdict and stored[1]:
                            # Open the first subproblem at once.
                            subs = iter(stored[1])
                            i, plan = next(subs)
                            stack.append((canon, after, subs))
                            pending = after[i]
                            continue
                    memo[canon] = verdict
            # Hand the verdict up: open the next subproblem or close the frame.
            while stack:
                canon, after, subs = stack[-1]
                sub = next(subs, None) if verdict else None
                if sub is not None:
                    pending, plan = after[sub[0]], sub[1]
                    break
                stack.pop()
                memo[canon] = verdict
            else:
                self._steps = steps
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
        fibers = [fiber_records(psi, reversed(f), data.l, data.eta) for f in order.per_rho]
        return self._decide_unchecked(fibers, collect_trace)

    def _decide_unchecked(
        self,
        fibers: Sequence[Sequence[Rec]],
        collect_trace: bool = False,
        plans: Optional[Sequence[Plan]] = None,
    ) -> Verdict:
        """The conjunction of the fibers' verdicts, each fiber given as its
        records in ascending order; nothing is validated here.  The one
        per-decision entry point: it walks the fibers in turn with
        ``_fiber_decide`` until one vanishes, all on one step budget.

        ``plans``, aligned with ``fibers``, holds each fiber's ``_plan``
        when its skeleton is known in advance, as in the packet plan: then
        canonicalizing it computes no sort schedule and no skeleton.
        """
        trace: Optional[list] = [] if collect_trace else None
        self._steps = 0
        ok = True
        for seq, plan in zip(fibers, plans or [None] * len(fibers)):
            if not self._fiber_decide(seq, trace, plan):
                ok = False
                break
        if trace is None:
            return _HOLDS if ok else _VANISHES
        return Verdict(ok, tuple(trace))
