"""Planted-error self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For every workload it runs one operation and confirms that the check passes
the true output.  It then plants one wrong answer, an engine whose first
decision is inverted, and confirms that the check rejects the result.  The
multifiber check has four rules, so it also plants one output error aimed at
each rule and confirms that the named rule fires.  Exits 1 if a check lets a
planted error through.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import run

ok = True


def report(label: str, passed: bool, detail: str = "") -> None:
    global ok
    ok &= passed
    print(f"{'ok  ' if passed else 'FAIL'} {label}{': ' + detail if detail else ''}")


@contextmanager
def inverted_first_decision(lib):
    """Make ``lib.engine.Engine`` an engine that inverts its first verdict."""
    base = lib.engine.Engine
    calls = []

    class Planted(base):
        def _decide_unchecked(self, *args, **kwargs):
            verdict = super()._decide_unchecked(*args, **kwargs)
            calls.append(None)
            if len(calls) == 1:
                return lib.engine.Verdict(not verdict.nonvanishing, verdict.trace)
            return verdict

    lib.engine.Engine = Planted
    try:
        yield
    finally:
        lib.engine.Engine = base


def check_workload(workload, op) -> None:
    clean = workload.run(op)
    bad = workload.violations(op, clean)
    report(f"{workload.name}: true output passes", not bad, "; ".join(bad[:2]))
    with inverted_first_decision(workload.lib):
        planted = workload.run(op)
    bad = workload.violations(op, planted)
    report(f"{workload.name}: inverted engine verdict rejected", bool(bad), "; ".join(bad[:2]))


def multifiber_rules(workload, op) -> None:
    import checks

    packs, image = workload.run(op)
    ds, fibers = op["ds"], op["fibers"]
    packs = [[(d.l, d.eta) for d in p] for p in packs]
    image = [(d.l, d.eta) for d in image]

    def fires(label, phrase, packs_, image_):
        bad = checks.multifiber_violations(ds, fibers, packs_, image_)
        report(f"multifiber: {label} rejected", any(phrase in b for b in bad), "; ".join(bad[:2]))

    # Reorder rule: one transported member replaced by a copy of another.
    fires("wrong reorder image", "reorder", packs, [image[1]] + image[1:])
    # Sign rule: flip eta where it changes the block sign (d even, eta not free).
    member = next(
        (l, eta, i)
        for l, eta in packs[1]
        for i, d in enumerate(ds)
        if d % 2 == 0 and 2 * l[i] != d + 1
    )
    l, eta, i = member
    flipped = (l, eta[:i] + (-eta[i],) + eta[i + 1 :])
    fires("non-quasisplit member", "not quasisplit", [packs[0], packs[1] + [flipped], packs[2]], image)
    # Fiber-product rule: drop a member whose two fiber parts both occur in
    # other members of its sign class, from every packet and the image.
    def part(p, f):
        return tuple((p[0][i], p[1][i]) for i in fibers[f])

    victim = next(
        p
        for p in packs[1]
        if sum(part(q, 0) == part(p, 0) for q in packs[1]) > 1
        and sum(part(q, 1) == part(p, 1) for q in packs[1]) > 1
    )
    dropped = [q for q in packs[1] if q != victim]
    fires("member missing from a fiber product", "fiber projections", [dropped] * 3, dropped)
    # Order-invariance rule: one order loses a member.
    fires("size differing across orders", "depends on the order", [packs[0], packs[1], packs[2][1:]], image)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    lib = run.load_library()
    seed = 1
    golden = WORKLOADS["golden"](lib, seed)
    check_workload(golden, golden.ops[0])

    multifiber = WORKLOADS["multifiber"](lib, seed)
    op = min(
        (o for o in multifiber.ops if len(o["fibers"]) == 2 and o["size"] >= 200),
        key=lambda o: o["size"],
    )
    check_workload(multifiber, op)
    multifiber_rules(multifiber, op)

    deep = WORKLOADS["deep_chain"](lib, seed)
    check_workload(deep, min(deep.ops, key=lambda o: len(o["psi"].blocks)))

    oracle_compare = WORKLOADS["oracle_compare"](lib, seed)
    check_workload(oracle_compare, oracle_compare.ops[0])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
