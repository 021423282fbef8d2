"""Property tests, with shrinking, over random multi-fiber parameters."""

from hypothesis import given, settings
from hypothesis import strategies as st

from arthur_packets.characters import eps_l_eta
from arthur_packets.core import (
    AdmissibleOrder,
    JordanBlock,
    Parameter,
    RhoLabel,
    SignedData,
    is_admissible,
    natural_order,
)
from arthur_packets.engine import Engine, rewrite
from arthur_packets.halfint import HalfInt
from arthur_packets.packets import candidates, enumerate_packet, packet_size
from arthur_packets.reductions import measure
from test_acceptance import _fibers  # the records decide builds


@st.composite
def fiber_blocks(draw, rho):
    """2-3 blocks on one rho, with criterion 5's coordinate ranges.

    Criterion 5 draws up to 4 blocks a fiber; two such fibers have grids of
    up to 6**8 points, too many to enumerate 60 times in a unit test.
    """
    half = draw(st.sampled_from((0, 1)))
    blocks = []
    for _ in range(draw(st.integers(2, 3))):
        tB = 2 * draw(st.integers(0, 3)) + half
        tA = tB + 2 * draw(st.integers(0, 4))
        blocks.append(JordanBlock(rho, HalfInt(tA), HalfInt(tB), draw(st.sampled_from((1, -1)))))
    return tuple(blocks)


two_fibers = st.tuples(
    fiber_blocks(RhoLabel("r0", "orthogonal", 1)),
    fiber_blocks(RhoLabel("r1", "orthogonal", 1)),
)


def _signed_counts(blocks, engine):
    """(p, m): a one-fiber parameter's nonvanishing grid points by sign product."""
    psi = Parameter(blocks)
    order = natural_order(psi)
    p = m = 0
    for data in candidates(psi):
        if not engine._decide_unchecked(_fibers(psi, order, data)).nonvanishing:
            continue
        sign = 1
        for blk, l, eta in zip(blocks, data.l, data.eta):
            sign *= eps_l_eta(blk, l, eta)
        if sign == 1:
            p += 1
        else:
            m += 1
    return p, m


@settings(max_examples=60, deadline=None)
@given(two_fibers)
def test_packet_size_factors_over_fibers(fibers):
    # Verdicts are conjunctions of independent per-fiber verdicts, and the
    # quasisplit constraint keeps the choices whose signs multiply to +1.
    engine = Engine()
    (p0, m0), (p1, m1) = (_signed_counts(blocks, engine) for blocks in fibers)
    want = ((p0 + m0) * (p1 + m1) + (p0 - m0) * (p1 - m1)) // 2
    assert packet_size(Parameter(fibers[0] + fibers[1]), engine=engine) == want


@settings(max_examples=40, deadline=None)
@given(
    fiber_blocks(RhoLabel("r", "orthogonal", 1)),
    st.integers(0, 3),
    st.sampled_from((1, -1)),
)
def test_far_away_shift_keeps_the_packet(blocks, d, zeta):
    # A block (B + d, B, zeta) far above the rest of its fiber: moving it ten
    # times further away keeps the packet.  Both distances lie above every
    # level-2 far-away threshold of these ranges (2B about 10 200 at most).
    rho, half = blocks[0].rho, blocks[0].B.twice % 2
    packets = []
    for twice_b in (20_000 + half, 200_000 + half):
        far = JordanBlock(rho, HalfInt(twice_b + 2 * d), HalfInt(twice_b), zeta)
        psi = Parameter(blocks + (far,))
        packets.append([(m.l, m.eta) for m in enumerate_packet(psi, natural_order(psi))])
    assert packets[0] == packets[1]


@settings(max_examples=40, deadline=None)
@given(
    fiber_blocks(RhoLabel("r0", "orthogonal", 1)),
    fiber_blocks(RhoLabel("r1", "orthogonal", 1)).map(lambda blocks: blocks[0]),
    st.integers(0, 3),
)
def test_fresh_rho_block_keeps_the_other_fibers_verdicts(blocks, fresh, pos):
    # The packet plan's premise: a fiber's verdict does not see the other
    # fibers.  The fresh block goes in at any occurrence index, so the
    # fibers interleave.
    pos = min(pos, len(blocks))
    psi = Parameter(blocks)
    wide = Parameter(blocks[:pos] + (fresh,) + blocks[pos:])
    order, wide_order = natural_order(psi), natural_order(wide)
    engine, wide_engine = Engine(), Engine()
    for data in candidates(psi):
        want = engine._decide_unchecked(_fibers(psi, order, data)).nonvanishing
        for extra in candidates(Parameter((fresh,))):
            l = data.l[:pos] + extra.l + data.l[pos:]
            eta = data.eta[:pos] + extra.eta + data.eta[pos:]
            got = wide_engine._decide_unchecked(_fibers(wide, wide_order, SignedData(l, eta)))
            assert got.nonvanishing == want, (data, extra)


@st.composite
def parameter_and_order(draw):
    """1-6 blocks on up to two interleaved rhos, and any order of their fibers."""
    rhos = [RhoLabel("r0", "orthogonal", 1), RhoLabel("r1", "symplectic", 2)]
    half = draw(st.sampled_from((0, 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        tB = 2 * draw(st.integers(0, 3)) + half
        tA = tB + 2 * draw(st.integers(0, 4))
        rho = draw(st.sampled_from(rhos))
        blocks.append(JordanBlock(rho, HalfInt(tA), HalfInt(tB), draw(st.sampled_from((1, -1)))))
    per_rho = [
        draw(st.permutations([i for i, blk in enumerate(blocks) if blk.rho == rho]))
        for rho in rhos
    ]
    per_rho = [t for t in per_rho if t]  # a rho without blocks has no fiber
    order = AdmissibleOrder(tuple(map(tuple, draw(st.permutations(per_rho)))))
    return Parameter(tuple(blocks)), order


@settings(max_examples=200, deadline=None)
@given(parameter_and_order())
def test_cached_derived_data_matches_a_fresh_computation(case):
    psi, order = case
    blocks = psi.blocks
    for _ in range(2):
        assert psi.records == tuple((b.A.twice, b.B.twice, b.zeta) for b in blocks)
        assert psi.l_max == tuple(b.l_max() for b in blocks)
        fibers = {}
        for i, b in enumerate(blocks):
            fibers.setdefault(b.rho, []).append(i)
        assert psi.fibers() == {rho: tuple(ix) for rho, ix in fibers.items()}
        assert order.fibers() == sorted((t for t in order.per_rho if t), key=min)
        assert order.rank() == {occ: len(t) - k for t in order.per_rho for k, occ in enumerate(t)}
        # Condition (P) on HalfInt coordinates: no block strictly dominates
        # a greater block of the same zeta.
        admissible = not any(
            blocks[lo].zeta == blocks[up].zeta
            and blocks[lo].A > blocks[up].A
            and blocks[lo].B > blocks[up].B
            for t in order.per_rho
            for k, up in enumerate(t)
            for lo in t[k + 1 :]
        )
        assert is_admissible(order, psi) == admissible
        assert is_admissible(AdmissibleOrder(order.per_rho), Parameter(blocks)) == admissible


def _measure_reference(recs):
    """The termination measure as first written: the top record by max."""
    if not recs:
        return (0, 0, 0)
    top = max(recs, key=lambda rec: (rec[0], rec[1]))
    return (len(recs), sum(rec[1] for rec in recs), sum(1 for rec in recs if rec[2] != top[2]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 2),
            st.sampled_from((1, -1)),
            st.integers(0, 3),
            st.sampled_from((1, -1)),
        ),
        max_size=6,
    )
)
def test_measure_matches_the_reference(recs):
    # Small coordinate ranges, so that ties on (2A, 2B) are common.
    recs = tuple((tA + tB, tB, zeta, l, eta) for tA, tB, zeta, l, eta in recs)
    assert measure(recs) == _measure_reference(recs)


@st.composite
def canonical_records(draw):
    """2-5 records of one fiber in natural order, with criterion 5's
    coordinate ranges and data within bounds."""
    half = draw(st.sampled_from((0, 1)))
    recs = []
    for _ in range(draw(st.integers(2, 5))):
        tB = 2 * draw(st.integers(0, 3)) + half
        tA = tB + 2 * draw(st.integers(0, 4))
        l = draw(st.integers(0, ((tA - tB) // 2 + 1) // 2))
        recs.append((tA, tB, draw(st.sampled_from((1, -1))), l, draw(st.sampled_from((1, -1)))))
    return sorted(recs, key=lambda rec: rec[:2])


def _fresh_verdict(recs):
    return Engine()._fiber_decide(recs, None)


@settings(max_examples=300, deadline=None)
@given(canonical_records())
def test_rewrite_contract_on_random_fibers(recs):
    # The shrinking form of test_reductions::test_rewrite_contract.  Sorted
    # records need no swap; canonicalizing only sets the invisible etas.
    canon = Engine._canonicalize(recs)
    step, ok = rewrite(canon)
    if step is None:
        assert _fresh_verdict(canon) == ok
        return
    assert step.before == canon
    conjunction = all(_fresh_verdict(sub) for sub in step.after)
    # Only a Pull-equal step also asks the pair's basic condition.
    assert _fresh_verdict(canon) == (ok and conjunction)
    if step.kind != "PullEqual":
        assert ok
    assert rewrite(step.before)[0] == step
