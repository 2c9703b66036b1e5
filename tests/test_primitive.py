"""Recognition, certificates, enumeration and the structural checks."""

import hashlib
import itertools
import json
import random
import time
import types
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gf3sets import (
    CertificateError,
    CheckResult,
    PrimitiveCertificate,
    TernarySet,
    check_lemma,
    classify_set,
    enumerate_maximal_sumfree,
    enumerate_primitive,
    gl_order,
    is_maximal_sum_free,
    is_subprimitive,
    is_sum_free,
    lev_construction,
    recognize_primitive,
    stabilizer_order,
    validate_certificate,
)
from gf3sets import canon, cli
from gf3sets import halves
from gf3sets import primitive as prim
from gf3sets import subspaces as sub
from gf3sets.core import _maximal_sum_free_lanes, format_set_text
from gf3sets.space import iter_bits, member_columns


def lev3():
    return lev_construction(3)


def test_counts_dim1():
    sets = enumerate_primitive(1)
    assert sorted(s.indices() for s in sets) == [[1], [2]]


def test_counts_dim2():
    sets = enumerate_primitive(2)
    assert len(sets) == 8
    lines = {h.members_bits for h in sub.enumerate_hyperplanes(2, avoid_origin=True)}
    assert {s.bits for s in sets} == lines
    for s in sets:
        cert = recognize_primitive(s)
        assert cert is not None and cert.kind == "hyperplane"


def test_counts_dim3():
    sets = enumerate_primitive(3)
    hist = Counter(s.size for s in sets)
    assert hist == {5: 1872, 9: 26}
    reps = enumerate_primitive(3, up_to_iso=True)
    assert sorted(r.size for r in reps) == [5, 9]


def test_recognize_lev_dim3():
    a, cert = lev3()
    assert a.indices() == [2, 4, 10, 13, 22]
    validate_certificate(cert)
    assert cert.member_bits == a.bits
    got = recognize_primitive(a)
    assert got is not None and got.kind == "derived"
    validate_certificate(got)
    assert got.member_bits == a.bits


def test_recognition_is_invariant_under_the_group():
    a, _ = lev3()
    h9 = sub.enumerate_hyperplanes(3, avoid_origin=True)[5].members()
    rng = random.Random(7)
    for _ in range(10):
        g = canon.random_gl(3, rng)
        img_a = TernarySet(3, g.apply_bits(a.bits))
        img_h = TernarySet(3, g.apply_bits(h9.bits))
        ca = recognize_primitive(img_a)
        ch = recognize_primitive(img_h)
        assert ca is not None and ca.kind == "derived" and ca.member_bits == img_a.bits
        assert ch is not None and ch.kind == "hyperplane"
        validate_certificate(ca)


def test_maximal_but_not_primitive():
    # the lone small orbit of maximal sum-free sets in dimension 3
    rep = enumerate_maximal_sumfree(3, min_size=4, up_to_iso=True)
    (idxs, stab, _), = (r for r in rep.representatives if len(r[0]) == 4)
    assert stab == 24
    a = TernarySet.from_indices(3, idxs)
    assert recognize_primitive(a) is None
    assert not is_subprimitive(a)
    assert classify_set(a).maximal


def test_certificate_json_roundtrip():
    _, cert = lev3()
    obj = cert.to_json()
    assert set(obj) == {"kind", "H", "U", "W", "X"}
    back = PrimitiveCertificate.from_json(obj)
    assert back.member_bits == cert.member_bits
    assert back.kind == "derived" and back.x.kind == "hyperplane"
    validate_certificate(back)

    h = PrimitiveCertificate("hyperplane", cert.h)
    again = PrimitiveCertificate.from_json(h.to_json())
    assert again.member_bits == cert.h.members_bits


def test_certificate_constructor_guards():
    _, cert = lev3()
    with pytest.raises(ValueError):
        PrimitiveCertificate("weird", cert.h)
    with pytest.raises(ValueError):
        PrimitiveCertificate("hyperplane", cert.h, u=cert.u)
    with pytest.raises(ValueError):
        PrimitiveCertificate("derived", cert.h, u=cert.u, w=cert.w)  # X missing


def _clause_of(cert):
    with pytest.raises(CertificateError) as e:
        validate_certificate(cert)
    assert e.value.depth == 0
    return e.value.clause


def test_validation_clause_reporting():
    a, cert = lev3()

    # hyperplane through the origin
    origin_h = sub.linear_subspace(3, (1, 3))
    assert _clause_of(PrimitiveCertificate("hyperplane", origin_h)) == "origin"

    # wrong dimension for the ambient space
    line = sub.affine_subspace(3, (3,), 1)
    assert _clause_of(PrimitiveCertificate("hyperplane", line)) == "hyperplane"

    bad_u = PrimitiveCertificate("derived", cert.h, u=sub.empty_subspace(3),
                                 w=cert.w, x=cert.x)
    assert _clause_of(bad_u) == "u-nonempty"

    full_u = PrimitiveCertificate("derived", cert.h, u=cert.h, w=cert.w, x=cert.x)
    assert _clause_of(full_u) == "u-proper"

    short_w = TernarySet(3, cert.w.bits & cert.w.bits - 1)
    bad_w = PrimitiveCertificate("derived", cert.h, u=cert.u, w=short_w, x=cert.x)
    assert _clause_of(bad_w) == "half"

    # X = {0} meets the direction space of U
    zero_x = PrimitiveCertificate("hyperplane", sub.affine_subspace(3, (), 0))
    bad_x = PrimitiveCertificate("derived", cert.h, u=cert.u, w=cert.w, x=zero_x)
    assert _clause_of(bad_x) == "ii"

    # X = U itself misses -U entirely
    u_x = PrimitiveCertificate("hyperplane", sub.affine_subspace(3, (), 1))
    miss_x = PrimitiveCertificate("derived", cert.h, u=cert.u, w=cert.w, x=u_x)
    assert _clause_of(miss_x) == "iv"


def test_an_empty_u_survives_the_json_roundtrip():
    _, cert = lev3()
    bad_u = PrimitiveCertificate("derived", cert.h, u=sub.empty_subspace(3),
                                 w=cert.w, x=cert.x)
    back = PrimitiveCertificate.from_json(bad_u.to_json())
    assert back == bad_u
    assert _clause_of(back) == "u-nonempty"


def test_validation_clause_iii():
    # in dimension 2 the core has codimension one, so X = -U is rejected
    h = sub.enumerate_hyperplanes(2, avoid_origin=True)[0]
    u = sub.affine_subspace(2, (), h.members().indices()[0])
    w = halves.enumerate_halves(h, u)[0]
    neg_pt = sub.affine_subspace(2, (), u.neg().members().indices()[0])
    cert = PrimitiveCertificate("derived", h, u=u, w=w,
                                x=PrimitiveCertificate("hyperplane", neg_pt))
    with pytest.raises(CertificateError) as e:
        validate_certificate(cert)
    assert e.value.clause == "iii"


def test_cone_of_subspace():
    pt = sub.affine_subspace(3, (), 1)
    cone = prim.cone_of_subspace(pt)
    assert cone.members().indices() == [0, 1, 2]
    with pytest.raises(ValueError):
        prim.cone_of_subspace(sub.empty_subspace(3))


def test_fixed_hyperplane_stream_dim3():
    stream = list(prim.iter_primitive_fixed_hyperplane(3))
    assert len(stream) == 145
    assert len(set(stream)) == 145
    pool = prim._all_primitive_bits(3)
    assert all(b in pool for b in stream)
    # closing the stream under the group recovers the full listing
    forms = {canon.canonical_form_bits(b, 3) for b in stream}
    assert forms == {canon.canonical_form_bits(b, 3) for b in pool}


def test_x_candidates_read_one_chart_list_per_cone():
    # Every block after the first holds the X candidates of its U, tested
    # in U's own RREF chart, and exactly the U without candidates are
    # skipped.  Every hyperplane at n = 2, 3; at n = 4 only the fixed one,
    # the only one the library builds a table for (the oracle takes about
    # a second per hyperplane there).
    planes = [h for n in (2, 3) for h in sub.enumerate_hyperplanes(n, avoid_origin=True)]
    skipped = 0
    for h in planes + [sub.enumerate_hyperplanes(4, avoid_origin=True)[0]]:
        want = []
        for udim in range(h.dim):
            for u in sub.enumerate_affine_subspaces(h, udim):
                cands = oracles.x_candidates_by_point(u, prim.cone_of_subspace(u), h)
                if cands:
                    want.append((halves.coset_pairs(h, u), sorted(cands, key=prim._set_key)))
                skipped += not cands
        assert list(prim._primitive_blocks(h)) == [([], [h.members_bits])] + want
    assert skipped > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_listing_is_the_union_of_every_hyperplanes_blocks(n):
    # the former construction: one block table per hyperplane, deduplicated
    want = set()
    for h in sub.enumerate_hyperplanes(n, avoid_origin=True):
        for pairs, cands in prim._primitive_blocks(h):
            want.update(prim._block_bits(pairs, cands))
    assert prim._all_primitive_bits(n) == tuple(sorted(want))


def test_the_stream_is_built_once_per_process(monkeypatch):
    built = []
    real = prim._primitive_blocks

    def counting(h):
        built.append(h.dim_ambient)
        return real(h)

    monkeypatch.setattr(prim, "_primitive_blocks", counting)
    prim._orbit_reps.cache_clear()
    prim._fixed_hyperplane_blocks.cache_clear()
    prim._fixed_hyperplane_family.cache_clear()
    try:
        prim._orbit_reps(3)
        # the columns and the stream read the same blocks
        prim._fixed_hyperplane_family(3)
        blocks = prim._fixed_hyperplane_blocks(3)
        h = sub.enumerate_hyperplanes(3, avoid_origin=True)[0]
        assert blocks[0] == ([], [h.members_bits])  # H is the first block
        stream = prim.iter_primitive_fixed_hyperplane(3)
        assert isinstance(stream, types.GeneratorType)
        first = list(stream)
        assert len(first) == 145 and first[0] == h.members_bits
        assert list(prim.iter_primitive_fixed_hyperplane(3)) == first
        assert built.count(3) == 1
    finally:
        prim._orbit_reps.cache_clear()


def test_orbit_representatives_are_cached(monkeypatch):
    calls = []
    real = canon.stabilizer_order_bits

    def counting(bits, n):
        calls.append(bits)
        return real(bits, n)

    monkeypatch.setattr(canon, "stabilizer_order_bits", counting)
    prim._orbit_reps.cache_clear()
    first = enumerate_primitive(3, up_to_iso=True)
    assert 0 < len(calls) < len(prim._all_primitive_bits(3))
    calls.clear()
    assert enumerate_primitive(3, up_to_iso=True) == first
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_accounting_matches_the_full_listing(n):
    assert prim._orbit_reps(n) == {
        canon.canonical_form_bits(b, n) for b in prim._all_primitive_bits(n)
    }


def test_orbit_accounting_refuses_a_stream_with_a_gap(monkeypatch):
    # The gap is one candidate dropped from a block of the table, so the
    # size masks and the stream both lose its sets.  Dropping the H block,
    # alone in its size, would empty a size, which the accounting cannot
    # see; verify_main_theorem's orbit comparison catches that case instead.
    real = prim._primitive_blocks
    try:
        for gap in (1, 5):
            def dropping(h, gap=gap):
                for i, (pairs, cands) in enumerate(real(h)):
                    yield pairs, cands[1:] if i == gap else cands

            monkeypatch.setattr(prim, "_primitive_blocks", dropping)
            prim._fixed_hyperplane_blocks.cache_clear()
            prim._fixed_hyperplane_family.cache_clear()
            prim._orbit_reps.cache_clear()
            with pytest.raises(RuntimeError, match="orbit accounting"):
                prim._orbit_reps(3)
    finally:
        prim._fixed_hyperplane_blocks.cache_clear()
        prim._fixed_hyperplane_family.cache_clear()
        prim._orbit_reps.cache_clear()


# first 16 hex digits of the sha256 of the sorted representatives in hex
ORBIT_REP_DIGESTS = {1: "d4735e3a265e16ee", 2: "f960354918f8e24a",
                     3: "f7afad15b3251e9e", 4: "a5945a4cb449f811"}


def _rep_digest(reps) -> str:
    text = " ".join(f"{b:x}" for b in sorted(reps))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_orbit_accounting_closes_sizes_whose_orbits_share_a_key(monkeypatch):
    # With one key for every set the first pass takes a single canonical
    # form, and the plain pass must find every other orbit of each size it
    # left open: the four orbits of size 14 at n = 4 among them
    monkeypatch.setattr(prim, "_orbit_key", lambda bits, n: 0)
    prim._orbit_reps.cache_clear()
    try:
        for n, digest in ORBIT_REP_DIGESTS.items():
            assert _rep_digest(prim._orbit_reps(n)) == digest
    finally:
        prim._orbit_reps.cache_clear()
    for n, digest in ORBIT_REP_DIGESTS.items():
        assert _rep_digest(prim._orbit_reps(n)) == digest


def _decomposing_sets():
    """(n, bits) of every primitive set for n <= 3 and of each dimension-4
    orbit representative."""
    for n in (1, 2, 3):
        yield from ((n, b) for b in prim._all_primitive_bits(n))
    yield from ((4, r) for r in sorted(prim._orbit_reps(4)))


def test_decompositions_agree_with_recognition_and_a_scan_of_every_hyperplane():
    for n, bits in _decomposing_sets():
        certs = list(prim._decompositions(bits, sub.full_space(n)))
        assert certs[0] == recognize_primitive(TernarySet(n, bits))
        assert all(c.member_bits == bits for c in certs)
        scanned = sum(
            h.members_bits == bits
            or not bits & ~(h.members_bits | h.neg().members_bits)
            and prim._try_derived(bits, h) is not None
            for h in sub.enumerate_hyperplanes(n, avoid_origin=True)
        )
        assert len(certs) == scanned


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_primitive(0)
    with pytest.raises(ValueError):
        enumerate_primitive(5)
    with pytest.raises(ValueError):
        enumerate_primitive(4, up_to_iso=False)


def test_orbit_reps_dim4():
    reps = enumerate_primitive(4, up_to_iso=True)
    assert sorted(r.size for r in reps) == [14, 14, 14, 14, 15, 27]
    total = 0
    for r in reps:
        cert = recognize_primitive(r)
        assert cert is not None
        assert cert.kind == ("hyperplane" if r.size == 27 else "derived")
        total += gl_order(4) // stabilizer_order(r)
    assert total == 17_769_680


# first 16 hex digits of the sha256 of repr(list(stream)): the order is
# pinned too, since a failing backward check reports the first failing set
# in stream order; at n = 4 it walks the block table test_orbit_reps_dim4
# has just built
STREAM_DIGESTS = {
    1: "038966de9f6b9a90",
    2: "dae52d45356fb54d",
    3: "15055fd4598e955a",
    4: "91f1efd38f4b6870",
}


@pytest.mark.parametrize("n", sorted(STREAM_DIGESTS))
def test_the_stream_sequence_is_pinned(n):
    stream = prim.iter_primitive_fixed_hyperplane(n)
    digest = hashlib.sha256(repr(list(stream)).encode()).hexdigest()[:16]
    assert digest == STREAM_DIGESTS[n]


def test_subprimitive_paths():
    a, _ = lev3()
    sub5 = TernarySet.from_indices(3, a.indices()[:3])
    assert is_subprimitive(sub5)
    assert is_subprimitive(TernarySet.from_indices(3, [1]))
    assert not is_subprimitive(TernarySet.from_indices(3, [1, 2]))  # 1+1 = 2
    assert is_subprimitive(TernarySet.empty(2))

    a4, _ = lev_construction(4)
    drop = TernarySet.from_indices(4, a4.indices()[1:])
    assert is_subprimitive(drop)
    with pytest.raises(ValueError):
        is_subprimitive(TernarySet.empty(5))


def test_dimension_zero_has_no_primitive_set():
    # F_3^0 = {0} has no origin-avoiding hyperplane
    assert prim._all_primitive_bits(0) == ()
    empty = TernarySet.empty(0)
    assert not is_subprimitive(empty)
    rep = classify_set(empty)
    assert rep.sum_free and not rep.primitive and rep.subprimitive is False


def _lev_window(n):
    """The sizes Lev's bound allows a primitive subset of F_3^n."""
    third = 3**n // 3
    return range(third // 2 + 1, third + 1)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_recognition_accepts_exactly_the_family_on_every_subset(n):
    family = set(prim._all_primitive_bits(n))
    for bits in range(1 << 3**n):
        cert = recognize_primitive(TernarySet(n, bits))
        assert (cert is not None) == (bits in family)
        assert cert is None or cert.member_bits == bits


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recognition_accepts_exactly_the_family_dim3(data):
    # members, members with one point toggled (on and just off the
    # window's edges), and sets of 4 to 10 points
    family = prim._all_primitive_bits(3)
    kind = data.draw(st.sampled_from(("member", "toggled", "sized")))
    if kind == "sized":
        keep = data.draw(st.lists(st.integers(0, 26), min_size=4, max_size=10, unique=True))
        bits = sum(1 << p for p in keep)
    else:
        bits = data.draw(st.sampled_from(family))
        if kind == "toggled":
            bits ^= 1 << data.draw(st.integers(0, 26))
    cert = recognize_primitive(TernarySet(3, bits))
    assert (cert is not None) == (bits in family)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_primitive_set_has_a_size_in_lev_window(n):
    sizes = {b.bit_count() for b in prim._all_primitive_bits(n)}
    assert sizes <= set(_lev_window(n))
    assert max(sizes) == _lev_window(n)[-1]  # the hyperplanes


def test_every_dim4_stream_size_is_in_lev_window():
    sizes = prim._fixed_hyperplane_family(4)[1]
    assert sizes and set(sizes) <= set(_lev_window(4))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lev_sits_on_the_window_edge_and_loses_no_point(n, monkeypatch):
    a, _ = lev_construction(n)
    assert a.size == _lev_window(n)[0]
    assert recognize_primitive(a) is not None

    def no_hull(*args):
        raise AssertionError("the size gate should answer before any hull")

    monkeypatch.setattr(sub, "affine_hull_bits", no_hull)
    for p in a.indices():
        assert recognize_primitive(TernarySet(n, a.bits & ~(1 << p))) is None


def test_primitive_sets_are_their_own_primitive_supersets(monkeypatch):
    """classify_set takes subprimitive from the certificate, with no
    superset search, and agrees with is_subprimitive.  A primitive set is
    maximal sum-free, so the superset query returns the set itself: a
    hyperplane from the first block, a derived set only over a hyperplane
    it meets on both sides."""
    rng = random.Random(20)
    stream = list(prim.iter_primitive_fixed_hyperplane(4))
    sets = [lev_construction(4)[0]]
    sets += [TernarySet(4, stream[i]) for i in sorted(rng.sample(range(len(stream)), 40))]
    for rep in sorted(prim._orbit_reps(4)):
        sets += [TernarySet(4, b) for b in (rep, canon.random_gl(4, rng).apply_bits(rep))]

    def refuse(a):
        raise AssertionError("_primitive_superset called on a primitive set")

    with monkeypatch.context() as m:
        m.setattr(prim, "_primitive_superset", refuse)
        reports = [classify_set(a) for a in sets]
    for a, rep in zip(sets, reports):
        assert rep.primitive
        assert rep.subprimitive is True
        assert rep.subprimitive == is_subprimitive(a)
        assert prim._primitive_superset(a) == a.bits


def test_check_lemma_dispatch():
    a, _ = lev3()
    with pytest.raises(ValueError):
        check_lemma("nope", a)
    assert check_lemma("card_formula", a).status == "holds"
    assert check_lemma("four_sum", a).status == "holds"
    assert check_lemma("sym_containment", a).status == "holds"
    assert check_lemma("hyperplane_bound", a).status == "holds"
    assert check_lemma("affine_above_sym", a).status == "holds"


def test_check_lemma_not_applicable_paths():
    a, _ = lev3()
    not_prim = TernarySet.from_indices(3, [1, 5])
    for lemma in ("card_formula", "four_sum", "sym_containment",
                  "hyperplane_bound", "affine_above_sym"):
        assert check_lemma(lemma, not_prim).status == "not_applicable"

    h9 = sub.enumerate_hyperplanes(3, avoid_origin=True)[0].members()
    assert check_lemma("card_formula", h9).status == "holds"
    assert check_lemma("sym_containment", h9).status == "not_applicable"
    assert check_lemma("hyperplane_bound", h9).status == "not_applicable"

    assert check_lemma("dense_affine", a).status == "not_applicable"
    assert check_lemma("dense_affine", a, k=1).status == "holds"
    assert check_lemma("dense_affine", a, k=2).status == "not_applicable"
    assert check_lemma("dense_affine", a, k=9).status == "not_applicable"
    assert check_lemma("dense_affine", h9, k=1).status == "not_applicable"

    assert check_lemma("disjoint_transfer", a).status == "not_applicable"
    avoiding = next(j for j in sub.enumerate_hyperplanes(3)
                    if j.members_bits & a.bits == 0)
    r = check_lemma("disjoint_transfer", a, b=a, j=avoiding)
    assert r.status == "holds"
    small = TernarySet.from_indices(3, a.indices()[:2])
    assert check_lemma("disjoint_transfer", a, b=small,
                       j=avoiding).status == "not_applicable"


def test_check_result_guards():
    with pytest.raises(ValueError):
        CheckResult("x", "maybe")
    r = CheckResult.counterexample("x", "boom", witness={"set": [1]})
    assert not r.ok and r.to_json()["witness"] == {"set": [1]}
    assert CheckResult.not_applicable("x").ok


def test_classification_report():
    a, _ = lev3()
    rep = classify_set(a)
    assert (rep.dim, rep.size) == (3, 5)
    assert rep.sum_free and rep.maximal and rep.primitive
    assert rep.aperiodic and rep.sym_dim == 0 and rep.sym_size == 1
    assert rep.subprimitive
    obj = rep.to_json()
    assert obj["certificate"]["kind"] == "derived"
    assert obj["primitive"] is True

    empty = classify_set(TernarySet.empty(2))
    assert empty.sum_free and not empty.maximal and not empty.primitive
    assert empty.aperiodic is None and empty.sym_size is None
    assert empty.subprimitive

    bad = classify_set(TernarySet.from_indices(1, [1, 2]))
    assert not bad.sum_free and not bad.maximal
    assert bad.certificate is None and bad.subprimitive is False


def _levels(cert):
    while cert is not None:
        yield cert
        cert = cert.x


def _prefilter_cases():
    for n in (1, 2, 3):
        for bits in sorted(prim._all_primitive_bits(n)):
            yield TernarySet(n, bits)
    for n in (4, 5, 6):
        yield lev_construction(n)[0]


def test_derived_levels_lie_in_the_hyperplane_and_its_mirror():
    """The [H] prefilter of the recognizer never rejects a certificate."""
    for a in _prefilter_cases():
        cert = recognize_primitive(a)
        assert cert is not None
        for level in _levels(cert):
            h = level.h
            outside = level.member_bits & ~(h.members_bits | h.neg().members_bits)
            assert outside == 0


@pytest.mark.parametrize("n", [10, 12])
def test_recognition_refuses_large_dimensions_before_building_tables(n, monkeypatch):
    from gf3sets import space as _sp

    def refuse(dim):
        raise AssertionError(f"space({dim}) was built")

    monkeypatch.setattr(_sp, "space", refuse)
    a = TernarySet.from_indices(n, [1])
    with pytest.raises(ValueError, match="capped at dimension 9"):
        recognize_primitive(a)
    with pytest.raises(ValueError, match="capped at dimension 9"):
        classify_set(a)


@st.composite
def classified_sets(draw):
    """A set at n = 1..4: random, empty, an origin-avoiding hyperplane
    (maximal), the hyperplane less some points (sum-free, not maximal) or
    plus a point, or a greedy maximal sum-free set."""
    n = draw(st.integers(1, 4))
    size = 3**n
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "empty", "plane", "plane_less", "plane_plus", "greedy"]))
    plane = sub.hyperplane_from_normal(n, rng.randrange(1, size), rng.choice((1, 2))).members_bits
    if kind == "random":
        bits = rng.getrandbits(size)
    elif kind == "empty":
        bits = 0
    elif kind == "plane":
        bits = plane
    elif kind == "plane_less":
        bits = plane & rng.getrandbits(size) & ~(1 << rng.choice(list(iter_bits(plane))))
    elif kind == "plane_plus":
        bits = plane | 1 << rng.randrange(size)
    else:
        bits = 0
        for v in rng.sample(range(size), size):
            if is_sum_free(TernarySet(n, bits | 1 << v)):
                bits |= 1 << v
    return TernarySet(n, bits)


@settings(max_examples=150, deadline=None)
@given(classified_sets())
def test_classify_set_flags_match_the_predicates(a):
    rep = classify_set(a)
    assert rep.sum_free == is_sum_free(a)
    assert rep.maximal == is_maximal_sum_free(a)
    assert rep.subprimitive == is_subprimitive(a)
    if a.dim <= 3:
        vecs = {oracles.to_trits(i, a.dim) for i in iter_bits(a.bits)}
        assert rep.sum_free == oracles.is_sum_free(vecs)
        assert rep.maximal == oracles.is_maximal_sum_free(vecs, a.dim)


def _sizes_by_scan(family):
    sizes = {}
    for i, b in enumerate(family):
        sizes[b.bit_count()] = sizes.get(b.bit_count(), 0) | 1 << i
    return sizes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_built_columns_are_the_transposed_stream(n):
    columns, sizes = prim._fixed_hyperplane_family(n)
    stream = list(prim.iter_primitive_fixed_hyperplane(n))
    assert columns == member_columns(stream, 3**n)
    assert sizes == _sizes_by_scan(stream)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_primitive_columns_are_the_transposed_listing(n):
    family = prim._all_primitive_bits(n)
    columns, sizes = prim._primitive_columns(n)
    assert columns == member_columns(family, 3**n)
    assert sizes == _sizes_by_scan(family)


def _superset_by_scan(a):
    """The scan the column query replaced: the first primitive set, in
    _all_primitive_bits order, that holds a."""
    return next((p for p in prim._all_primitive_bits(a.dim) if a.bits & ~p == 0), None)


@pytest.mark.parametrize("n", [1, 2])
def test_superset_query_matches_the_scan_on_every_subset(n):
    for bits in range(1 << 3**n):
        a = TernarySet(n, bits)
        assert prim._primitive_superset(a) == _superset_by_scan(a)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_superset_query_matches_the_scan_dim3(data):
    family = prim._all_primitive_bits(3)
    if data.draw(st.booleans()):  # a subset of a primitive set: some superset exists
        base = data.draw(st.sampled_from(family))
        keep = data.draw(st.lists(st.sampled_from(list(iter_bits(base))), unique=True))
    else:
        keep = data.draw(st.lists(st.integers(0, 26), max_size=9, unique=True))
    a = TernarySet.from_indices(3, keep)
    assert prim._primitive_superset(a) == _superset_by_scan(a)


def _greedy_sum_free(n, order, size=None):
    """The points of order that keep the set sum-free, taken greedily until
    it has size points; with no size, a maximal sum-free set."""
    bits = 0
    for v in order:
        if bits.bit_count() == size:
            break
        if is_sum_free(TernarySet(n, bits | 1 << v)):
            bits |= 1 << v
    return bits


@st.composite
def mixed_families(draw):
    """n <= 4 and a list of subsets of F_3^n that mixes maximal sum-free
    sets, sum-free sets that are not maximal, sets of at most two points
    and sets that are not sum-free."""
    n = draw(st.integers(1, 4))
    size = 3**n
    family = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["maximal", "drop", "add", "small", "random"]))
        if kind == "small":
            family.append(sum(1 << v for v in draw(
                st.lists(st.integers(0, size - 1), max_size=2, unique=True))))
            continue
        if kind == "random":
            family.append(draw(st.integers(0, (1 << size) - 1)))
            continue
        bits = _greedy_sum_free(n, draw(st.permutations(range(size))))
        pick = draw(st.integers(0, size - 1))
        if kind == "drop" and bits >> pick & 1:
            bits &= ~(1 << pick)  # sum-free, no longer maximal
        elif kind == "add" and not bits >> pick & 1:
            bits |= 1 << pick  # a maximal set gains a point: not sum-free
        family.append(bits)
    return n, family


@settings(max_examples=150, deadline=None)
@given(mixed_families())
def test_column_kernel_matches_is_maximal_sum_free(case):
    n, family = case
    lanes = (1 << len(family)) - 1
    got = _maximal_sum_free_lanes(member_columns(family, 3**n), lanes, n)
    want = sum(1 << i for i, b in enumerate(family)
               if is_maximal_sum_free(TernarySet(n, b)))
    assert got == want


# -- the dimension-4 superset query ------------------------------------------

# sets that took the former extension search 4.8-6.0 s; the last has no
# primitive superset
SLOW_DIM4_SETS = ([1, 40, 76], [21, 35, 63], [45, 48, 53], [14, 20, 29, 60])


@st.composite
def dim4_sum_free_sets(draw):
    """Sum-free subsets of F_3^4 of three kinds: greedy sets of 0 to 16
    points, subsets of random linear images of primitive orbit
    representatives, and maximal sets that are not primitive, so have no
    primitive superset, less up to two points."""
    kind = draw(st.sampled_from(["greedy", "primitive", "non-primitive"]))
    if kind == "greedy":
        return TernarySet(4, _greedy_sum_free(4, draw(st.permutations(range(81))),
                                              draw(st.integers(0, 16))))
    if kind == "primitive":
        rep = draw(st.sampled_from(sorted(prim._orbit_reps(4))))
        image = canon.random_gl(4, draw(st.randoms(use_true_random=False))).apply_bits(rep)
        keep = draw(st.lists(st.sampled_from(list(iter_bits(image))), unique=True))
        return TernarySet.from_indices(4, keep)
    bits = _greedy_sum_free(4, draw(st.permutations(range(81))))
    assume(recognize_primitive(TernarySet(4, bits)) is None)
    drop = draw(st.lists(st.sampled_from(list(iter_bits(bits))), max_size=2, unique=True))
    return TernarySet(4, bits & ~sum(1 << v for v in drop))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dim4_sum_free_sets())
def test_dim4_superset_verdicts_match_the_extension_search(a):
    got = prim._primitive_superset(a)
    assert (got is None) == (oracles._primitive_superset_dim4(a.bits) is None)
    if got is not None:
        assert a.bits & ~got == 0
        assert recognize_primitive(TernarySet(4, got)) is not None


def _superset_by_columns(a):
    """g^-1 of the lowest lane of the AND of g(a)'s stream columns, over
    the first hyperplane h covering a whose AND is nonzero, for the linear
    map g^-1 taking the basis to h's base point and direction basis."""
    columns, sizes = prim._fixed_hyperplane_family(4)
    every = (1 << sum(mask.bit_count() for mask in sizes.values())) - 1
    for h in sub.hyperplanes_covering(sub.full_space(4), a.bits):
        back = canon.GroupElement(4, (h.base_point, *h.direction().basis))
        lanes = every
        for p in iter_bits(a.bits):
            lanes &= columns[back.perm.index(p)]
        if lanes:
            lane = (lanes & -lanes).bit_length() - 1
            stream = prim.iter_primitive_fixed_hyperplane(4)
            return back.apply_bits(next(itertools.islice(stream, lane, None)))
    return None


@settings(max_examples=60, deadline=None)
@given(dim4_sum_free_sets())
def test_dim4_superset_is_the_lowest_lane_of_the_column_and(a):
    assert prim._primitive_superset(a) == _superset_by_columns(a)


def test_the_scan_maps_send_each_hyperplane_to_the_fixed_one():
    maps, blocks = prim._hyperplane_maps(4), prim._superset_scan_table(4)
    planes = sub.enumerate_hyperplanes(4, avoid_origin=True)
    assert sorted(maps) == sorted(h.members_bits for h in planes)
    assert [b[1:] for b in blocks] == list(prim._fixed_hyperplane_blocks(4))
    fixed = planes[0].members_bits
    for h in planes:
        to_h, from_h = maps[h.members_bits]
        assert [from_h[i] for i in to_h] == list(range(81))
        assert sum(1 << to_h[p] for p in iter_bits(h.members_bits)) == fixed


@pytest.mark.parametrize("points", SLOW_DIM4_SETS)
def test_slow_dim4_sets_are_classified_quickly(points, tmp_path, capsys):
    a = TernarySet.from_indices(4, points)
    want = points != SLOW_DIM4_SETS[-1]
    path = tmp_path / "a.set"
    path.write_text(format_set_text(a))
    for entry in (
        lambda: classify_set(a).subprimitive,
        lambda: is_subprimitive(a),
        lambda: cli.main(["classify", "--format", "json", str(path)]) == 0
        and json.loads(capsys.readouterr().out)["subprimitive"],
    ):
        t0 = time.perf_counter()
        assert entry() == want
        assert time.perf_counter() - t0 < 1.0


def test_dim4_superset_query_builds_no_columns():
    prim._fixed_hyperplane_family.cache_clear()
    for points in SLOW_DIM4_SETS:
        is_subprimitive(TernarySet.from_indices(4, points))
    assert prim._fixed_hyperplane_family.cache_info().currsize == 0
