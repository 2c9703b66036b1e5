"""The paper's lemmas and propositions, each checked on a concrete set.

A statement is a function of its id, the set and the statement's extra
inputs that returns a CheckResult.  STATEMENTS maps every id to its kind,
"lemma" or "proposition", and its function; check_lemma and
check_proposition look an id up there.  Each statement states its own
dimension range as a hypothesis, and a failed hypothesis is reported as
not_applicable, never as a pass.

Six lemmas assume a primitive set, and what their hypotheses read of it
is a few integers: whether it is primitive, its certificate kind and, for
a derived certificate, the bitsets of X and of U's direction space.
_primitive_facts keeps these per set in an LRU memo of 4,096 entries, so
the suite's lemma sweeps recognize each of the 1,908 primitive sets of
dimension at most 3 once rather than once per lemma.  The bound is above
that pool, since an LRU smaller than a pool swept in a fixed order never
hits.  It holds ints rather than certificates: filled with that pool it
takes about 0.4 MB under tracemalloc, where certificates take about
1.5 MB.  recognize_primitive itself stays uncached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from . import primitive, subspaces
from . import space as _sp
from .core import TernarySet, is_sum_free, sym_group_bits
from .primitive import recognize_primitive
from .space import iter_bits
from .subspaces import AffineSubspace


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single verification check.

    status is one of "holds", "not_applicable" (a hypothesis failed, so the
    statement says nothing) or "counterexample".  A hypothesis failure is
    never reported as success.
    """

    name: str
    status: str
    detail: str = ""
    witness: Optional[dict] = None

    def __post_init__(self):
        if self.status not in ("holds", "not_applicable", "counterexample"):
            raise ValueError(f"unknown status {self.status!r}")

    @classmethod
    def holds(cls, name: str, detail: str = "", witness=None) -> "CheckResult":
        return cls(name, "holds", detail, witness)

    @classmethod
    def not_applicable(cls, name: str, detail: str = "") -> "CheckResult":
        return cls(name, "not_applicable", detail)

    @classmethod
    def counterexample(cls, name: str, detail: str = "", witness=None) -> "CheckResult":
        return cls(name, "counterexample", detail, witness)

    @property
    def ok(self) -> bool:
        return self.status != "counterexample"

    def to_json(self) -> dict:
        out = {"name": self.name, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def statement_ids(kind: str) -> tuple:
    """The ids of one kind of statement, "lemma" or "proposition"."""
    return tuple(sid for sid, (k, _) in STATEMENTS.items() if k == kind)


def _lookup(kind: str, statement_id: str):
    entry = STATEMENTS.get(statement_id)
    if entry is None or entry[0] != kind:
        raise ValueError(
            f"unknown {kind} {statement_id!r}; choose from {statement_ids(kind)}"
        )
    return entry[1]


def check_lemma(lemma_id: str, a: TernarySet, *, b: Optional[TernarySet] = None,
                j: Optional[AffineSubspace] = None, k: Optional[int] = None) -> CheckResult:
    """Run one structural check against a concrete set.

    Checks whose hypotheses fail report not_applicable; a hypothesis failure
    is never scored as a pass.
    """
    return _lookup("lemma", lemma_id)(lemma_id, a, b=b, j=j, k=k)


def check_proposition(
    prop_id: str, a: TernarySet, *, h: Optional[AffineSubspace] = None
) -> CheckResult:
    """Test one implication on a concrete set; hypothesis failures are
    reported as not_applicable, never as success."""
    return _lookup("proposition", prop_id)(prop_id, a, h=h)


# -- lemmas ------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _primitive_facts(a: TernarySet) -> Optional[tuple]:
    """None when a is not primitive, else (certificate kind, X bits, bits of
    U's direction space), the two bitsets 0 for a hyperplane certificate."""
    cert = recognize_primitive(a)
    if cert is None:
        return None
    if cert.kind == "hyperplane":
        return ("hyperplane", 0, 0)
    return ("derived", cert.x.member_bits, cert.u.direction().members_bits)


def _is_derived(a: TernarySet) -> bool:
    facts = _primitive_facts(a)
    return facts is not None and facts[0] == "derived"


def _card_formula(name: str, a: TernarySet, **_) -> CheckResult:
    if _primitive_facts(a) is None:
        return CheckResult.not_applicable(name, "set is not primitive")
    n = a.dim
    sym = sym_group_bits(a.bits, n).bit_count()
    expected = (3**n + 3 * sym) // 6
    if 6 * a.size == 3**n + 3 * sym:
        return CheckResult.holds(name, f"size {a.size} matches ({3**n} + 3*{sym})/6")
    return CheckResult.counterexample(
        name,
        f"size {a.size}, symmetry group size {sym}, expected {expected}",
        witness={"set": a.indices(), "sym_size": sym},
    )


def _sym_containment(name: str, a: TernarySet, **_) -> CheckResult:
    facts = _primitive_facts(a)
    if facts is None or facts[0] != "derived":
        return CheckResult.not_applicable(name, "set is not a derived primitive")
    _, xbits, du = facts
    n = a.dim
    sym_a = sym_group_bits(a.bits, n)
    sym_x = sym_group_bits(xbits, n)
    if sym_a == sym_x and sym_a & ~du == 0:
        return CheckResult.holds(
            name, "symmetry groups of the set and its X part agree inside [U]"
        )
    return CheckResult.counterexample(
        name,
        "symmetry group mismatch or escape from the direction space of U",
        witness={
            "set": a.indices(),
            "sym_set": sorted(iter_bits(sym_a)),
            "sym_x": sorted(iter_bits(sym_x)),
        },
    )


def _four_sum(name: str, a: TernarySet, **_) -> CheckResult:
    if _primitive_facts(a) is None:
        return CheckResult.not_applicable(name, "set is not primitive")
    return _zero_free_4A(name, a)


def _zero_free_4A(name: str, a: TernarySet) -> CheckResult:
    """Whether no four members sum to 0, read off T = a + a alone.

    4A = 2A + 2A, so 0 is in 4A exactly when x + y = 0 for some x, y in
    T, that is when some x in T has -x = y in T: when T meets -T.
    """
    sp = _sp.space(a.dim)
    twice = sp.sumset_bits(a.bits, a.bits)
    if twice & sp.neg_set_bits(twice):
        return CheckResult.counterexample(
            name, "0 is a sum of four members", witness={"set": a.indices()}
        )
    return CheckResult.holds(name, "no four members sum to 0")


def _hyperplane_bound(name: str, a: TernarySet, **_) -> CheckResult:
    if not _is_derived(a):
        return CheckResult.not_applicable(
            name, "set is not a derived primitive"
        )
    n = a.dim
    bound = 3 ** (n - 1)
    for jp in subspaces.enumerate_hyperplanes(n):
        inside = (a.bits & jp.members_bits).bit_count()
        if a.size + inside > bound:
            return CheckResult.counterexample(
                name,
                f"|A| + |A cap J| = {a.size} + {inside} > {bound}",
                witness={"set": a.indices(), "J": jp.to_json()},
            )
    return CheckResult.holds(name, f"|A| + |A cap J| <= {bound} for every hyperplane J")


def _affine_above_sym(name: str, a: TernarySet, **_) -> CheckResult:
    if not _is_derived(a):
        return CheckResult.not_applicable(name, "set is not a derived primitive")
    n = a.dim
    sym_size = sym_group_bits(a.bits, n).bit_count()
    d = round(math.log(sym_size, 3)) + 1
    inside = subspaces.flats_within(a.bits, n, d)
    if inside:
        return CheckResult.holds(
            name,
            f"contains an affine subspace of dimension {d} > symmetry dimension {d - 1}",
            witness={"E": inside[0].to_json()},
        )
    return CheckResult.counterexample(
        name,
        f"no affine subspace of dimension {d} fits inside the set",
        witness={"set": a.indices()},
    )


def _dense_affine(name: str, a: TernarySet, *, k: Optional[int] = None, **_) -> CheckResult:
    if k is None or k < 1:
        return CheckResult.not_applicable(name, "needs a dimension k >= 1")
    n = a.dim
    if k > n:
        return CheckResult.not_applicable(name, "k exceeds the ambient dimension")
    if subspaces.affine_hull_bits(a.bits, n).dim != n:
        return CheckResult.not_applicable(name, "set lies in a hyperplane")
    if 6 * a.size <= 3**n + 3 ** (k - 1):
        return CheckResult.not_applicable(
            name, f"size {a.size} is not above ({3**n} + 3^{k - 1})/6"
        )
    if not primitive.is_subprimitive(a):
        return CheckResult.not_applicable(name, "set is not subprimitive")
    need = (5 * 3**k + 3) // 6
    best = None
    for e in subspaces.enumerate_affine_subspaces(subspaces.full_space(n), k):
        got = (a.bits & e.members_bits).bit_count()
        if 6 * got >= 5 * 3**k + 3:
            return CheckResult.holds(
                name,
                f"an affine subspace of dimension {k} holds {got} members",
                witness={"E": e.to_json()},
            )
        if best is None or got > best:
            best = got
    return CheckResult.counterexample(
        name,
        f"no affine subspace of dimension {k} holds {need} members (best {best})",
        witness={"set": a.indices()},
    )


def _disjoint_transfer(name: str, a: TernarySet, *, b: Optional[TernarySet] = None,
                       j: Optional[AffineSubspace] = None, **_) -> CheckResult:
    if b is None or j is None:
        return CheckResult.not_applicable(name, "needs a subset B and a hyperplane J")
    if not _is_derived(a):
        return CheckResult.not_applicable(name, "set is not a derived primitive")
    n = a.dim
    if j.empty or j.dim != n - 1:
        return CheckResult.not_applicable(name, "J is not a hyperplane")
    if b.dim != n or b.bits & ~a.bits:
        return CheckResult.not_applicable(name, "B is not a subset of A")
    if 6 * b.size <= 3**n:
        return CheckResult.not_applicable(name, "B is not above a sixth of the space")
    if b.bits & j.members_bits:
        return CheckResult.not_applicable(name, "J meets B")
    if a.bits & j.members_bits:
        return CheckResult.counterexample(
            name,
            "J avoids B but meets A",
            witness={
                "set": a.indices(),
                "B": b.indices(),
                "J": j.to_json(),
                "overlap": sorted(iter_bits(a.bits & j.members_bits)),
            },
        )
    return CheckResult.holds(name, "every hyperplane avoiding B avoids A")


# -- propositions ------------------------------------------------------------


def _not_dense_sum_free(name: str, a: TernarySet) -> Optional[CheckResult]:
    """not_applicable unless a is sum-free and above a sixth of the space."""
    if not is_sum_free(a):
        return CheckResult.not_applicable(name, "set is not sum-free")
    if 6 * a.size <= 3**a.dim:
        return CheckResult.not_applicable(name, "set is not above a sixth of the space")
    return None


def _subprimitive_conclusion(name: str, a: TernarySet, extra: dict) -> CheckResult:
    sup = primitive._primitive_superset(a)
    if sup is None:
        return CheckResult.counterexample(
            name, "set is not subprimitive", witness={"set": a.indices(), **extra}
        )
    return CheckResult.holds(
        name,
        "subprimitive",
        witness={"primitive_superset": sorted(iter_bits(sup)), **extra},
    )


def _hyperplane_slice(name: str, a: TernarySet, *, cover: bool,
                      h: Optional[AffineSubspace] = None, **_) -> CheckResult:
    """prop_hyperplane_cover (cover=True) and prop_empty_slice.

    Over an origin-avoiding hyperplane H, the first assumes that A misses
    [H] and that the affine hull of A's part in -H is not all of -H; the
    second assumes that A misses H and that A's part in [H] does not span
    [H].  Either way a dense sum-free A is subprimitive.  h fixes H;
    without it the first hyperplane meeting the hypotheses is taken.
    """
    n = a.dim
    if n > 4:
        return CheckResult.not_applicable(name, "needs the verified range n <= 4")
    failed = _not_dense_sum_free(name, a)
    if failed:
        return failed
    cands = [h] if h is not None else list(
        subspaces.enumerate_hyperplanes(n, avoid_origin=True)
    )
    for cand in cands:
        if cand.dim != n - 1 or 0 in cand:
            continue
        direction = cand.direction()
        if a.bits & (direction if cover else cand).members_bits:
            continue
        spanned = cand.neg() if cover else direction
        hull = subspaces.affine_hull_bits(a.bits & spanned.members_bits, n)
        if hull == spanned:
            continue
        return _subprimitive_conclusion(name, a, {"H": cand.to_json()})
    return CheckResult.not_applicable(name, "no hyperplane satisfies the hypotheses")


def _conclusion_grid(name: str, a: TernarySet, **_) -> CheckResult:
    n = a.dim
    if n < 2 or n > 4:
        return CheckResult.not_applicable(name, "needs 2 <= n <= 4")
    if not is_sum_free(a):
        return CheckResult.not_applicable(name, "set is not sum-free")
    if 2 * a.size <= 3 ** (n - 1):
        return CheckResult.not_applicable(name, "set is not above half a hyperplane")
    # the (i, j) slice: the points whose first two trits are i and j
    first, second = _sp.space(n).slabs[:2]
    if 2 * (a.bits & first[0] & second[1]).bit_count() <= 3 ** (n - 2):
        return CheckResult.not_applicable(
            name, "the (0,1) slice is not above half its size"
        )
    for i in range(3):
        one = a.bits & first[1] & second[i]
        two = a.bits & first[2] & second[(1 - i) % 3]
        if one and two:
            return CheckResult.not_applicable(
                name, f"both paired slices at i={i} are occupied"
            )
    return _subprimitive_conclusion(name, a, {})


def _five_in_cube(name: str, a: TernarySet, **_) -> CheckResult:
    if a.dim != 3:
        return CheckResult.not_applicable(name, "the statement concerns dimension 3")
    if not is_sum_free(a):
        return CheckResult.not_applicable(name, "set is not sum-free")
    if a.size < 5:
        return CheckResult.not_applicable(name, "set has fewer than 5 members")
    return _five_in_cube_conclusion(name, a)


def _five_in_cube_conclusion(name: str, a: TernarySet) -> CheckResult:
    """five_in_cube's conclusion for a sum-free a in F_3^3 of at least 5
    members: subprimitive, and holding a line."""
    sup = primitive._primitive_superset(a)
    lines = subspaces.flats_within(a.bits, a.dim, 1)
    if sup is not None and lines:
        return CheckResult.holds(
            name,
            "subprimitive and contains a line",
            witness={
                "primitive_superset": sorted(iter_bits(sup)),
                "line": lines[0].to_json(),
            },
        )
    reason = "not subprimitive" if sup is None else "contains no line"
    return CheckResult.counterexample(name, reason, witness={"set": a.indices()})


def _four_point(name: str, a: TernarySet, **_) -> CheckResult:
    if a.dim != 3:
        return CheckResult.not_applicable(name, "the statement concerns dimension 3")
    if a.size != 4:
        return CheckResult.not_applicable(name, "set does not have 4 members")
    if not primitive.is_subprimitive(a):
        return CheckResult.not_applicable(name, "set is not subprimitive")
    hull = subspaces.affine_hull_bits(a.bits, 3)
    if hull.dim <= 2:
        return CheckResult.holds(name, "contained in a plane", witness={"plane": hull.to_json()})
    sp = _sp.space(3)
    members = a.indices()
    for p in members:
        total = 0
        for q in members:
            if q != p:
                total = sp.add(total, q)
        if total == p:
            return CheckResult.holds(
                name, "one member is the sum of the other three", witness={"point": p}
            )
    return CheckResult.counterexample(
        name, "neither planar nor a three-term sum", witness={"set": members}
    )


def _line_everywhere(name: str, a: TernarySet, **_) -> CheckResult:
    if a.dim < 3:
        return CheckResult.not_applicable(name, "needs dimension at least 3")
    failed = _not_dense_sum_free(name, a)
    if failed:
        return failed
    lines = subspaces.flats_within(a.bits, a.dim, 1)
    if lines:
        return CheckResult.holds(name, "contains a line", witness={"line": lines[0].to_json()})
    return CheckResult.counterexample(name, "contains no line", witness={"set": a.indices()})


def _not_large_dim4_sum_free(name: str, a: TernarySet) -> Optional[CheckResult]:
    """not_applicable unless a is a sum-free set of F_3^4 with at least 14
    members."""
    if a.dim != 4:
        return CheckResult.not_applicable(name, "the statement concerns dimension 4")
    if not is_sum_free(a):
        return CheckResult.not_applicable(name, "set is not sum-free")
    if a.size < 14:
        return CheckResult.not_applicable(name, "set has fewer than 14 members")
    return None


def _parallel_lines(name: str, a: TernarySet, **_) -> CheckResult:
    failed = _not_large_dim4_sum_free(name, a)
    if failed:
        return failed
    by_direction: dict = {}
    for line in subspaces.flats_within(a.bits, a.dim, 1):
        by_direction.setdefault(line.basis, []).append(line)
    pair = next((ls for ls in by_direction.values() if len(ls) >= 2), None)
    if pair is None:
        return CheckResult.not_applicable(name, "no two parallel lines inside the set")
    return _subprimitive_conclusion(
        name, a, {"lines": [pair[0].to_json(), pair[1].to_json()]}
    )


def _dim4(name: str, a: TernarySet, **_) -> CheckResult:
    return _not_large_dim4_sum_free(name, a) or _subprimitive_conclusion(name, a, {})


def _no_zero_4A(name: str, a: TernarySet, **_) -> CheckResult:
    return _not_dense_sum_free(name, a) or _zero_free_4A(name, a)


def _codim2_slice(name: str, a: TernarySet, **_) -> CheckResult:
    n = a.dim
    if n < 3 or n > 4:
        return CheckResult.not_applicable(name, "needs the verified range 3 <= n <= 4")
    failed = _not_dense_sum_free(name, a)
    if failed:
        return failed
    q = 3 ** (n - 2)
    best = -1
    for e in subspaces.enumerate_affine_subspaces(subspaces.full_space(n), n - 2):
        got = (a.bits & e.members_bits).bit_count()
        if 2 * got >= q + 3:
            return CheckResult.holds(
                name,
                f"a codimension-2 subspace holds {got} of {q} points",
                witness={"Q": e.to_json()},
            )
        best = max(best, got)
    return CheckResult.counterexample(
        name,
        f"no codimension-2 subspace holds {(q + 3) // 2} points (best {best})",
        witness={"set": a.indices()},
    )


STATEMENTS = {
    "card_formula": ("lemma", _card_formula),
    "sym_containment": ("lemma", _sym_containment),
    "four_sum": ("lemma", _four_sum),
    "hyperplane_bound": ("lemma", _hyperplane_bound),
    "affine_above_sym": ("lemma", _affine_above_sym),
    "dense_affine": ("lemma", _dense_affine),
    "disjoint_transfer": ("lemma", _disjoint_transfer),
    "prop_hyperplane_cover": ("proposition", functools.partial(_hyperplane_slice, cover=True)),
    "prop_empty_slice": ("proposition", functools.partial(_hyperplane_slice, cover=False)),
    "conclusion_grid": ("proposition", _conclusion_grid),
    "five_in_cube": ("proposition", _five_in_cube),
    "four_point": ("proposition", _four_point),
    "line_everywhere": ("proposition", _line_everywhere),
    "parallel_lines": ("proposition", _parallel_lines),
    "dim4": ("proposition", _dim4),
    "no_zero_4A": ("proposition", _no_zero_4A),
    "codim2_slice": ("proposition", _codim2_slice),
}
