"""Hardness gadgets: reductions from subset-sum and clique problems to
explanation queries, plus brute-force solvers for the source problems.

Each gadget returns a QueryGadget bundling the model, the instance, the
query parameters and a metadata dict. The brute solvers implement the
source-problem definitions literally and are used to cross-check that a
gadget's query answer matches the source answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .errors import InvalidInstanceError
from .models import (
    DecisionTree, Ensemble, Majority, Perceptron, Record, as_tuple, constant_tree, leaf,
    shown, split,
)

HALF = Fraction(1, 2)


def _check_int(value, what: str):
    if type(value) is not int:
        raise InvalidInstanceError(f"{what} must be an integer, got {shown(value)}")


def _positive_ints(values, what: str) -> tuple:
    """values as a tuple, after checking each is a positive integer."""
    values = as_tuple(values, what)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise InvalidInstanceError(f"{what} must be positive integers, got {shown(v)}")
    return values


def _check_k(k, most: int):
    _check_int(k, "k")
    if not (1 <= k <= most):
        raise InvalidInstanceError(f"k={shown(k)} outside 1..{most}")


class SspInstance(Record):
    """Subset sum: is there a subset of weights adding up to target?"""

    weights: tuple[int, ...]
    target: int

    def __init__(self, weights, target: int):
        self._set(weights=_positive_ints(weights, "weights"),
                  target=_positive_ints((target,), "target")[0])


class KsspInstance(Record):
    """Subset sum with exactly k chosen weights."""

    weights: tuple[int, ...]
    k: int
    target: int

    def __init__(self, weights, k: int, target: int):
        weights = _positive_ints(weights, "weights")
        target = _positive_ints((target,), "target")[0]
        _check_k(k, len(weights))
        self._set(weights=weights, k=k, target=target)


class GsspInstance(Record):
    """Generalized subset sum: is there a u-subset such that no extension
    by a v-subset hits the target?"""

    u: tuple[int, ...]
    v: tuple[int, ...]
    target: int

    def __init__(self, u, v, target: int):
        self._set(u=_positive_ints(u, "u"), v=_positive_ints(v, "v"),
                  target=_positive_ints((target,), "target")[0])


class KgsspInstance(Record):
    """Generalized subset sum with the u-subset of size exactly k."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    k: int
    target: int

    def __init__(self, u, v, k: int, target: int):
        u, v = _positive_ints(u, "u"), _positive_ints(v, "v")
        target = _positive_ints((target,), "target")[0]
        _check_k(k, len(u))
        self._set(u=u, v=v, k=k, target=target)


class KgsspStarInstance(Record):
    """Prefix-restricted generalized subset sum.

    Is there S inside s0 with |S| = k such that no subset S' of the
    complement of S makes sum(S) + sum(S') equal the target?
    """

    z: tuple[int, ...]
    s0: tuple[int, ...]
    k: int
    target: int

    def __init__(self, z, s0, k: int, target: int):
        z = _positive_ints(z, "z")
        target = _positive_ints((target,), "target")[0]
        n = len(z)
        s0 = as_tuple(s0, "s0")
        for i in s0:
            _check_int(i, "an s0 index")
        if tuple(sorted(set(s0))) != s0:
            raise InvalidInstanceError("s0 must be strictly increasing")
        for i in s0:
            if not (0 <= i < n):
                raise InvalidInstanceError(f"s0 index {shown(i)} outside 0..{n - 1}")
        _check_int(k, "k")
        if k < 1:
            raise InvalidInstanceError(f"k={shown(k)} must be at least 1")
        self._set(z=z, s0=s0, k=k, target=target)


class ColoredGraph(Record):
    """Vertex-colored graph; vertex v has color colors[v], edges are
    sorted pairs."""

    colors: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __init__(self, colors, edges):
        colors = as_tuple(colors, "colors")
        for c in colors:
            _check_int(c, "a color")
        n = len(colors)
        k = max(colors) + 1 if colors else 0
        if min(colors, default=0) < 0 or len(set(colors)) != k:
            raise InvalidInstanceError(f"colors must cover 0..{shown(k - 1)} with no gaps")
        # checked before the frozenset hashes them: a list edge is refused
        edges = as_tuple(edges, "edges")
        for edge in edges:
            if not (isinstance(edge, tuple) and len(edge) == 2
                    and all(type(v) is int for v in edge)):
                raise InvalidInstanceError(f"edge {shown(edge)} is not a pair of vertices")
            a, b = edge
            if not (0 <= a < b < n):
                raise InvalidInstanceError(f"bad edge ({shown(a)}, {shown(b)})")
        self._set(colors=colors, edges=frozenset(edges))

    @property
    def color_count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def color_classes(self) -> list[list[int]]:
        classes: list[list[int]] = [[] for _ in range(self.color_count)]
        for v, c in enumerate(self.colors):
            classes[c].append(v)
        return classes

    def adjacent(self, a: int, b: int) -> bool:
        if a == b:
            return False
        return (min(a, b), max(a, b)) in self.edges


class QueryGadget(Record):
    """A model plus the query whose answer encodes the source problem."""

    kind: str  # csr | mcr | msr
    model: Ensemble
    x: tuple[int, ...]
    subset: tuple[int, ...] | None
    bound: int | None
    info: dict

    def __init__(self, kind: str, model: Ensemble, x: tuple[int, ...], subset=None,
                 bound=None, info=None):
        self._set(kind=kind, model=model, x=x, subset=subset, bound=bound,
                  info={} if info is None else info)


# ---------------------------------------------------------------------------
# brute-force source solvers


def subset_sums(values) -> set[int]:
    """The sums of every subset of values."""
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


def subset_sums_by_count(values) -> list[set[int]]:
    """table[c]: the sums of the size-c subsets of values, c = 0..n."""
    n = len(values)
    table: list[set[int]] = [set() for _ in range(n + 1)]
    table[0].add(0)
    for v in values:
        for c in range(n - 1, -1, -1):
            table[c + 1] |= {s + v for s in table[c]}
    return table


def solve_ssp_brute(inst: SspInstance) -> bool:
    return inst.target in subset_sums(inst.weights)


def solve_kssp_brute(inst: KsspInstance) -> bool:
    return inst.target in subset_sums_by_count(inst.weights)[inst.k]


def solve_gssp_brute(inst: GsspInstance) -> bool:
    vsums = subset_sums(inst.v)
    return any(inst.target - su not in vsums for su in subset_sums(inst.u))


def solve_kgssp_brute(inst: KgsspInstance) -> bool:
    vsums = subset_sums(inst.v)
    usums = subset_sums_by_count(inst.u)[inst.k]
    return any(inst.target - su not in vsums for su in usums)


def solve_kgssp_star_brute(inst: KgsspStarInstance) -> bool:
    n = len(inst.z)
    for s in combinations(inst.s0, inst.k):
        chosen = sum(inst.z[i] for i in s)
        rest = [inst.z[i] for i in range(n) if i not in s]
        if inst.target - chosen not in subset_sums(rest):
            return True
    return False


def solve_multicolored_clique_brute(g: ColoredGraph) -> bool:
    """Is there a clique with one vertex from every color class?"""
    classes = g.color_classes()
    for pick in product(*classes):
        if all(g.adjacent(a, b) for a, b in combinations(pick, 2)):
            return True
    return False


# ---------------------------------------------------------------------------
# subset-sum gadgets


def _band_pair(weights: tuple[int, ...], target: int) -> tuple[Perceptron, Perceptron]:
    """Two perceptrons, exactly one of which fires unless the selected
    weights sum to exactly the target (then neither does)."""
    w = tuple(Fraction(v) for v in weights)
    below = Perceptron(tuple(-wi for wi in w), Fraction(target) - HALF)
    above = Perceptron(w, -Fraction(target) - HALF)
    return below, above


def ssp_csr_gadget(inst: SspInstance) -> QueryGadget:
    """Subset sum as a sufficiency query.

    The two-perceptron ensemble accepts z exactly when the selected sum
    misses the target, so it is constant 1 (making the empty set a
    sufficient reason for x = 0..0) exactly on no-instances.
    """
    below, above = _band_pair(inst.weights, inst.target)
    model = Ensemble((below, above), Majority())
    x = (0,) * len(inst.weights)
    return QueryGadget("csr", model, x, subset=(),
                       info={"family": "ssp", "target": inst.target})


def kssp_mcr_gadget(inst: KsspInstance) -> QueryGadget:
    """Exact-size subset sum as a contrastiveness query with bound k.

    A contrastive set of size at most k exists exactly when some subset
    of size AT MOST k hits the target; the source problem asks for size
    exactly k. The two agree unless a smaller subset hits the target and
    no size-k one does, so samplers validating this correspondence must
    avoid that corner.
    """
    below, above = _band_pair(inst.weights, inst.target)
    model = Ensemble((below, above), Majority())
    x = (0,) * len(inst.weights)
    return QueryGadget("mcr", model, x, bound=inst.k,
                       info={"family": "kssp", "target": inst.target, "k": inst.k})


def gssp_to_kgssp(inst: GsspInstance) -> KgsspInstance:
    """Force the chosen u-subset to a fixed size.

    Shifting every u-weight by G and appending l pure-G fillers makes any
    size-l choice sum to an original subset sum plus l*G, so the target
    moves by l*G and k becomes l.
    """
    l = len(inst.u)
    g = sum(inst.u) + inst.target + 1
    u2 = tuple(ui + g for ui in inst.u) + (g,) * l
    return KgsspInstance(u2, inst.v, l, inst.target + l * g)


def kgssp_to_kgssp_star(inst: KgsspInstance) -> KgsspStarInstance:
    """Merge u and v into one weight list with the choice confined to a prefix.

    Scaling by 2n+1 and adding 1 to each u-weight makes the k chosen
    +1 offsets visible modulo 2n+1, so only size-k prefix choices can
    reach the shifted target.
    """
    l, m = len(inst.u), len(inst.v)
    n = l + m
    scale = 2 * n + 1
    z = tuple(scale * ui + 1 for ui in inst.u) + tuple(scale * vi for vi in inst.v)
    return KgsspStarInstance(z, tuple(range(l)), inst.k, scale * inst.target + inst.k)


def kgssp_star_msr_gadget(inst: KgsspStarInstance) -> QueryGadget:
    """Prefix-restricted generalized subset sum as a minimum-size
    sufficiency query with bound k.

    Five perceptrons under majority-of-5: a band pair around the target,
    an at-least-k-ones-in-s0 gate, a constant-1, and an all-ones
    indicator; x is all ones. Fixing a size-k subset of s0 keeps three
    votes exactly when no completion's selected sum hits the target.

    When sum(z) equals the target the all-ones completion is the single
    exception the band pair cannot cover, and this construction emits an
    all-true ensemble instead (see the sampler notes: such instances are
    excluded from the correspondence checks, where the two sides
    disagree by the source problem's own semantics).
    """
    n = len(inst.z)
    if inst.k > len(inst.s0):
        raise InvalidInstanceError(
            f"k={inst.k} exceeds |s0|={len(inst.s0)}; the construction needs k <= |s0|")
    x = (1,) * n
    if sum(inst.z) == inst.target:
        true_p = Perceptron((Fraction(0),) * n, Fraction(1))
        model = Ensemble((true_p,) * 5, Majority())
        return QueryGadget("msr", model, x, bound=inst.k,
                           info={"family": "kgssp-star", "branch": "sum-equals-target"})
    below, above = _band_pair(inst.z, inst.target)
    s0set = set(inst.s0)
    gate = Perceptron(tuple(Fraction(1 if i in s0set else 0) for i in range(n)),
                      Fraction(-inst.k))
    always = Perceptron((Fraction(0),) * n, Fraction(1))
    all_ones = Perceptron((Fraction(1),) * n, -Fraction(n) + HALF)
    model = Ensemble((below, above, gate, always, all_ones), Majority())
    return QueryGadget("msr", model, x, bound=inst.k,
                       info={"family": "kgssp-star", "branch": "general",
                             "target": inst.target, "k": inst.k})


def gssp_msr_gadget(inst: GsspInstance) -> QueryGadget:
    """Full chain from generalized subset sum to the sufficiency-size query."""
    star = kgssp_to_kgssp_star(gssp_to_kgssp(inst))
    gadget = kgssp_star_msr_gadget(star)
    gadget.info["family"] = "gssp"
    gadget.info["star"] = {"z": list(star.z), "s0": list(star.s0),
                           "k": star.k, "target": star.target}
    return gadget


# ---------------------------------------------------------------------------
# multicolored clique gadget


def _next_power_of_two(v: int) -> int:
    p = 1
    while p < v:
        p *= 2
    return p


def _pair_tree(n: int, bits: int, block_a: int, block_b: int,
               adjacent) -> DecisionTree:
    """Complete tree reading block_a then block_b; leaf = adjacency bit.

    Feature block_c * bits + b carries bit b (least significant first) of
    the chosen slot in class c.
    """
    order = [block_a * bits + b for b in range(bits)] + \
            [block_b * bits + b for b in range(bits)]
    nodes: list[tuple] = []

    def build(depth: int, a_code: int, b_code: int) -> int:
        if depth == len(order):
            nodes.append(leaf(1 if adjacent(a_code, b_code) else 0))
            return len(nodes) - 1
        if depth < bits:
            c0 = build(depth + 1, a_code, b_code)
            c1 = build(depth + 1, a_code | (1 << depth), b_code)
        else:
            c0 = build(depth + 1, a_code, b_code)
            c1 = build(depth + 1, a_code, b_code | (1 << (depth - bits)))
        nodes.append(split(order[depth], c0, c1))
        return len(nodes) - 1

    root = build(0, 0, 0)
    return DecisionTree(n, tuple(nodes), root)


def multicolored_clique_csr_gadget(g: ColoredGraph) -> QueryGadget:
    """Multicolored clique as a sufficiency query on a tree ensemble.

    Color classes are padded with isolated vertices to a common
    power-of-two size m, slots are encoded in log2(m) features per class,
    and each color pair gets a complete tree labelled by adjacency. With
    as many constant-0 trees added, the majority bar equals the number of
    pair trees, so the ensemble accepts exactly the encodings of
    multicolored cliques. x encodes a non-adjacent cross-color pair
    (guaranteed to exist after padding; if the graph is complete across
    classes, every class gets one extra isolated vertex first), so
    f(x) = 0 and the empty set is sufficient exactly when no clique
    exists.
    """
    k = g.color_count
    if k < 2:
        raise InvalidInstanceError("need at least two color classes")
    classes = g.color_classes()
    m = _next_power_of_two(max(2, max(len(c) for c in classes)))

    def slot_adjacent(ca: int, cb: int, a_code: int, b_code: int) -> bool:
        if a_code >= len(classes[ca]) or b_code >= len(classes[cb]):
            return False  # padded slots are isolated
        return g.adjacent(classes[ca][a_code], classes[cb][b_code])

    def find_nonedge(size: int):
        for ca, cb in combinations(range(k), 2):
            for a_code in range(size):
                for b_code in range(size):
                    if not slot_adjacent(ca, cb, a_code, b_code):
                        return ca, cb, a_code, b_code
        return None

    witness = find_nonedge(m)
    if witness is None:
        # complete across classes with no padding anywhere: force padding
        m = _next_power_of_two(m + 1)
        witness = find_nonedge(m)
    bits = m.bit_length() - 1
    n = k * bits
    pair_trees = []
    for ca, cb in combinations(range(k), 2):
        pair_trees.append(_pair_tree(
            n, bits, ca, cb,
            lambda a_code, b_code, ca=ca, cb=cb: slot_adjacent(ca, cb, a_code, b_code)))
    dummies = [constant_tree(n, 0) for _ in pair_trees]
    model = Ensemble(tuple(pair_trees + dummies), Majority())
    ca, cb, a_code, b_code = witness
    x = [0] * n
    for b in range(bits):
        x[ca * bits + b] = (a_code >> b) & 1
        x[cb * bits + b] = (b_code >> b) & 1
    return QueryGadget("csr", model, tuple(x), subset=(),
                       info={"family": "clique", "colors": k, "padded_size": m,
                             "nonedge": witness})
