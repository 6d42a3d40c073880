"""Seeded random generators for models, instances and gadget inputs.

Everything takes an explicit random.Random so callers control
reproducibility; same seed, same stream, same objects.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InvalidInstanceError
from .gadgets import (
    ColoredGraph, GsspInstance, KgsspStarInstance, KsspInstance, SspInstance,
    subset_sums, subset_sums_by_count,
)
from .models import (
    DecisionTree, Ensemble, Majority, Perceptron, ProductDistribution,
    Weighted, leaf, shown, split,
)


def _at_least(value, least: int, what: str):
    """Refuse a size or bound that is not an integer of at least least,
    before the random stream reads it."""
    if type(value) is not int or value < least:
        raise InvalidInstanceError(
            f"{what} must be an integer of at least {least}, got {shown(value)}")


def rng_from_seed(seed) -> random.Random:
    return random.Random(seed)


def random_instance_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    _at_least(n, 0, "n")
    return tuple(rng.randint(0, 1) for _ in range(n))


def random_tree(rng: random.Random, n: int, max_leaves: int) -> DecisionTree:
    """Grow a read-once-per-path tree by splitting random leaves."""
    _at_least(max_leaves, 1, "max_leaves")
    _at_least(n, 0, "n")
    return _grow_tree(rng, n, rng.randint(1, max_leaves))


def random_tree_exact(rng: random.Random, n: int, leaves: int) -> DecisionTree:
    """Like random_tree but with an exact leaf count (needs enough features)."""
    _at_least(n, 0, "n")
    _at_least(leaves, 0, "leaves")
    tree = _grow_tree(rng, n, leaves)
    if tree.leaf_count != leaves:
        raise InvalidInstanceError(
            f"cannot fit {leaves} leaves in {n} read-once features")
    return tree


def _grow_tree(rng: random.Random, n: int, target: int) -> DecisionTree:
    root: list = ["leaf", None]
    fringe: list[tuple[list, set[int]]] = [(root, set())]
    count = 1
    while count < target:
        splittable = [idx for idx, (_, used) in enumerate(fringe) if len(used) < n]
        if not splittable:
            break
        pick = splittable[rng.randrange(len(splittable))]
        node, used = fringe.pop(pick)
        feature = rng.choice(sorted(set(range(n)) - used))
        c0: list = ["leaf", None]
        c1: list = ["leaf", None]
        node[:] = ["split", feature, c0, c1]
        fringe.append((c0, used | {feature}))
        fringe.append((c1, used | {feature}))
        count += 1

    nodes: list[tuple] = []

    def emit(node: list) -> int:
        if node[0] == "leaf":
            nodes.append(leaf(rng.randint(0, 1)))
        else:
            i0 = emit(node[2])
            i1 = emit(node[3])
            nodes.append(split(node[1], i0, i1))
        return len(nodes) - 1

    root_index = emit(root)
    return DecisionTree(n, tuple(nodes), root_index)


def random_rational(rng: random.Random, bound: int) -> Fraction:
    _at_least(bound, 0, "bound")
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 2)))


def random_perceptron(rng: random.Random, n: int, weight_bound: int) -> Perceptron:
    _at_least(weight_bound, 0, "weight_bound")
    _at_least(n, 0, "n")
    weights = tuple(random_rational(rng, weight_bound) for _ in range(n))
    # integer-heavy biases keep exact score ties common
    bias = Fraction(rng.randint(-2 * weight_bound, 2 * weight_bound),
                    rng.choice((1, 1, 1, 2)))
    return Perceptron(weights, bias)


def random_tree_ensemble(rng: random.Random, n: int, k: int,
                         max_leaves: int) -> Ensemble:
    _at_least(k, 1, "k")
    members = tuple(random_tree(rng, n, max_leaves) for _ in range(k))
    if rng.random() < 0.7:
        voting = Majority()
    else:
        vw = tuple(random_rational(rng, 3) for _ in range(k))
        voting = Weighted(vw, random_rational(rng, 2 * k))
    return Ensemble(members, voting)


def random_product_distribution(rng: random.Random, n: int) -> ProductDistribution:
    _at_least(n, 0, "n")
    probs = []
    for _ in range(n):
        den = rng.choice((2, 3, 4, 8))
        probs.append(Fraction(rng.randint(0, den), den))
    return ProductDistribution(tuple(probs))


def generate_model(family: str, rng: random.Random, n: int, k: int = 2,
                   max_leaves: int = 8, weight_bound: int = 8):
    if family == "tree":
        return random_tree(rng, n, max_leaves)
    if family == "tree-ensemble":
        return random_tree_ensemble(rng, n, k, max_leaves)
    if family == "perceptron":
        return random_perceptron(rng, n, weight_bound)
    raise InvalidInstanceError(f"unknown model family {family!r}")


# ---------------------------------------------------------------------------
# gadget input samplers


def sample_ssp(rng: random.Random, n: int, weight_bound: int = 40) -> SspInstance:
    _at_least(n, 1, "n")
    _at_least(weight_bound, 1, "weight_bound")
    weights = tuple(rng.randint(1, weight_bound) for _ in range(n))
    if rng.random() < 0.5:
        size = rng.randint(1, n)
        target = sum(rng.sample(weights, size))
    else:
        target = rng.randint(1, sum(weights))
    return SspInstance(weights, target)


def sample_kssp(rng: random.Random, n: int, weight_bound: int = 40) -> KsspInstance:
    _at_least(n, 1, "n")
    _at_least(weight_bound, 1, "weight_bound")
    weights = tuple(rng.randint(1, weight_bound) for _ in range(n))
    k = rng.randint(1, n)
    if rng.random() < 0.5:
        target = sum(rng.sample(weights, k))
    else:
        target = rng.randint(1, sum(weights))
    return KsspInstance(weights, k, target)


def kssp_matches_at_most(inst: KsspInstance) -> bool:
    """True when exact-size-k solvability agrees with size-at-most-k
    solvability, which is what the contrastiveness bound observes."""
    table = subset_sums_by_count(inst.weights)
    exact = inst.target in table[inst.k]
    at_most = any(inst.target in table[j] for j in range(inst.k + 1))
    return exact == at_most


def sample_kssp_filtered(rng: random.Random, n: int,
                         weight_bound: int = 40) -> KsspInstance:
    while True:
        inst = sample_kssp(rng, n, weight_bound)
        if kssp_matches_at_most(inst):
            return inst


def sample_gssp(rng: random.Random, l: int, m: int,
                weight_bound: int = 12) -> GsspInstance:
    _at_least(l, 1, "l")
    _at_least(m, 0, "m")
    _at_least(weight_bound, 1, "weight_bound")
    u = tuple(rng.randint(1, weight_bound) for _ in range(l))
    if rng.random() < 0.5:
        # dense v-side subset sums make no-answers reachable
        v = tuple(rng.choice((1, 1, 2, 2, 3, 4)) for _ in range(m))
    else:
        v = tuple(rng.randint(1, weight_bound) for _ in range(m))
    if rng.random() < 0.5:
        su = sum(rng.sample(u, rng.randint(1, l)))
        sv_pool = sorted(subset_sums(v))
        target = su + rng.choice(sv_pool)
    else:
        target = rng.randint(1, sum(u) + sum(v))
    return GsspInstance(u, v, target)


def sample_kgssp_star(rng: random.Random, n: int,
                      weight_bound: int = 20) -> KgsspStarInstance:
    """Direct sampler; avoids the sum(z) == target corner where the
    query gadget's correspondence intentionally does not hold."""
    _at_least(n, 1, "n")
    _at_least(weight_bound, 1, "weight_bound")
    if n == weight_bound == 1:
        raise InvalidInstanceError(
            "n = 1 and weight_bound = 1 leave no instance: sum(z) is 1, and the "
            "target must lie in 1..sum(z) without equalling it")
    while True:
        z = tuple(rng.randint(1, weight_bound) for _ in range(n))
        l = rng.randint(1, n)
        k = rng.randint(1, l)
        if rng.random() < 0.5:
            inside = rng.sample(range(l), k)
            chosen = set(inside)
            target = sum(z[i] for i in inside)
            for i in range(n):
                if i not in chosen and rng.random() < 0.3:
                    target += z[i]
        else:
            target = rng.randint(1, sum(z))
        if target >= 1 and sum(z) != target:
            return KgsspStarInstance(z, tuple(range(l)), k, target)


def sample_colored_graph(rng: random.Random, k: int, max_class_size: int) -> ColoredGraph:
    _at_least(k, 0, "k")
    _at_least(max_class_size, 1, "max_class_size")
    sizes = [rng.randint(1, max_class_size) for _ in range(k)]
    colors = []
    for c, size in enumerate(sizes):
        colors.extend([c] * size)
    n = len(colors)
    p = rng.uniform(0.3, 0.9)
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if colors[a] != colors[b] and rng.random() < p:
                edges.add((a, b))
            elif colors[a] == colors[b] and rng.random() < 0.1:
                edges.add((a, b))
    return ColoredGraph(tuple(colors), frozenset(edges))
