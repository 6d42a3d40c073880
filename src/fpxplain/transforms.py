"""Model transforms: conditioning, negation, indicators, DNF/CNF compilation.

Every transform preserves the ambient feature count so that instances
remain directly comparable before and after.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnsupportedModelError
from .models import (
    DecisionTree, Ensemble, Instance, LEAF, Majority, Model, Perceptron,
    Record, Weighted, as_fraction, check_instance, check_subset, constant_tree,
    leaf, majority_threshold, split, subset_mask,
)


# ---------------------------------------------------------------------------
# conditioning: fix z_S = x_S


def condition_tree(tree: DecisionTree, x: Instance, s) -> DecisionTree:
    """Replace every test of a feature in s by the branch matching x.

    The result never tests a feature from s and agrees with the original
    tree on every instance z with z_s = x_s. Feature count is unchanged.
    """
    x = check_instance(x, tree.feature_count)
    s = check_subset(s, tree.feature_count)
    smask = subset_mask(s)
    nodes: list[tuple] = []
    built: list[int] = []  # arena indices of the finished subtrees
    stack = [(tree.root, False)]  # (node, children finished); 0-branch pops first
    while stack:
        idx, finished = stack.pop()
        node = tree.nodes[idx]
        if finished:
            i1 = built.pop()
            node = split(node[1], built.pop(), i1)
        elif node[0] != LEAF:
            _, feat, c0, c1 = node
            if (smask >> feat) & 1:
                stack.append((c1 if x[feat] else c0, False))
            else:
                stack.extend(((idx, True), (c1, False), (c0, False)))
            continue
        nodes.append(node)
        built.append(len(nodes) - 1)
    root = built.pop()
    return DecisionTree(tree.feature_count, tuple(nodes), root)


def condition_perceptron(p: Perceptron, x: Instance, s) -> Perceptron:
    """Zero out the weights on s and fold their x-contribution into the bias."""
    x = check_instance(x, p.feature_count)
    s = check_subset(s, p.feature_count)
    sset = set(s)
    ws = list(p.weights)
    b = p.bias
    for i in sset:
        if x[i]:
            b += ws[i]
        ws[i] = Fraction(0)
    return Perceptron(tuple(ws), b)


def condition_model(m: Model, x: Instance, s) -> Model:
    """Condition any supported model on z_s = x_s."""
    if isinstance(m, Ensemble):
        return Ensemble(tuple(condition_model(sub, x, s) for sub in m.members), m.voting)
    if isinstance(m, DecisionTree):
        return condition_tree(m, x, s)
    if isinstance(m, Perceptron):
        return condition_perceptron(m, x, s)
    raise UnsupportedModelError(f"cannot condition {type(m).__name__}")


# ---------------------------------------------------------------------------
# negation


def negate_tree(tree: DecisionTree) -> DecisionTree:
    nodes = tuple(leaf(1 - n[1]) if n[0] == LEAF else n for n in tree.nodes)
    return DecisionTree(tree.feature_count, nodes, tree.root)


def negate_perceptron(p: Perceptron) -> Perceptron:
    """Exact complement of a perceptron.

    Values of w.x + b lie on the grid (1/D)Z for D = lcm of the parameter
    denominators, so w.x + b < 0 is equivalent to -w.x - b - 1/(2D) >= 0.
    """
    _, _, denom = p.scaled
    eps = Fraction(1, 2 * denom)
    return Perceptron(tuple(-w for w in p.weights), -p.bias - eps)


def negate_base(m) :
    if isinstance(m, DecisionTree):
        return negate_tree(m)
    if isinstance(m, Perceptron):
        return negate_perceptron(m)
    raise UnsupportedModelError(f"cannot negate {type(m).__name__}")


def negate_ensemble(e: Ensemble) -> Ensemble:
    """Exact complement of an ensemble.

    Odd-size majority flips each member and stays majority. All other
    cases keep the members and negate the voting rule: the achievable
    weighted sums lie on a grid no finer than 1/(prod of weight and
    threshold denominators), so strict < becomes >= after shifting the
    negated threshold by half that grid step.
    """
    k = len(e.members)
    if isinstance(e.voting, Majority):
        if k % 2 == 1:
            return Ensemble(tuple(negate_base(m) for m in e.members), Majority())
        phi = (Fraction(1),) * k
        theta = Fraction(majority_threshold(k))
    else:
        phi = e.voting.weights
        theta = e.voting.threshold
    denom_prod = theta.denominator
    for w in phi:
        denom_prod *= w.denominator
    eps = Fraction(1, 2 * denom_prod)
    voting = Weighted(tuple(-w for w in phi), -theta + eps)
    return Ensemble(e.members, voting)


def negate_model(m: Model) -> Model:
    if isinstance(m, Ensemble):
        return negate_ensemble(m)
    return negate_base(m)


# ---------------------------------------------------------------------------
# indicators of partial assignments


def indicator_tree(x: Instance, s, n: int) -> DecisionTree:
    """Tree accepting exactly the instances that agree with x on s.

    A chain of |s| tests; the single accepting path follows x.
    """
    x = check_instance(x, n)
    s = check_subset(s, n)
    return _assignment_indicator_tree(tuple((i, x[i]) for i in s), n)


def _assignment_indicator_tree(literals: tuple[tuple[int, int], ...], n: int) -> DecisionTree:
    if not literals:
        return constant_tree(n, 1)
    nodes: list[tuple] = [leaf(1)]
    # build the chain bottom-up; each link gets its own reject leaf so the
    # arena stays a strict tree
    next_idx = 0
    for feat, bit in reversed(literals):
        nodes.append(leaf(0))
        reject = len(nodes) - 1
        c0, c1 = (reject, next_idx) if bit else (next_idx, reject)
        nodes.append(split(feat, c0, c1))
        next_idx = len(nodes) - 1
    return DecisionTree(n, tuple(nodes), next_idx)


def indicator_perceptron(x: Instance, s, n: int) -> Perceptron:
    """Perceptron accepting exactly the instances that agree with x on s.

    Weight +1 where x_i = 1 on s, -1 where x_i = 0 on s, 0 elsewhere;
    each disagreement moves the sum down by 1 from the +1/2 baseline.
    """
    x = check_instance(x, n)
    s = check_subset(s, n)
    h = [Fraction(0)] * n
    agree = Fraction(0)
    for i in s:
        h[i] = Fraction(1) if x[i] else Fraction(-1)
        agree += h[i] * x[i]
    return Perceptron(tuple(h), -agree + Fraction(1, 2))


# ---------------------------------------------------------------------------
# DNF / CNF compilation

Literal = tuple[int, int]  # (feature, required value)


class DnfFormula(Record):
    """Disjunction of terms; each term is a conjunction of literals."""

    feature_count: int
    terms: tuple[tuple[Literal, ...], ...]

    def __init__(self, feature_count: int, terms):
        self._set(feature_count=feature_count,
                  terms=tuple(_check_term(t, feature_count) for t in terms))


class CnfFormula(Record):
    """Conjunction of clauses; each clause is a disjunction of literals."""

    feature_count: int
    clauses: tuple[tuple[Literal, ...], ...]

    def __init__(self, feature_count: int, clauses):
        self._set(feature_count=feature_count,
                  clauses=tuple(_check_term(c, feature_count) for c in clauses))


def _check_term(lits, n: int) -> tuple[Literal, ...]:
    seen: dict[int, int] = {}
    for feat, bit in lits:
        if not (0 <= feat < n):
            raise UnsupportedModelError(f"literal feature {feat} outside 0..{n - 1}")
        if bit not in (0, 1):
            raise UnsupportedModelError(f"literal value {bit!r} not 0/1")
        if feat in seen and seen[feat] != bit:
            raise UnsupportedModelError(f"contradictory literals on feature {feat}")
        seen[feat] = bit
    return tuple(sorted(seen.items()))


def eval_dnf(f: DnfFormula, x: Instance) -> int:
    for term in f.terms:
        if all(x[i] == bit for i, bit in term):
            return 1
    return 0


def eval_cnf(f: CnfFormula, x: Instance) -> int:
    for clause in f.clauses:
        if not any(x[i] == bit for i, bit in clause):
            return 0
    return 1


def dnf_to_ensemble(f: DnfFormula) -> Ensemble:
    """Compile a DNF into a majority ensemble of 2*|terms| - 1 trees.

    One indicator tree per term plus |terms| - 1 constant-1 trees; the
    majority bar is then met exactly when some indicator fires. An empty
    DNF compiles to a single constant-0 tree.
    """
    n = f.feature_count
    t = len(f.terms)
    if t == 0:
        return Ensemble((constant_tree(n, 0),), Majority())
    members = [_assignment_indicator_tree(term, n) for term in f.terms]
    members.extend(constant_tree(n, 1) for _ in range(t - 1))
    return Ensemble(tuple(members), Majority())


def cnf_to_ensemble(f: CnfFormula) -> Ensemble:
    """Compile a CNF by negating clause-wise into a DNF and complementing.

    not(CNF) is the DNF whose terms are the negated clauses; compiling
    that and negating the ensemble yields the CNF exactly.
    """
    neg_terms = tuple(
        tuple((feat, 1 - bit) for feat, bit in clause) for clause in f.clauses)
    dnf = DnfFormula(f.feature_count, neg_terms)
    return negate_ensemble(dnf_to_ensemble(dnf))


# ---------------------------------------------------------------------------
# projection helper used by attribution


def project_out_feature(p: Perceptron, i: int, bit: int) -> Perceptron:
    """Drop feature i from a perceptron after fixing it to the given value."""
    ws = p.weights
    b = p.bias + (ws[i] if bit else 0)
    return Perceptron(ws[:i] + ws[i + 1:], b)
