"""Core model classes: trees, perceptrons, ensembles, distributions.

Conventions used throughout the package:

* instances are tuples of 0/1 ints, feature i at position i (0-based)
* all numeric model parameters are exact rationals (fractions.Fraction)
* a perceptron outputs 1 iff w . x + b >= 0
* a decision tree tests each feature at most once per root-to-leaf path
  and has 0/1 leaf labels
* ensemble voting is either simple majority (at least ceil(k/2) votes)
  or weighted: output 1 iff sum(phi_i * f_i(x)) >= theta

A model is valid by construction: each constructor checks its invariants
and raises InvalidInstanceError("invalid model: ...") with the broken ones
in its problems attribute, and refuses a number that is not exact.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter, mul
from typing import Union

from .errors import (
    InputShapeError, InvalidInstanceError, ResourceCapError, UnsupportedModelError,
)

Instance = tuple[int, ...]


class _AbsentType:
    """Sentinel for 'no witness exists' answers (e.g. MCR on a constant model)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Absent"

    def __bool__(self):
        return False


ABSENT = _AbsentType()


class Record:
    """Base of the immutable value classes.

    A frozen dataclass would load dataclasses and inspect into every query
    process and generate each class's methods at import. Here the fields
    are the class's annotated names, in order, and its __init__ stores
    them with _set. Equality and hashing are on the tuple of the field
    values, read by a per-class attrgetter, and only between instances of
    one class; the hash is computed once and kept. repr is
    ClassName(field=value, ...).
    Assigning or deleting an attribute raises AttributeError. Instances
    keep a __dict__, so functools.cached_property works on them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # attrgetter returns a bare value for one name and needs at least
        # one, so those shapes are made tuples here
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        elif fields:
            one = attrgetter(fields[0])
            cls._values = staticmethod(lambda obj: (one(obj),))
        else:
            cls._values = staticmethod(lambda obj: ())

    def _set(self, **fields):
        self.__dict__.update(fields)

    @staticmethod
    def _values(obj) -> tuple:
        """The field values of obj, in field order."""
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        # kept in __dict__ after the first call: an lru_cache keyed on a
        # record (a model, a distribution of n Fractions) hashes it again
        # on every lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(self._values(self))
        return h

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"


def rational_str(value) -> str:
    """value as 'p/q', or 'p' for an integer: the form of rationals in
    payloads and documents. A numerator or denominator past the
    interpreter's int-to-str digit limit raises ResourceCapError."""
    try:
        return str(Fraction(value))
    except ValueError:
        raise ResourceCapError(
            f"a numerator or denominator has more than {sys.get_int_max_str_digits()} "
            "digits; raise PYTHONINTMAXSTRDIGITS to print it") from None


def shown(value) -> str:
    """value as an error message shows it: a Fraction as p/q, anything
    else by repr. A value that cannot be printed, an int past the digit
    limit or one holding such an int, is named by its type."""
    try:
        return str(value) if isinstance(value, Fraction) else repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def as_fraction(v) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to Fraction; a float
    or anything else Fraction refuses raises InvalidInstanceError."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        raise InvalidInstanceError(
            f"floats are not exact, got {v!r}; pass a Fraction or 'p/q' string")
    try:
        return Fraction(v)
    except (TypeError, ValueError, ArithmeticError):  # '1/0' divides by zero
        raise InvalidInstanceError(f"expected a rational, got {shown(v)}") from None


def as_tuple(values, what: str) -> tuple:
    """values as a tuple, or InvalidInstanceError if it is not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidInstanceError(
            f"{what} of type {type(values).__name__} are not a sequence") from None


def _rationals(values, what: str) -> tuple[Fraction, ...]:
    """values as a tuple of Fractions, each read by as_fraction."""
    return tuple(map(as_fraction, as_tuple(values, what)))


def invalid_model(problems) -> InvalidInstanceError:
    """The error for a model with these problems, which it carries."""
    exc = InvalidInstanceError("invalid model: " + "; ".join(problems))
    exc.problems = tuple(problems)
    return exc


# ---------------------------------------------------------------------------
# decision trees

LEAF = "leaf"
SPLIT = "split"


class DecisionTree(Record):
    """Binary decision tree over Boolean features, stored as a node arena.

    nodes[i] is either ("leaf", label) with label in {0, 1} or
    ("split", feature, child0, child1) where child0/child1 are arena
    indices for the feature=0 / feature=1 branches.

    paths lists the root-to-leaf paths as (mask, vals, label) triples in
    DFS order, 0-branch first: bit i of mask is set iff feature i is tested
    on the path, and bit i of vals gives the branch taken there. __init__
    lists them in the one walk that checks the arena (see _walk_arena).
    """

    feature_count: int
    nodes: tuple[tuple, ...]
    root: int

    def __init__(self, feature_count: int, nodes: tuple[tuple, ...], root: int = 0):
        problems, paths = _walk_arena(feature_count, nodes, root)
        if problems:
            raise invalid_model(problems)
        self._set(feature_count=feature_count, nodes=nodes, root=root, paths=paths)

    @cached_property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if n[0] == LEAF)


def leaf(label: int) -> tuple:
    return (LEAF, label)


def split(feature: int, child0: int, child1: int) -> tuple:
    return (SPLIT, feature, child0, child1)


def constant_tree(feature_count: int, label: int) -> DecisionTree:
    return DecisionTree(feature_count, (leaf(label),), 0)


def eval_tree(tree: DecisionTree, x: Instance) -> int:
    idx = tree.root
    nodes = tree.nodes
    while True:
        node = nodes[idx]
        if node[0] == LEAF:
            return node[1]
        idx = node[2 + x[node[1]]]


# ---------------------------------------------------------------------------
# perceptrons


class Perceptron(Record):
    """Linear threshold classifier: output 1 iff weights . x + bias >= 0."""

    weights: tuple[Fraction, ...]
    bias: Fraction

    def __init__(self, weights, bias):
        weights = _rationals(weights, "weights")
        if not weights:
            raise invalid_model(("perceptron has no features",))
        self._set(weights=weights, bias=as_fraction(bias))

    @property
    def feature_count(self) -> int:
        return len(self.weights)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int, int]:
        """Integer view (int_weights, int_bias, denom) with w = int_w / denom."""
        denom = lcm(self.bias.denominator, *(w.denominator for w in self.weights))
        ws = tuple(w.numerator * (denom // w.denominator) for w in self.weights)
        return ws, self.bias.numerator * (denom // self.bias.denominator), denom


def eval_perceptron(p: Perceptron, x: Instance) -> int:
    ws, b, _ = p.scaled
    total = b
    for w, xi in zip(ws, x):
        if xi:
            total += w
    return 1 if total >= 0 else 0


# ---------------------------------------------------------------------------
# ensembles


class Majority(Record):
    """Simple majority voting: output 1 iff at least ceil(k/2) members vote 1."""


class Weighted(Record):
    """Weighted voting: output 1 iff sum(weights[i] * vote_i) >= threshold."""

    weights: tuple[Fraction, ...]
    threshold: Fraction

    def __init__(self, weights, threshold):
        self._set(weights=_rationals(weights, "weights"), threshold=as_fraction(threshold))

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """Integer view (int_weights, int_threshold), both scaled by the lcm
        of their denominators, as in Perceptron.scaled."""
        theta = self.threshold
        denom = lcm(theta.denominator, *(w.denominator for w in self.weights))
        return (tuple(w.numerator * (denom // w.denominator) for w in self.weights),
                theta.numerator * (denom // theta.denominator))


Voting = Union[Majority, Weighted]

BaseModel = Union[DecisionTree, Perceptron]
Model = Union[DecisionTree, Perceptron, "Ensemble"]


class Ensemble(Record):
    members: tuple[BaseModel, ...]
    voting: Voting

    def __init__(self, members: tuple[BaseModel, ...], voting: Voting):
        problems = ensemble_problems(members, voting)
        if problems:
            raise invalid_model(problems)
        self._set(members=members, voting=voting)

    @property
    def feature_count(self) -> int:
        return self.members[0].feature_count

    @property
    def size(self) -> int:
        return len(self.members)


def majority_ensemble(members) -> Ensemble:
    return Ensemble(tuple(members), Majority())


def majority_threshold(k: int) -> int:
    return (k + 1) // 2


def integer_votes(voting: Voting, k: int) -> tuple[tuple[int, ...], int]:
    """Integer view (weights, threshold) of the voting rule over k members.

    Majority is unit weights with threshold ceil(k/2); weighted voting is
    its Weighted.scaled view.
    """
    if isinstance(voting, Majority):
        return (1,) * k, majority_threshold(k)
    return voting.scaled


def votes_accept(voting: Voting, votes: list[int] | tuple[int, ...]) -> int:
    """Apply the voting rule to a 0/1 vote vector, on its integer view."""
    if isinstance(voting, Majority):
        return 1 if sum(votes) >= majority_threshold(len(votes)) else 0
    weights, threshold = voting.scaled
    total = 0
    for w, v in zip(weights, votes):
        if v:
            total += w
    return 1 if total >= threshold else 0


def eval_ensemble(e: Ensemble, x: Instance) -> int:
    votes = [eval_base(m, x) for m in e.members]
    return votes_accept(e.voting, votes)


def eval_base(m: BaseModel, x: Instance) -> int:
    if isinstance(m, DecisionTree):
        return eval_tree(m, x)
    if isinstance(m, Perceptron):
        return eval_perceptron(m, x)
    raise UnsupportedModelError(f"not a base model: {type(m).__name__}")


def eval_model(m: Model, x: Instance) -> int:
    """Evaluate any supported model on a full instance."""
    if isinstance(m, Ensemble):
        return eval_ensemble(m, x)
    return eval_base(m, x)


def is_tree_ensemble(m: Model) -> bool:
    return isinstance(m, Ensemble) and all(isinstance(t, DecisionTree) for t in m.members)


# ---------------------------------------------------------------------------
# product distributions


_HALF = Fraction(1, 2)


class ProductDistribution(Record):
    """Independent per-feature Bernoulli parameters, probs[i] = Pr[z_i = 1]."""

    probs: tuple[Fraction, ...]

    def __init__(self, probs):
        ps = _rationals(probs, "probs")
        for i, p in enumerate(ps):
            if not 0 <= p.numerator <= p.denominator:  # the denominator is positive
                raise InvalidInstanceError(f"probs[{i}] = {shown(p)} outside [0, 1]")
        self._set(probs=ps)

    @classmethod
    def uniform(cls, n: int) -> "ProductDistribution":
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidInstanceError(f"feature count {shown(n)} is not a non-negative int")
        # every entry is the constant 1/2, which __init__'s checks pass, so
        # the tuple is stored without them
        out = cls.__new__(cls)
        try:
            out._set(probs=(_HALF,) * n)
        except OverflowError:
            raise ResourceCapError(f"{shown(n)} features do not fit in one tuple") from None
        return out

    @property
    def feature_count(self) -> int:
        return len(self.probs)


# ---------------------------------------------------------------------------
# shape checks and bit helpers


def check_instance(x, n: int) -> Instance:
    """Validate and canonicalize an instance to a tuple of 0/1 ints."""
    try:
        xt = tuple(x)
    except TypeError:
        raise InputShapeError(
            f"instance must be a sequence of 0/1 bits, got {shown(x)}") from None
    if len(xt) != n:
        raise InputShapeError(f"instance has {len(xt)} features, model expects {shown(n)}")
    for i, b in enumerate(xt):
        if not isinstance(b, int) or b not in (0, 1):  # 1.0 == 1, but indexes no branch
            raise InputShapeError(f"instance bit {i} is {shown(b)}, expected 0 or 1")
    return xt


def check_subset(s, n: int) -> tuple[int, ...]:
    """Validate and canonicalize a feature subset to a sorted tuple of ints.

    Each index is checked before duplicates are merged, so a bool (equal
    to 0 or 1 but not a feature index) is refused even beside its int.
    """
    try:
        st = tuple(s)
    except TypeError:
        raise InputShapeError(
            f"subset must be an iterable of feature indices, got {shown(s)}") from None
    for i in st:
        if type(i) is not int or i < 0 or i >= n:
            raise InputShapeError(f"feature index {shown(i)} outside range 0..{shown(n - 1)}")
    return tuple(sorted(set(st)))


def check_dist(dist: ProductDistribution, n: int):
    """Validate that dist is a product distribution over exactly n features."""
    if not isinstance(dist, ProductDistribution):
        raise InputShapeError(
            f"distribution must be a ProductDistribution, got {type(dist).__name__}")
    if dist.feature_count != n:
        raise InputShapeError(
            f"distribution over {dist.feature_count} features, model has {shown(n)}")


def subset_mask(s) -> int:
    m = 0
    for i in s:
        m |= 1 << i
    return m


def bits_to_int(x: Instance) -> int:
    z = 0
    for i, b in enumerate(x):
        if b:
            z |= 1 << i
    return z


def int_to_bits(z: int, n: int) -> Instance:
    return tuple((z >> i) & 1 for i in range(n))


def packed_cells(packed: int, size: int, count: int) -> list[int]:
    """The cells c_0..c_(count-1) of a packed polynomial sum_k c_k 2^(8 size k).

    Every c_k must lie in [0, 2^(8 size)). The integer is read once, into
    bytes, and each cell is one slice of them, so the read costs time
    linear in the number of cells.
    """
    raw = packed.to_bytes(count * size, "little")
    read = int.from_bytes
    return [read(raw[at:at + size], "little") for at in range(0, len(raw), size)]


def packed_dot(packed: int, size: int, weights) -> int:
    """sum_k weights[k] c_k over the cells of packed_cells."""
    return sum(map(mul, weights, packed_cells(packed, size, len(weights))))


# ---------------------------------------------------------------------------
# validation


def ensemble_problems(members, voting, unbuilt=None) -> list[str]:
    """The problems of an ensemble, each member's prefixed "member j: ",
    then its voting rule's. unbuilt maps the index of a member the loader
    could not build to its (feature count, problems); members holds None there.
    """
    if not isinstance(members, tuple):
        return [f"members of type {type(members).__name__} are not a tuple"]
    if not members:
        return ["ensemble has no members"]
    problems = []
    n = None  # member 0's feature count, once it is a base model
    for j, sub in enumerate(members):
        if unbuilt and j in unbuilt:
            count, own = unbuilt[j]
        elif isinstance(sub, (DecisionTree, Perceptron)):
            count, own = sub.feature_count, ()
        else:
            problems.append(f"member {j}: unsupported type {type(sub).__name__}")
            continue
        if j == 0:
            n = count
        elif n is not None and count != n:
            problems.append(f"member {j}: feature count {shown(count)} differs "
                            f"from member 0 ({shown(n)})")
        problems.extend(f"member {j}: {p}" for p in own)
    if isinstance(voting, Weighted) and len(voting.weights) != len(members):
        problems.append(f"voting has {len(voting.weights)} weights for {len(members)} members")
    elif not isinstance(voting, (Majority, Weighted)):
        problems.append(f"unknown voting rule {type(voting).__name__}")
    return problems


def check_model(m: Model):
    """Refuse an object that is not a model; a model is valid by construction."""
    if not isinstance(m, (DecisionTree, Perceptron, Ensemble)):
        raise invalid_model((f"unsupported model type {type(m).__name__}",))


def _walk_arena(n, nodes, root) -> tuple[tuple[str, ...], tuple[tuple[int, int, int], ...]]:
    """One DFS over a tree's arena, 0-branch first: (problems, path triples).

    A feature count that is not a non-negative int (bools excluded) and
    nodes that are not a sequence are problems that stop the walk. Each
    reachable node is visited once: a node reachable twice, a child
    index that is not an int (bools included) or is outside the arena, an
    empty node or one that is not a sequence, an unknown tag, a leaf
    without two entries or a split without four, a feature that is not an
    int, is outside 0..n-1 or is tested twice on a path, and a leaf label
    other than the ints 0 and 1 are problems, and the walk does not
    descend past them. Then each node the walk did not reach, in index
    order, gets the same checks on its own, its child indices checked but
    not followed. An arena with no other problem must hash, as the
    value-keyed caches hash the tree: a list where a tuple belongs is a
    problem too. The triples are DecisionTree.paths, meaningful only when
    there are no problems.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        return (f"feature count {shown(n)} is not a non-negative int",), ()
    if type(nodes) is not tuple and not isinstance(nodes, Sequence):  # the ABC test is slow
        return (f"nodes of type {type(nodes).__name__} are not a sequence",), ()
    size = len(nodes)
    if not size:
        return ("tree has no nodes",), ()
    if type(root) is not int:
        return (f"root index {shown(root)} is not an int",), ()
    if not (0 <= root < size):
        return (f"root index {shown(root)} outside arena",), ()
    problems = []
    out = []
    seen = set()
    _walk(n, nodes, [(root, 0, 0)], seen, problems, out)
    if len(seen) < size:  # every tree generate builds reaches all its nodes
        # the lowest first; vals -1 marks them (mask 0) and their children
        unreached = [(idx, 0, -1) for idx in range(size - 1, -1, -1) if idx not in seen]
        _walk(n, nodes, unreached, set(range(size)), problems, [])
    if not problems:
        try:
            hash(nodes)
        except TypeError as exc:
            problems.append(f"nodes are not hashable ({exc})")
    return tuple(problems), tuple(out)


def _walk(n, nodes, stack, seen, problems, out):
    """The DFS of _walk_arena from the (node, features tested above it,
    their values) on stack, adding to seen, problems and the path triples
    out. With vals -1 a node is checked on its own: its children are
    checked as indices only, being seen already."""
    size = len(nodes)
    while stack:
        idx, mask, vals = stack.pop()
        if type(idx) is not int:  # True and 1.0 would index node 1
            problems.append(f"child index {shown(idx)} is not an int")
            continue
        if not (0 <= idx < size):
            problems.append(f"child index {shown(idx)} outside arena")
            continue
        if idx in seen:
            if vals >= 0:
                problems.append(f"node {idx} reachable twice (arena must be a tree)")
                continue
            if mask:  # a child of a node checked on its own
                continue
        seen.add(idx)
        node = nodes[idx]
        # the try blocks cost nothing unless a node is malformed
        try:
            tag = node[0]
        except (LookupError, TypeError):  # a dict node raises KeyError
            problems.append(f"node {idx} {shown(node)} is not a tagged tuple")
            continue
        if tag == SPLIT:
            try:
                _, feat, c0, c1 = node
            except ValueError:
                problems.append(f"node {idx} {shown(node)} has {len(node)} entries, not 4")
                continue
            if type(feat) is not int:
                problems.append(f"node {idx} tests feature {shown(feat)}, not an int")
                continue
            if not (0 <= feat < n):
                problems.append(
                    f"node {idx} tests feature {shown(feat)} outside 0..{shown(n - 1)}")
                continue
            bit = 1 << feat
            if mask & bit:
                problems.append(f"feature {feat} tested twice on a path through node {idx}")
                continue
            # push the 1-branch first so the 0-branch pops first
            stack.append((c1, mask | bit, vals | bit))
            stack.append((c0, mask | bit, vals))
        elif tag == LEAF:
            try:
                _, label = node
            except ValueError:
                problems.append(f"node {idx} {shown(node)} has {len(node)} entries, not 2")
                continue
            if label in (0, 1) and type(label) is int:  # True == 1, but is no label
                out.append((mask, vals, label))
            else:
                problems.append(f"leaf {idx} label {shown(label)} not 0/1")
        else:
            problems.append(f"node {idx} has unknown tag {shown(tag)}")
