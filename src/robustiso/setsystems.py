"""Set systems, exact VC dimension, epsilon-nets and epsilon-approximations.

Members of a set system are integer bitmasks over the ground set
{0, ..., ground_size-1}; the family is deduplicated by construction.  A
graph's neighbourhood systems take their members from graphs.neighbour_masks.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, VerificationError
from .graphs import Graph, neighbour_masks, threshold_graph
from .rationals import as_fraction


@dataclass(frozen=True, init=False)
class SetSystem:
    """A family of distinct subsets of {0, ..., ground_size-1}.

    `sets` gives the members as int bitmasks in increasing order.  They are
    stored packed, ground_size // 8 + 1 bytes each: callers that keep many
    systems hold a few bytes per member, where a Python int takes 32.
    """

    ground_size: int
    packed: bytes

    def __init__(self, ground_size: int, sets):
        if ground_size < 0:
            raise ValueError("ground size must be non-negative")
        masks = sorted(set(map(operator.index, sets)))
        full = (1 << ground_size) - 1
        for m in masks:
            if m & ~full:
                raise ValueError("set member exceeds the ground set")
        width = ground_size // 8 + 1
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(
            self, "packed", b"".join(m.to_bytes(width, "little") for m in masks)
        )

    @property
    def sets(self) -> tuple:
        width = self.ground_size // 8 + 1
        p = self.packed
        return tuple(
            int.from_bytes(p[i:i + width], "little") for i in range(0, len(p), width)
        )

    @classmethod
    def from_iterables(cls, ground_size: int, families) -> "SetSystem":
        return cls(ground_size, [_mask_of(m, ground_size) for m in families])

    def members(self):
        """Members decoded as sorted tuples of elements."""
        return sorted(
            tuple(i for i in range(self.ground_size) if m >> i & 1)
            for m in self.sets
        )

    def __len__(self):
        return len(self.packed) // (self.ground_size // 8 + 1)


def _mask_of(subset, ground_size: int) -> int:
    m = 0
    for x in subset:
        if not 0 <= x < ground_size:
            raise ValueError(f"element {x} outside ground set")
        m |= 1 << x
    return m


def neighbourhood_system(g: Graph) -> SetSystem:
    """The family of vertex neighbourhoods, deduplicated."""
    return SetSystem(g.n, neighbour_masks(g))


def mixed_system(g: Graph) -> SetSystem:
    """All pairwise symmetric differences of neighbourhoods (incl. the empty set)."""
    rows = neighbour_masks(g)
    masks = {rows[v] ^ rows[w] for v in range(g.n) for w in range(v, g.n)}
    if g.n == 0:
        masks.add(0)
    return SetSystem(g.n, masks)


def qap_threshold_system(q, t) -> SetSystem:
    """Threshold hypothesis system of a QAP instance.

    The ground set is [n] x [n] (pair (w,w') encoded as w*n+w'), and the
    member for (v,v') collects the pairs with coefficient > t.
    """
    ground = q.n * q.n
    masks = (_mask_of(np.flatnonzero(row).tolist(), ground) for row in q.exceeds(t))
    return SetSystem(ground, masks)


def is_shattered(system: SetSystem, subset) -> bool:
    """True iff every subset of `subset` occurs as a trace H & subset."""
    x = _mask_of(subset, system.ground_size)
    want = 1 << bin(x).count("1")
    traces = set()
    for m in system.sets:
        traces.add(m & x)
        if len(traces) == want:
            return True
    return len(traces) == want


# The constant c in the eps-approximation sample size c * eps^-2 * (d + ln(1/gamma)).
C_APPROX = 1


def vc_dimension_exact(system: SetSystem, budget: int | None = None) -> int:
    """Largest cardinality of a shattered subset; -1 for the empty family.

    Branch and bound over shattered sets, in the style of Bron & Kerbosch
    (1973) and Tomita, Tanaka & Takahashi (2006).  Elements with equal
    family membership are collapsed first.  A shattered set X is tracked as
    the partition of the family by trace on X, each class a bitmask over
    family indices carried with its member count; X + x is shattered iff x
    splits every class, and extending X by later candidates only visits
    each shattered set once.  Splitting a class of k members costs one
    pop-count a of the inside part, the outside part having k - a.

    Growing X by k more elements needs 2^k members in every class.  So a
    node stops once its size plus min(candidates left, floor(log2 of its
    smallest class)) cannot beat the best size found, and a child is built
    but not expanded when it cannot.  A child that must grow by `need` to
    beat the best keeps only those of its parent's later candidates that
    split each of its classes into parts of at least 2^(need-1) members:
    any other candidate fails a class of every larger shattered set.  The
    child's classes are sorted by size, so that filter tests the smallest,
    most selective class first and stops at the first class that fails.

    Each nonempty shattered set built is a search node.  The node past
    `budget` (default unbounded) raises BudgetExceededError with the node
    count.
    """
    family = list(system.sets)
    if not family:
        return -1
    full = (1 << len(family)) - 1
    # membership signature per element, by one pass over each member's bits
    sig_of = [0] * system.ground_size
    for i, m in enumerate(family):
        bit = 1 << i
        while m:
            low = m & -m
            sig_of[low.bit_length() - 1] |= bit
            m ^= low
    # one element per signature that lies in some member and misses another
    sigs = [s for s in dict.fromkeys(sig_of) if s and s != full]

    best = 0
    nodes = 0

    def extend(classes, size, cands, room):
        nonlocal best, nodes
        for i, sig in enumerate(cands):
            left = len(cands) - i - 1
            if size + min(left + 1, room) <= best:
                return
            nodes += 1
            BudgetExceededError.check(nodes, budget, "VC search nodes")
            best = max(best, size + 1)
            # the child X + sig beats best only by growing `need` more
            need = best - size
            if left < need:
                continue
            lim = 1 << need
            smallest = len(family)
            split = []
            for c, k in classes:
                inside = c & sig
                a = inside.bit_count()
                b = k - a
                if a < smallest:
                    smallest = a
                if b < smallest:
                    smallest = b
                if smallest < lim:
                    break
                split += ((inside, a), (c ^ inside, b))
            else:
                # smallest classes first: they reject the most candidates
                split.sort(key=operator.itemgetter(1))
                half = lim >> 1
                rest = []
                for s in cands[i + 1:]:
                    for c, k in split:
                        a = (c & s).bit_count()
                        if a < half or k - a < half:
                            break
                    else:
                        rest.append(s)
                extend(split, size + 1, rest, smallest.bit_length() - 1)

    extend([(full, len(family))], 0, sigs, len(family).bit_length() - 1)
    return best


def weighted_graph_vc(g: Graph, budget: int | None = None) -> int:
    """Max VC dimension of the threshold neighbourhood systems of (G, w).

    Thresholds: the distinct effective edge weights plus one sentinel below
    the minimum (at most |E|+1 distinct threshold graphs arise).  `budget`
    bounds the nodes of each threshold's VC search.
    """
    weights = sorted(set(g.edge_weights.values()))
    thresholds = [(weights[0] - 1) if weights else Fraction(0)] + weights
    return max(
        vc_dimension_exact(neighbourhood_system(threshold_graph(g, t)), budget)
        for t in thresholds
    )


def weak_vc_test(q, d: int, budget: int = 10_000_000) -> bool:
    """Decide whether every restricted threshold system has VC dimension <= d.

    For each candidate threshold and each injective partial map of size d+1,
    checks that some sub-map is realised as a trace by no pair (v,v').  The
    thresholds are the distinct coefficient values but the largest: no cell
    lies above that one, and every cell lies above any value below the
    smallest, so neither can shatter a nonempty set.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    n = q.n
    thresholds = sorted(q.value_set())[:-1]

    size = d + 1
    if size > n:
        return True
    work = len(thresholds) * math.comb(n, size) * math.perm(n, size)
    BudgetExceededError.check(work, budget, "(threshold, alpha) pairs of the weak VC test")

    # every target tuple at once: column j of `traces` holds, per pair (v,v'),
    # the bitmask of the alpha = zip(sources, targets[j]) cells above t
    targets = np.array(list(itertools.permutations(range(n), size)), dtype=int)
    for t in thresholds:
        above = q.exceeds(t).reshape(n * n, n, n)
        for sources in itertools.combinations(range(n), size):
            traces = sum(
                above[:, w, targets[:, i]].astype(np.int64) << i
                for i, w in enumerate(sources)
            )
            traces.sort(axis=0)
            distinct = 1 + np.count_nonzero(np.diff(traces, axis=0), axis=0)
            if (distinct == 1 << size).any():
                return False
    return True


def epsilon_net_greedy(system: SetSystem, eps) -> tuple:
    """Greedy hitting set for all members larger than eps * ground_size.

    The returned set hits every such member; greedy max-coverage keeps it
    within ceil(ln|H| / eps) picks (one pick when the family is a single
    large set, where that bound degenerates to zero).
    """
    eps = as_fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    threshold = eps * system.ground_size
    targets = [m for m in system.sets if bin(m).count("1") > threshold]
    net = []
    while targets:
        best_x, best_hits = -1, -1
        for x in range(system.ground_size):
            bit = 1 << x
            hits = sum(1 for m in targets if m & bit)
            if hits > best_hits:
                best_x, best_hits = x, hits
        net.append(best_x)
        bit = 1 << best_x
        targets = [m for m in targets if not m & bit]
    if len(system) > 0:
        bound = max(math.ceil(math.log(len(system)) / float(eps)), 1 if net else 0)
        if len(net) > bound:
            raise VerificationError(
                f"greedy net of size {len(net)} exceeds bound {bound}"
            )
    return tuple(sorted(net))


def verify_epsilon_approximation(system: SetSystem, sample, eps) -> bool:
    """Exact check of the approximation property for a multiset sample."""
    eps = as_fraction(eps)
    n = system.ground_size
    size = len(sample)
    slack = eps * n
    for m in system.sets:
        inside = sum(1 for x in sample if m >> x & 1)
        actual = Fraction(bin(m).count("1"))
        if size == 0:
            estimate = Fraction(0)
        else:
            estimate = Fraction(n, size) * inside
        if not (estimate - slack <= actual <= estimate + slack):
            return False
    return True


def epsilon_approximation_sample(
    system: SetSystem,
    eps,
    gamma,
    seed: int,
    d: int | None = None,
    retries: int = 8,
) -> tuple:
    """Uniform-with-replacement sample verified to be an eps-approximation.

    Draws ceil(C_APPROX * eps^-2 * (d + ln(1/gamma))) elements, checks the
    approximation property exactly against every family member, and redraws
    up to `retries` extra times before giving up.  Returns the sample as a
    sorted multiset tuple.
    """
    eps = as_fraction(eps)
    gamma = as_fraction(gamma)
    if not (0 < eps < 1 and 0 < gamma < 1):
        raise ValueError("eps and gamma must lie in (0, 1)")
    if d is None:
        d = max(vc_dimension_exact(system), 0)
    size = math.ceil(
        C_APPROX * (d + math.log(1 / float(gamma))) / float(eps) ** 2
    )
    size = max(size, 1)
    if system.ground_size == 0:
        return ()
    rng = random.Random(seed)
    for _ in range(retries + 1):
        sample = tuple(
            sorted(rng.randrange(system.ground_size) for _ in range(size))
        )
        if verify_epsilon_approximation(system, sample, eps):
            return sample
    raise VerificationError(
        f"no verified eps-approximation after {retries + 1} draws "
        "(consider more retries or a larger eps)"
    )
