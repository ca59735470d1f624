"""Bigraded Betti tables over k[x, y], matching graphs, and the
valency certificate for extremality.

A table lives on pairs (homological degree i <= 2, bidegree alpha in
Z^2).  Its matching graph has one vertex per bidegree carrying weight,
an x-edge between vertices that agree in the first coordinate and a
y-edge between vertices that agree in the second.  If every vertex
meets exactly one edge of each kind, the graph is connected, and no
vertex mixes homological degrees, the table spans an extremal ray of
the bigraded cone; the certificate is sufficient only, so the negative
answer is always "inconclusive", never "not extremal".
"""

import itertools
from fractions import Fraction
from math import gcd

from .errors import NotFiniteLength

CERT_EXTREMAL = "ExtremalByClaim3"
CERT_INCONCLUSIVE = "Inconclusive"


class Value:
    """An immutable value: equal to a value of the same type with an
    equal _key(), and hashed by that key, so equal values hash equal."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


class BigradedBettiTable(Value):
    """Sparse map (i, (a, b)) -> positive integer count, i in {0, 1, 2}."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        clean = {}
        for (i, alpha), count in dict(entries).items():
            count = integral(count, "count")
            if count < 0:
                raise ValueError(f"negative count at ({i}, {alpha})")
            i = integral(i, "homological degree")
            if i not in (0, 1, 2):
                raise ValueError(
                    f"homological degree {i} impossible over two variables")
            alpha = integral_bidegree(alpha)
            if count:
                clean[(i, alpha)] = count
        self.entries = clean

    @classmethod
    def _trusted(cls, entries):
        """A table over entries already in the form __init__ produces:
        a dict from (i, (a, b)), i in {0, 1, 2} and a, b ints, to
        positive int counts.  It skips every check, so only library
        code whose entries have that form by construction calls it, and
        says why at the call."""
        table = cls.__new__(cls)
        table.entries = entries
        return table

    def entry(self, i, alpha):
        return self.entries.get((i, tuple(alpha)), 0)

    def is_empty(self):
        return not self.entries

    def add(self, other):
        merged = dict(self.entries)
        for key, count in other.entries.items():
            merged[key] = merged.get(key, 0) + count
        return BigradedBettiTable(merged)

    def support(self):
        """All bidegrees carrying any entry."""
        return sorted({alpha for _, alpha in self.entries})

    def gcd_normalized(self):
        """The table divided by the gcd of its counts: the canonical
        key's entries are this table's keys with positive int counts."""
        return BigradedBettiTable._trusted(dict(self.canonical_key()))

    def swap_xy(self):
        """Mirror image under exchanging the two variables."""
        return BigradedBettiTable(
            {(i, (b, a)): c for (i, (a, b)), c in self.entries.items()})

    def canonical_key(self):
        """The gcd-normalized entries as a sorted tuple: equal exactly
        on scalar classes, and ordered like the sorted entries."""
        g = gcd(*self.entries.values())
        return tuple(sorted((key, c // g) for key, c in self.entries.items()))

    def _key(self):
        return frozenset(self.entries.items())

    def __repr__(self):
        body = ", ".join(f"({i},{a}):{c}" for (i, a), c
                         in sorted(self.entries.items()))
        return f"BigradedBettiTable({{{body}}})"


class KPolynomial(Value):
    """Integer Laurent polynomial in s1, s2 given coefficientwise."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = {}
        for alpha, c in dict(coefficients).items():
            c = integral(c, "coefficient")
            alpha = integral_bidegree(alpha, "exponent")
            if c:
                self.coefficients[alpha] = c

    @classmethod
    def _trusted(cls, coefficients):
        """A polynomial over a dict from int bidegree tuples to int
        coefficients.  It skips the integer checks, so only library
        code whose values have that form by construction calls it, and
        says why at the call; zero coefficients are still dropped."""
        k = cls.__new__(cls)
        k.coefficients = {alpha: c for alpha, c in coefficients.items() if c}
        return k

    def _key(self):
        return frozenset(self.coefficients.items())

    def __repr__(self):
        body = " + ".join(f"{c}*s^{a}" for a, c
                          in sorted(self.coefficients.items()))
        return f"KPolynomial({body or '0'})"


class MatchingGraph:
    """Weighted graph on the bidegrees of a table.

    vertices: alpha -> (weight, frozenset of contributing homological
    degrees).  Two vertices are x-adjacent iff they share the first
    coordinate, y-adjacent iff they share the second.  The vertices are
    grouped by column and by row once; valency, connectivity and the
    edge lists are all read off those groups.
    """

    __slots__ = ("vertices", "_columns", "_rows")

    def __init__(self, vertices):
        self.vertices = dict(vertices)
        self._columns, self._rows = {}, {}
        for a, b in self.vertices:
            self._columns.setdefault(a, []).append((a, b))
            self._rows.setdefault(b, []).append((a, b))

    @property
    def x_edges(self):
        """Sorted vertex pairs sharing the first coordinate."""
        return _pairs_within(self._columns)

    @property
    def y_edges(self):
        """Sorted vertex pairs sharing the second coordinate."""
        return _pairs_within(self._rows)

    def x_valency(self, alpha):
        """Other vertices sharing alpha's first coordinate."""
        return len(self._columns.get(alpha[0], ())) - 1

    def y_valency(self, alpha):
        """Other vertices sharing alpha's second coordinate."""
        return len(self._rows.get(alpha[1], ())) - 1

    def is_connected(self):
        return self.component_count() <= 1

    def component_count(self):
        """Components, by one union per vertex between its column and
        its row; every column holds a vertex, so its roots count them."""
        parent = {}

        def find(node):
            while parent.setdefault(node, node) != node:
                parent[node] = node = parent[parent[node]]
            return node

        for a, b in self.vertices:
            parent[find((0, a))] = find((1, b))
        return len({find((0, a)) for a in self._columns})


def _pairs_within(groups):
    return tuple(sorted(pair for group in groups.values()
                        for pair in itertools.combinations(sorted(group), 2)))


def matching_graph(t):
    """Build the weighted matching graph of a bigraded table."""
    weights = {}
    support = {}
    for (i, alpha), count in t.entries.items():
        weights[alpha] = weights.get(alpha, 0) + count
        support.setdefault(alpha, set()).add(i)
    return MatchingGraph({alpha: (weights[alpha], frozenset(support[alpha]))
                          for alpha in weights})


def signed_fold(entries):
    """key -> sum_i (-1)^i c_{i,key} over entries (i, key) -> c."""
    folded = {}
    for (i, key), c in entries.items():
        folded[key] = folded.get(key, 0) + (-c if i % 2 else c)
    return folded


def k_polynomial(t):
    """K(s1, s2) = sum_i sum_alpha (-1)^i beta_{i,alpha} s^alpha."""
    # A table's counts are ints at int bidegree tuples, so the fold has
    # int coefficients at int exponents.
    return KPolynomial._trusted(signed_fold(t.entries))


def finite_length_check(k):
    """True iff K(s1, 1) and K(1, s2) are both the zero polynomial:
    the coefficient of s1^a in K(s1, 1) is the sum over b of those of
    s1^a s2^b, and likewise for K(1, s2)."""
    for axis in (0, 1):
        sums = {}
        for alpha, c in k.coefficients.items():
            sums[alpha[axis]] = sums.get(alpha[axis], 0) + c
        if any(sums.values()):
            return False
    return True


class CertificateVerdict:
    """Outcome of the valency certificate plus its failure diagnostics.

    failures is a list of (kind, subject, detail) triples with kinds
    'empty', 'x-valency', 'y-valency', 'mixed-support', 'disconnected';
    for valency failures the subject is the vertex and the detail its
    actual valency.
    """

    __slots__ = ("verdict", "failures", "graph")

    def __init__(self, verdict, failures, graph):
        self.verdict = verdict
        self.failures = tuple(failures)
        self.graph = graph

    def is_extremal(self):
        return self.verdict == CERT_EXTREMAL

    def __repr__(self):
        return f"CertificateVerdict({self.verdict}, {list(self.failures)})"


def check_extremality_certificate(t):
    """Apply the sufficient extremality test to a bigraded table.

    Requires the finite length criterion on the K-polynomial (raises
    NotFiniteLength otherwise).  Certifies extremality when the
    matching graph is (1,1)-valent and connected and every vertex draws
    from a single homological degree; any failed condition downgrades
    the verdict to inconclusive, never to a claim of non-extremality.
    """
    if not finite_length_check(k_polynomial(t)):
        raise NotFiniteLength(
            "K-polynomial is not divisible by both (1 - s1) and (1 - s2)")
    graph = matching_graph(t)
    failures = []
    if not graph.vertices:
        failures.append(("empty", None, 0))
    for alpha in sorted(graph.vertices):
        _, support = graph.vertices[alpha]
        xv = graph.x_valency(alpha)
        yv = graph.y_valency(alpha)
        if xv != 1:
            failures.append(("x-valency", alpha, xv))
        if yv != 1:
            failures.append(("y-valency", alpha, yv))
        if len(support) != 1:
            failures.append(("mixed-support", alpha, sorted(support)))
    components = graph.component_count()
    if components > 1:
        failures.append(("disconnected", None, components))
    verdict = CERT_EXTREMAL if not failures else CERT_INCONCLUSIVE
    return CertificateVerdict(verdict, failures, graph)


def count_up_to_swap(tables):
    """Number of scalar classes after also identifying x with y.

    Each class keeps one key: the entries of its first table divided
    by their gcd.  Mirroring is an involution that keeps the gcd, so a
    table lies in the class of key K exactly when its key or the
    mirror of its key is K; a table opens a class unless one of the
    two is kept.
    """
    keys = set()
    for t in tables:
        items = t.entries.items()
        g = gcd(*t.entries.values())
        key = frozenset(items) if g == 1 \
            else frozenset((k, c // g) for k, c in items)
        if key not in keys and frozenset(
                ((i, (b, a)), c) for (i, (a, b)), c in key) not in keys:
            keys.add(key)
    return len(keys)


def graph_to_dot(graph):
    """DOT text for a matching graph: x-edges solid, y-edges dashed."""
    lines = ["graph matching {"]
    for alpha in sorted(graph.vertices):
        weight, _ = graph.vertices[alpha]
        name = f"\"{alpha[0]},{alpha[1]}\""
        lines.append(f"  {name} [label=\"({alpha[0]},{alpha[1]}):{weight}\"];")
    for edges, style in ((graph.x_edges, "solid"), (graph.y_edges, "dashed")):
        for u, w in edges:
            lines.append(f"  \"{u[0]},{u[1]}\" -- \"{w[0]},{w[1]}\""
                         f" [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bigraded_to_json_obj(t):
    return {
        "kind": "bigraded",
        "entries": [{"i": i, "deg": [a, b], "b": c}
                    for (i, (a, b)), c in sorted(t.entries.items())],
    }


def json_list(value, field):
    """A JSON array as given, else a ValueError naming the field."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def integral(value, field):
    """value as an int, else a ValueError naming the field; a
    non-integral value is refused rather than truncated, and so is a
    value int() cannot take (None, inf, NaN, any string)."""
    if type(value) is int:
        return value
    try:
        n = int(value)
        if n == value:
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    shown = repr(value) if isinstance(value, str) else value
    raise ValueError(f"{field} must be an integer, got {shown}")


def integral_bidegree(alpha, field="bidegree"):
    """alpha as a pair of ints, each coordinate checked by integral."""
    try:
        a, b = alpha
    except (TypeError, ValueError):
        raise ValueError(
            f"{field} must be a pair of integers, got {alpha!r}") from None
    return (integral(a, field), integral(b, field))


def json_int(value, field):
    """A JSON integer as an int, else a ValueError naming the field.

    An integral float (2.0) or a string holding an integer ("2") reads
    as that integer; 1.5 and the booleans are refused rather than read
    as numbers.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def json_rational(value, field):
    """A JSON number or a string such as "3/4" as an exact Fraction,
    else a ValueError naming the field.  A float reads as the decimal
    it is written as, so 0.1 is 1/10.  A boolean reads as its text,
    which is refused."""
    try:
        return Fraction(value if type(value) is int else str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{field} must be a rational number, got {value!r}") from None


def json_bidegree(value, field):
    """A JSON pair of integers as a tuple, else a ValueError naming the
    field."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (json_int(value[0], field), json_int(value[1], field))
    raise ValueError(f"{field} must be a pair of integers, got {value!r}")


def json_bidegrees(value, field):
    """A JSON list of integer pairs as a list of tuples."""
    return [json_bidegree(v, field) for v in json_list(value, field)]


def bigraded_from_json_obj(obj):
    if not isinstance(obj, dict) or obj.get("kind") != "bigraded":
        raise ValueError("expected a bigraded table object")
    entries = {}
    for item in json_list(obj["entries"], "entries"):
        if not isinstance(item, dict):
            raise ValueError(f"entries must hold objects, got {item!r}")
        key = (json_int(item["i"], "i"), json_bidegree(item["deg"], "deg"))
        entries[key] = entries.get(key, 0) + json_int(item["b"], "b")
    return BigradedBettiTable(entries)
