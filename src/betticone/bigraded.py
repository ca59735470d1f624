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
from collections import Counter
from fractions import Fraction
from math import gcd

from .errors import NotFiniteLength

CERT_EXTREMAL = "ExtremalByClaim3"
CERT_INCONCLUSIVE = "Inconclusive"


class BigradedBettiTable:
    """Sparse map (i, (a, b)) -> positive integer count, i in {0, 1, 2}."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        clean = {}
        for (i, alpha), count in dict(entries).items():
            count = int(count)
            if count == 0:
                continue
            if count < 0:
                raise ValueError(f"negative count at ({i}, {alpha})")
            i = int(i)
            if i not in (0, 1, 2):
                raise ValueError(
                    f"homological degree {i} impossible over two variables")
            a, b = alpha
            clean[(i, (int(a), int(b)))] = count
        self.entries = clean

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
        g = gcd(*self.entries.values()) if self.entries else 1
        return BigradedBettiTable(
            {key: c // g for key, c in self.entries.items()})

    def swap_xy(self):
        """Mirror image under exchanging the two variables."""
        return BigradedBettiTable(
            {(i, (b, a)): c for (i, (a, b)), c in self.entries.items()})

    def canonical_key(self):
        """Hashable form of the gcd-normalized table (scalar classes)."""
        g = gcd(*self.entries.values())
        return frozenset((key, c // g) for key, c in self.entries.items())

    def __eq__(self, other):
        if isinstance(other, BigradedBettiTable):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        body = ", ".join(f"({i},{a}):{c}" for (i, a), c
                         in sorted(self.entries.items()))
        return f"BigradedBettiTable({{{body}}})"


class KPolynomial:
    """Integer Laurent polynomial in s1, s2 given coefficientwise."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = {
            (int(a), int(b)): int(c)
            for (a, b), c in dict(coefficients).items() if int(c) != 0}

    def is_zero(self):
        return not self.coefficients

    def substitute_one(self, axis):
        """K with the other variable set to 1, as a map from the
        exponent on this axis to an integer: axis 0 gives K(s1, 1),
        axis 1 gives K(1, s2)."""
        out = {}
        for alpha, c in self.coefficients.items():
            out[alpha[axis]] = out.get(alpha[axis], 0) + c
        return {e: c for e, c in out.items() if c}

    def __eq__(self, other):
        if isinstance(other, KPolynomial):
            return self.coefficients == other.coefficients
        return NotImplemented

    def __repr__(self):
        body = " + ".join(f"{c}*s^{a}" for a, c
                          in sorted(self.coefficients.items()))
        return f"KPolynomial({body or '0'})"


class MatchingGraph:
    """Weighted graph on the bidegrees of a table.

    vertices: alpha -> (weight, frozenset of contributing homological
    degrees).  Two vertices are x-adjacent iff they share the first
    coordinate, y-adjacent iff they share the second; valency and
    connectivity come from the column and row groups, and the edge
    lists are only built when read.
    """

    __slots__ = ("vertices", "_column", "_row")

    def __init__(self, vertices):
        self.vertices = dict(vertices)
        self._column = Counter(a for a, _ in self.vertices)
        self._row = Counter(b for _, b in self.vertices)

    @property
    def x_edges(self):
        """Sorted vertex pairs sharing the first coordinate."""
        return self._edges(0)

    @property
    def y_edges(self):
        """Sorted vertex pairs sharing the second coordinate."""
        return self._edges(1)

    def _edges(self, axis):
        return tuple((u, w) for u, w
                     in itertools.combinations(sorted(self.vertices), 2)
                     if u[axis] == w[axis])

    def weight(self, alpha):
        return self.vertices[alpha][0]

    def x_valency(self, alpha):
        """Other vertices sharing alpha's first coordinate."""
        return self._column[alpha[0]] - 1

    def y_valency(self, alpha):
        """Other vertices sharing alpha's second coordinate."""
        return self._row[alpha[1]] - 1

    def is_connected(self):
        return self.component_count() <= 1

    def component_count(self):
        """Components, joining each vertex to the first vertex of its
        column and of its row (the same components as the edges)."""
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        first_in_column = {}
        first_in_row = {}
        for v in self.vertices:
            parent[find(v)] = find(first_in_column.setdefault(v[0], v))
            parent[find(v)] = find(first_in_row.setdefault(v[1], v))
        return len({find(v) for v in parent})


def matching_graph(t):
    """Build the weighted matching graph of a bigraded table."""
    weights = {}
    support = {}
    for (i, alpha), count in t.entries.items():
        weights[alpha] = weights.get(alpha, 0) + count
        support.setdefault(alpha, set()).add(i)
    return MatchingGraph({alpha: (weights[alpha], frozenset(support[alpha]))
                          for alpha in weights})


def k_polynomial(t):
    """K(s1, s2) = sum_i sum_alpha (-1)^i beta_{i,alpha} s^alpha."""
    coeffs = {}
    for (i, alpha), count in t.entries.items():
        term = -count if i % 2 else count
        coeffs[alpha] = coeffs.get(alpha, 0) + term
    return KPolynomial(coeffs)


def finite_length_check(k):
    """True iff K(s1, 1) and K(1, s2) are both the zero polynomial."""
    return not k.substitute_one(0) and not k.substitute_one(1)


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
        weight, support = graph.vertices[alpha]
        xv = graph.x_valency(alpha)
        yv = graph.y_valency(alpha)
        if xv != 1:
            failures.append(("x-valency", alpha, xv))
        if yv != 1:
            failures.append(("y-valency", alpha, yv))
        if len(support) != 1:
            failures.append(("mixed-support", alpha, sorted(support)))
    if graph.vertices and not graph.is_connected():
        failures.append(("disconnected", None, graph.component_count()))
    verdict = CERT_EXTREMAL if not failures else CERT_INCONCLUSIVE
    return CertificateVerdict(verdict, failures, graph)


def count_up_to_swap(tables):
    """Number of scalar classes after also identifying x with y."""
    seen = set()
    for t in tables:
        g = gcd(*t.entries.values())
        key = sorted((e, c // g) for e, c in t.entries.items())
        swapped = sorted(((i, (b, a)), c // g)
                         for (i, (a, b)), c in t.entries.items())
        seen.add(tuple(min(key, swapped)))
    return len(seen)


def graph_to_dot(graph):
    """DOT text for a matching graph: x-edges solid, y-edges dashed."""
    lines = ["graph matching {"]
    for alpha in sorted(graph.vertices):
        weight, _ = graph.vertices[alpha]
        name = f"\"{alpha[0]},{alpha[1]}\""
        lines.append(f"  {name} [label=\"({alpha[0]},{alpha[1]}):{weight}\"];")
    for u, w in sorted(graph.x_edges):
        lines.append(f"  \"{u[0]},{u[1]}\" -- \"{w[0]},{w[1]}\""
                     " [style=solid];")
    for u, w in sorted(graph.y_edges):
        lines.append(f"  \"{u[0]},{u[1]}\" -- \"{w[0]},{w[1]}\""
                     " [style=dashed];")
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


def json_int(value, field):
    """A JSON integer as an int, else a ValueError naming the field.

    An integral float (2.0) or a string holding an integer ("2") reads
    as that integer; 1.5 is refused rather than truncated.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def json_rational(value, field):
    """A JSON number or a string such as "3/4" as an exact Fraction,
    else a ValueError naming the field.  A float reads as the decimal
    it is written as, so 0.1 is 1/10."""
    try:
        return Fraction(value if isinstance(value, int) else str(value))
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
