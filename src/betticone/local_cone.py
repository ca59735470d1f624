"""The ungraded cone of Betti vectors over a regular local ring.

For finite length modules over an n-dimensional regular local ring the
cone of Betti vectors (beta_0, ..., beta_n) is the open positive span
of the rays rho_i = e_i + e_{i+1}, i = 0..n-1.  Membership is a pair of
exact conditions: the alternating sum vanishes (rank reasons), and all
back partial sums

    s_i = beta_i - beta_{i+1} + ... +- beta_n,   i = 1..n,

are strictly positive (partial Euler characteristics).  The s_i double
as the ray coefficients: v = sum c_i rho_i with c_i = s_{i+1}.  The
cone is open, so rays are approached but never reached; limit_table
builds the pure-table witnesses that converge to each ray.

A vector holds its entries as int numerators over one positive scale,
as a graded table does, and the public constructor clears them through
tables.clear_denominators, the one clearing route; no other call here
clears anything.  Column sums run on a graded table's numerators and
keep its scale, and a limit vector keeps its multiplicities over
mult[i].  is_in_local_cone is the one route to the back partial sums:
it sums the vector's numerators in ints and reads its signs off them;
the verdict keeps those ints and the scale and builds the exact
Fractions only when a caller reads them, as local_ray_coefficients
does for the coefficients.  The vectors the module builds itself skip
the constructor's checks; a table over no variables is still refused,
since nvars = 0 is a legal table.
"""

from fractions import Fraction

from .bigraded import Value, integral
from .errors import DegenerateSequence, NotOnHyperplane
from .tables import DegreeSequence, clear_denominators, hk_pure_table

INSIDE = "Inside"
BOUNDARY = "Boundary"
OUTSIDE = "Outside"

_TOO_SHORT = "need at least beta_0 and beta_1 (dim >= 1)"


class LocalBettiVector(Value):
    """Nonnegative rational vector (beta_0, ..., beta_n), n = dim R.

    As in a GradedBettiTable, the vector also holds its entries cleared
    over one positive common denominator: .numerators is a tuple of
    nonnegative ints and .scale a positive int, with entries[k] ==
    Fraction(numerators[k], scale).  The public constructor takes the
    lcm of the denominators; a vector the library builds may carry a
    multiple of it, such as the scale of the table it sums.
    """

    __slots__ = ("entries", "numerators", "scale")

    def __init__(self, entries):
        vals = tuple(v if type(v) is Fraction else Fraction(v)
                     for v in entries)
        if len(vals) < 2:
            raise ValueError(_TOO_SHORT)
        if any(v < 0 for v in vals):
            raise ValueError("Betti numbers are nonnegative")
        self.entries = vals
        numerators, self.scale = clear_denominators(dict(enumerate(vals)))
        self.numerators = tuple(numerators.values())

    @classmethod
    def _trusted(cls, numerators, scale):
        """A vector over a tuple of at least two nonnegative ints and a
        positive int scale; the entries are built from them.  It skips
        every check, so only library code whose values have that form
        by construction calls it, and says why at the call."""
        vec = cls.__new__(cls)
        vec.numerators = numerators
        vec.scale = scale
        vec.entries = tuple([Fraction(c, scale) for c in numerators])
        return vec

    @property
    def n(self):
        return len(self.entries) - 1

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def _key(self):
        return self.entries

    def __repr__(self):
        return f"LocalBettiVector({[str(v) for v in self.entries]})"

    def add(self, other):
        if len(self) != len(other):
            raise ValueError("cannot add Betti vectors of different lengths")
        return LocalBettiVector(tuple(a + b for a, b
                                      in zip(self.entries, other.entries)))

    def scaled(self, c):
        c = Fraction(c)
        return LocalBettiVector(tuple(c * v for v in self.entries))


def ray_vector(index, n):
    """rho_index = e_index + e_{index+1} in dimension n."""
    index = integral(index, "ray index")
    n = integral(n, "dimension")
    if not 0 <= index <= n - 1:
        raise ValueError(f"ray index {index} outside 0..{n - 1}")
    v = [0] * (n + 1)
    v[index] = v[index + 1] = 1
    # n >= index + 1 >= 1, so the n + 1 >= 2 entries are 0s and 1s.
    return LocalBettiVector._trusted(tuple(v), 1)


class LocalVerdict:
    """Membership verdict plus every sum the test computed.

    The sums are kept as the ints m * s_0, ..., m * s_n over the
    vector's scale m; alternating_sum (s_0) and partial_sums
    (s_1..s_n) build their Fractions on each read.
    """

    __slots__ = ("verdict", "sums", "scale")

    def __init__(self, verdict, sums, scale):
        self.verdict = verdict
        self.sums = sums
        self.scale = scale

    @property
    def alternating_sum(self):
        return Fraction(self.sums[0], self.scale)

    @property
    def partial_sums(self):
        m = self.scale
        return tuple([Fraction(s, m) for s in self.sums[1:]])

    def is_inside(self):
        return self.verdict == INSIDE

    def __repr__(self):
        return (f"LocalVerdict({self.verdict}, total={self.alternating_sum},"
                f" partials={[str(s) for s in self.partial_sums]})")


def is_in_local_cone(v):
    """Classify v, read as a LocalBettiVector, against the open cone.

    Inside: alternating sum zero and every back partial sum s_1..s_n
    strictly positive.  Boundary: on the hyperplane, all partial sums
    nonnegative, at least one zero.  Outside: off the hyperplane or
    some partial sum negative.  The verdict carries s_0, the
    alternating sum, and s_1..s_n.
    """
    if not isinstance(v, LocalBettiVector):
        v = LocalBettiVector(v)
    numerators = v.numerators
    # sums[i] = m * s_i, a plain int over the vector's scale m, summed
    # from s_n down to s_0; m is positive, so each has the sign of s_i.
    sums = [0] * len(numerators)
    acc = 0
    for k in reversed(range(len(sums))):
        acc = sums[k] = numerators[k] - acc
    if sums[0]:
        verdict = OUTSIDE
    else:
        partials = sums[1:]
        if all(s > 0 for s in partials):
            verdict = INSIDE
        elif all(s >= 0 for s in partials):
            verdict = BOUNDARY
        else:
            verdict = OUTSIDE
    return LocalVerdict(verdict, tuple(sums), v.scale)


def local_ray_coefficients(v):
    """The unique c_0..c_{n-1} with v = sum c_i rho_i.

    Only defined on the hyperplane where the alternating sum vanishes;
    there c_i = s_{i+1}, and all c_i > 0 exactly on cone members.
    """
    verdict = is_in_local_cone(v)
    if verdict.alternating_sum:
        raise NotOnHyperplane(
            f"alternating sum is {verdict.alternating_sum}, not 0; the "
            "rays span only that hyperplane")
    return list(verdict.partial_sums)


def local_from_graded(t):
    """Column sums of a graded table: beta_i = sum_j beta_{i,j}, summed
    on the table's numerators over its scale."""
    if t.nvars < 1:
        # nvars = 0 is a legal table, so this is the one check of the
        # vector that the table does not give.
        raise ValueError(_TOO_SHORT)
    m = t.scale
    sums = [0] * (t.nvars + 1)
    for (i, _), c in t.numerators.items():
        sums[i] += c
    # Entries are positive and 0 <= i <= nvars, so the nvars + 1 >= 2
    # sums are nonnegative ints over the table's positive scale.
    return LocalBettiVector._trusted(tuple(sums), m)


def limit_degrees(i, j, n):
    """The sequence d_k = k*j (k <= i), (k-1)*j + 1 (k > i); with j >= 2
    it rises by j in each part and by 1 from i*j, so it is increasing."""
    i = integral(i, "ray index")
    j = integral(j, "gap parameter")
    n = integral(n, "dimension")
    if not 0 <= i <= n - 1:
        raise ValueError(f"ray index {i} outside 0..{n - 1}")
    if j < 2:
        raise DegenerateSequence("limit sequences need j >= 2")
    # Ints rising by j >= 2 or by 1, as the docstring says.
    return DegreeSequence._trusted(
        tuple([k * j if k <= i else (k - 1) * j + 1 for k in range(n + 1)]))


def limit_table(i, j, n):
    """Normalized pure Betti vector converging to rho_i as j grows.

    The table of the limit sequence is rescaled so entry i equals 1;
    the sup-norm distance to rho_i strictly decreases in j and is
    O(1/j).  The bound (n+1)/j holds for n <= 4 (checked for j up to
    256) and fails from n = 5: at n = 5, i = 0, j = 2 it is 105/32.
    """
    mult = hk_pure_table(limit_degrees(i, j, n)).multiplicities
    # n + 1 >= 2 positive int multiplicities (limit_degrees needs
    # i <= n - 1), over the positive int mult[i].
    return LocalBettiVector._trusted(mult, mult[integral(i, "ray index")])


def sup_distance(u, v):
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return max(abs(a - b) for a, b in zip(u, v))
