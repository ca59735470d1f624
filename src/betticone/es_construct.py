"""Rank bookkeeping for pure resolutions built by pushing forward a
twisted Koszul complex along a product of projective spaces.

A strictly increasing degree sequence, translated so that d_0 = 0,
fixes everything here.  The gaps m_i = d_i - d_{i-1} - 1 determine a
product P^{m_1} x ... x P^{m_n} (factors with m_i = 0 are points and
are dropped).  The Koszul complex on d_n variables, with factor i
twisted by +d_{i-1}, collapses to a pure complex: row t of the twist
table survives exactly when no factor twist d_{i-1} - t lies in that
factor's vanishing window -m_i <= e <= -1, which happens for t in
{d_0, ..., d_n}.  The surviving rank is a binomial times a product of
line bundle cohomology dimensions; no differentials are computed here,
only twists, survivors, and ranks.  es_ranks multiplies the closed
form of line_bundle_cohomology inline, in one loop over degrees and
factors and without its argument checks, since a plan's factors are
ints with m > 0 by construction.
"""

from math import comb

from .bigraded import integral
from .errors import (CollapsedSurvivor, InternalInconsistency,
                     NoCollapsibleWindow)
from .tables import DegreeSequence, PureTable, as_degree_sequence


def in_vanishing_window(m, e):
    """Whether O(e) on projective m-space has no cohomology at all,
    which is -m <= e <= -1 (empty on a point)."""
    return -m <= e <= -1


def line_bundle_cohomology(m, e):
    """Dimensions (h0, h_top) of O(e) on projective m-space.

    h0 = C(e+m, m) for e >= 0, the top cohomology is C(-e-1, m) for
    e <= -m-1, and everything vanishes in the window -m <= e <= -1.  On
    a point (m = 0) the answer is reported as (1, 0) so that callers
    never count the same line twice.
    """
    m = integral(m, "projective space dimension")
    e = integral(e, "twist")
    if m < 0:
        raise ValueError("projective space dimension must be >= 0")
    if m == 0:
        return (1, 0)
    if in_vanishing_window(m, e):
        return (0, 0)
    if e >= 0:
        return (comb(e + m, m), 0)
    return (0, comb(-e - 1, m))


class ESPlan:
    """Degree plan of a strictly increasing sequence, translated so that
    d_0 = 0 (a global twist of the resolution that changes no rank).

    The gaps, the projective factors (m_i, d_{i-1}) of the positive
    gaps, and the ambient variable count d_n are all derived from the
    degrees, so the gaps always telescope to d_n - n."""

    __slots__ = ("degrees", "gaps", "factors", "ambient_vars")

    def __init__(self, degrees):
        d = as_degree_sequence(degrees)
        if d[0] != 0:
            # A translate of a checked sequence still strictly increases.
            d = DegreeSequence._trusted(tuple([x - d[0] for x in d]))
        degs = d.degrees
        self.degrees = d
        self.gaps = tuple(b - a - 1 for a, b in zip(degs, degs[1:]))
        self.factors = tuple((m, degs[i]) for i, m in enumerate(self.gaps)
                             if m > 0)
        self.ambient_vars = degs[-1]

    def __repr__(self):
        return f"ESPlan({list(self.degrees)!r})"


class TwistRow:
    """One Koszul index t (ambient degree -t): per-factor twists, and
    whether the row survives the pushforward."""

    __slots__ = ("t", "twists", "survivor")

    def __init__(self, t, twists, survivor):
        self.t = t
        self.twists = tuple(twists)
        self.survivor = survivor

    def __repr__(self):
        star = "" if self.survivor else "*"
        return f"TwistRow(t={self.t}{star}, twists={self.twists})"


def es_plan(d):
    """The degree plan of a strictly increasing sequence."""
    return ESPlan(d)


def twist_table(p):
    """The Koszul rows t = 0..d_n of plan p, as a tuple of TwistRows.

    Survivors are the rows with t in the degree sequence.  Every other
    row must be certified by a factor whose twist falls in its
    vanishing window; a collapsed row without such a factor indicates
    a malformed plan and raises.
    """
    deg_set = set(p.degrees)
    rows = []
    for t in range(p.ambient_vars + 1):
        twists = tuple(base - t for _, base in p.factors)
        survivor = t in deg_set
        if not survivor and not any(
                in_vanishing_window(m, e)
                for (m, _), e in zip(p.factors, twists)):
            raise InternalInconsistency(
                f"row t={t} is not a survivor yet no factor twist "
                f"vanishes: twists={twists}")
        rows.append(TwistRow(t, twists, survivor))
    return tuple(rows)


def es_ranks(p):
    """Raw construction ranks of the pure resolution for plan p.

    beta_k = C(d_n, d_k) * prod_i h(P^{m_i}, O(d_{i-1} - d_k)) where h
    is the section count C(e+m, m) for twist e >= 0 and the top
    cohomology C(-e-1, m) for e <= -m_i - 1, the closed form of
    line_bundle_cohomology.  Ranks are returned unnormalized so they can
    be compared directly against a construction's printed values;
    divide by the gcd to reach the minimal Herzog-Kuhl representative.
    """
    factors = p.factors
    mults = []
    for k, dk in enumerate(p.degrees.degrees):
        rank = comb(p.ambient_vars, dk)
        # The plan's factors have ints m > 0 and base, so the closed
        # form needs no argument checks and no point case.
        for m, base in factors:
            e = base - dk
            if e >= 0:
                rank *= comb(e + m, m)
            elif e < -m:
                rank *= comb(-e - 1, m)
            else:
                raise CollapsedSurvivor(
                    f"survivor row d_{k}={dk} hits the vanishing window "
                    f"of a P^{m} factor (twist {e})")
        mults.append(rank)
    # Each rank is C(d_n, d_k) > 0 (0 <= d_k <= d_n) times positive
    # cohomology counts; a zero count raised CollapsedSurvivor above.
    return PureTable._trusted(p.degrees, tuple(mults))


def collapse_step(twists, m, k):
    """Survivor map for one pushforward along a P^m factor.

    The strictly increasing twist list (e_0, ..., e_N) must contain the
    run (1, ..., m) at positions k+1..k+m.  Indices i <= k survive with
    their sections (label 'H0') and keep their position; indices
    i >= k+m+1 survive with top cohomology (label 'H{m}') and slide
    down to position i - m.  Returns a list of (old index, new index,
    label) triples.
    """
    e = tuple(twists)
    if any(a >= b for a, b in zip(e, e[1:])):
        raise ValueError("twists must be strictly increasing")
    m = integral(m, "m")
    k = integral(k, "k")
    n_last = len(e) - 1
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not -1 <= k <= n_last - m:
        raise ValueError(f"k={k} out of range for m={m}, N={n_last}")
    window = e[k + 1:k + 1 + m]
    if window != tuple(range(1, m + 1)):
        raise NoCollapsibleWindow(
            f"positions {k+1}..{k+m} hold {window}, expected "
            f"{tuple(range(1, m + 1))}")
    survivors = []
    for i in range(0, k + 1):
        survivors.append((i, i, "H0"))
    for i in range(k + m + 1, n_last + 1):
        survivors.append((i, i - m, f"H{m}"))
    return survivors


def render_plan_text(p):
    """Aligned text table: one row per Koszul index, ambient degree,
    one column per projective factor (vanishing twists starred), and
    the homological position of each survivor."""
    headers = ["t", "ambient"]
    headers += [f"P^{m}(+{base})" for m, base in p.factors]
    headers += [""]
    body = []
    position = {dk: idx for idx, dk in enumerate(p.degrees)}
    for row in twist_table(p):
        cells = [str(row.t), str(-row.t)]
        for (m, _), e in zip(p.factors, row.twists):
            star = "*" if in_vanishing_window(m, e) else ""
            cells.append(f"{e}{star}")
        cells.append(f"F_{position[row.t]}" if row.survivor else "")
        body.append(cells)
    widths = [max(len(r[c]) for r in [headers] + body)
              for c in range(len(headers))]
    lines = []
    for cells in [headers] + body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths))
                     .rstrip())
    return "\n".join(lines)
