"""The benchmark's three workloads: seeded inputs, one operation per
input, and the correctness checks each output must pass.

A workload is a closed loop over a fixed input set.  Each operation
calls the library's public functions through the module objects in
``lib`` (looked up at call time, so the tracer's wrappers are seen).
``check`` runs outside the timed region and returns a list of
problems, empty when the output is right.  ``canon`` turns an output
into plain data so later passes (and traced passes) can be compared
with the first, fully checked one.

All arithmetic in the checks is exact and written here, independent
of the package, except where a check is defined in terms of a package
method (``Decomposition.resum``).
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb, gcd, lcm, prod


class Failure:
    """An operation that raised an exception nobody expected."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def canon(self):
        return ("error", self.text)


def _rank(rows):
    """Exact rank of a list of rational row lists."""
    m = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pick = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pick is None:
            continue
        m[rank], m[pick] = m[pick], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# --------------------------------------------------------------- rays

RAY_BOXES = ((4, 4), (5, 3), (3, 5))
# Certified rays up to scalar and up to swapping x and y, per box.
RAY_COUNTS = {(4, 4): (441, 247), (5, 3): (327, 299), (3, 5): (327, 299)}


def antichain_count(box):
    """Nonempty staircase antichains in the box: C(B1+B2+2, B1+1) - 1."""
    return comb(box[0] + box[1] + 2, box[0] + 1) - 1


def _ray_key(obj, swap=False):
    out = []
    for e in obj["entries"]:
        a, b = e["deg"]
        out.append((e["i"], (b, a) if swap else (a, b), e["b"]))
    return frozenset(out)


class Rays:
    """One operation is the whole three-box pass, since the three boxes
    cost very different amounts and a percentile across them would
    mean nothing.  The boxes are fixed, so the seed changes nothing."""

    name = "rays"

    def generate(self, seed, lib):
        return [RAY_BOXES]

    def op(self, lib, boxes):
        out = []
        for box in boxes:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lib.cli.run(["bigraded", "rays", "--box",
                                  f"{box[0]},{box[1]}", "--json"])
            out.append((box, rc, buf.getvalue()))
        return out

    def canon(self, out):
        return tuple(out)

    def check(self, lib, boxes, out):
        problems = []
        rays = {}
        for box, rc, text in out:
            if rc != 0:
                problems.append(f"box {box}: exit code {rc}")
                continue
            obj = json.loads(text)
            got = (obj["count"], obj["count_up_to_swap"])
            if got != RAY_COUNTS[box] or len(obj["rays"]) != obj["count"]:
                problems.append(f"box {box}: counts {got}, "
                                f"{len(obj['rays'])} rays listed, "
                                f"expected {RAY_COUNTS[box]}")
            rays[box] = obj["rays"]
        if (5, 3) in rays and (3, 5) in rays:
            left = {_ray_key(r) for r in rays[(5, 3)]}
            right = {_ray_key(r, swap=True) for r in rays[(3, 5)]}
            if left != right:
                problems.append("box 5,3 rays are not the swaps of the "
                                "box 3,5 rays")
        return problems

    def extras(self, inputs, outputs):
        boxes = [box for inp in inputs for box in inp]
        rays = sum(json.loads(text)["count"]
                   for out in outputs if not isinstance(out, Failure)
                   for _, rc, text in out if rc == 0)
        return {"pairs": sum(antichain_count(b) ** 2 for b in boxes),
                "rays": rays}


# ------------------------------------------------------------ resolve

RESOLVE_ROWS = (1, 2, 3, 4)
RESOLVE_EXTRA = (0, 1, 2, 3, 4)
RESOLVE_PER_CELL = 20
RESOLVE_SHAPES = 20121207  # seeds the fixed degree catalogue


def balanced(rng, values, n):
    """n draws from values, each value as often as possible, in random
    order: every batch gets the same mix, only the pairing differs."""
    out = [values[k % len(values)] for k in range(n)]
    rng.shuffle(out)
    return out


def _presentations(lib, shapes, rng, nrows, nextra, count):
    """Random presentations whose cokernels have finite length.

    Every generator row gets its own pure x^p and y^q relation column
    (no other row has an entry there), so x^p and y^q kill that
    generator and the cokernel is finite by construction.  The extra
    relations mix any rows that sit below their degree.  The degrees
    (row degrees, p, q, extra relation degrees) come from `shapes`,
    drawn balanced over the count presentations; the coefficients of
    the extra relations come from `rng`.
    """
    row_a, row_b, ps, qs = (balanced(shapes, vals, nrows * count) for vals in
                            ((0, 1, 2), (0, 1, 2), (1, 2, 3), (1, 2, 3)))
    col_a, col_b = (balanced(shapes, (0, 1, 2, 3, 4), nextra * count)
                    for _ in range(2))
    batch = []
    for k in range(count):
        rows = list(zip(row_a[k * nrows:(k + 1) * nrows],
                        row_b[k * nrows:(k + 1) * nrows]))
        cols = []
        for r, (a, b) in enumerate(rows):
            cols.append(((a + ps[k * nrows + r], b), {r: 1}))
            cols.append(((a, b + qs[k * nrows + r]), {r: 1}))
        for c in zip(col_a[k * nextra:(k + 1) * nextra],
                     col_b[k * nextra:(k + 1) * nextra]):
            cols.append((c, {r: rng.randint(-2, 2)
                             for r, d in enumerate(rows)
                             if d[0] <= c[0] and d[1] <= c[1]}))
        entries = []
        for r, d in enumerate(rows):
            row = []
            for c, coeffs in cols:
                s = coeffs.get(r, 0)
                row.append([(s, (c[0] - d[0], c[1] - d[1]))] if s else [])
            entries.append(row)
        batch.append(lib.module_engine.PresentationMatrix(
            rows, [c for c, _ in cols], entries))
    return batch


def _sorted_items(d):
    return tuple(sorted(d.items()))


class Resolve:
    """Random finite-length presentations, resolved end to end.

    The degrees of the batch are one fixed, balanced catalogue: every
    (rows, extra relations) cell holds the same number of
    presentations.  The seed draws the coefficients of the extra
    relations, which decide the ranks and so the modules, and the
    order.  Scan sizes therefore do not depend on the seed, which keeps
    the cost of a batch steady from seed to seed.
    """

    name = "resolve"

    def generate(self, seed, lib):
        shapes = random.Random(RESOLVE_SHAPES)
        rng = random.Random(seed)
        batch = [pm for nrows in RESOLVE_ROWS for nextra in RESOLVE_EXTRA
                 for pm in _presentations(lib, shapes, rng, nrows, nextra,
                                          RESOLVE_PER_CELL)]
        rng.shuffle(batch)
        return batch

    def op(self, lib, pm):
        me = lib.module_engine
        module = me.coker_presentation(pm)
        table = me.bigraded_betti(module)
        verdict = lib.bigraded.check_extremality_certificate(table)
        dual_table = me.bigraded_betti(me.dual_module(module))
        kernel = me.kernel_generator_degrees(pm)
        return {"dims": dict(module.dims), "table": dict(table.entries),
                "verdict": verdict.verdict,
                "dual": dict(dual_table.entries), "kernel": list(kernel)}

    def canon(self, out):
        return (_sorted_items(out["dims"]), _sorted_items(out["table"]),
                out["verdict"], _sorted_items(out["dual"]),
                tuple(out["kernel"]))

    def check(self, lib, pm, out):
        problems = []
        dims, table, dual = out["dims"], out["table"], out["dual"]
        k = {}
        for (i, alpha), count in table.items():
            k[alpha] = k.get(alpha, 0) + (-count if i % 2 else count)
        for axis in (0, 1):
            folded = {}
            for alpha, c in k.items():
                folded[alpha[1 - axis]] = folded.get(alpha[1 - axis], 0) + c
            if any(folded.values()):
                problems.append("K-polynomial fails the finite length check")
                break
        if dims:
            alo = min(a for a, _ in dims)
            blo = min(b for _, b in dims)
            ahi = max(a for a, _ in dims)
            bhi = max(b for _, b in dims)
            for a in range(alo, ahi + 2):
                for b in range(blo, bhi + 2):
                    want = sum(c for (x, y), c in k.items()
                               if x <= a and y <= b)
                    if dims.get((a, b), 0) != want:
                        problems.append(f"dim M at {(a, b)} is "
                                        f"{dims.get((a, b), 0)}, the "
                                        f"K-polynomial says {want}")
            top = (ahi + 1, bhi + 1)
            mirrored = {(2 - i, (top[0] - a, top[1] - b)): c
                        for (i, (a, b)), c in table.items()}
            if mirrored != dual:
                problems.append("dual Betti table is not the mirror image")
        elif table or dual:
            problems.append("zero module with a nonzero Betti table")
        rank = _rank(pm.scalars)
        if pm.col_degrees and lib.module_engine.generic_rank(pm) != rank:
            problems.append("generic_rank differs from the scalar rank")
        found = sum(n for _, n in out["kernel"])
        if found != len(pm.col_degrees) - rank:
            problems.append(f"{found} kernel generators, expected "
                            f"{len(pm.col_degrees) - rank}")
        return problems

    def extras(self, inputs, outputs):
        return {}


# ------------------------------------------------------------- graded

GRADED_NVARS = (3, 4, 5, 6)
GRADED_PARTS = (1, 2, 3, 4)
GRADED_PER_CELL = 60
# Every PERTURB_EVERY-th table in a cell is pushed off the Herzog-Kuhl
# hyperplane, so the rejected share is the same for every seed.
PERTURB_EVERY = 5


def pure_multiplicities(degrees):
    """Minimal integer solution of the Herzog-Kuhl equations."""
    vals = [Fraction(1, prod(abs(di - dl) for l, dl in enumerate(degrees)
                             if l != i)) for i, di in enumerate(degrees)]
    m = lcm(*(v.denominator for v in vals))
    ints = [int(v * m) for v in vals]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


class GradedInput:
    __slots__ = ("table", "chain", "perturbed", "limit")

    def __init__(self, table, chain, perturbed, limit):
        self.table = table
        self.chain = chain
        self.perturbed = perturbed
        self.limit = limit


def _graded_input(lib, rng, nvars, nparts, perturbed):
    """A positive combination of pure tables along a chain of degree
    sequences, so the greedy decomposition must give back exactly the
    parts it was built from."""
    degrees = [rng.randint(0, 2)]
    for _ in range(nvars):
        degrees.append(degrees[-1] + rng.randint(1, 3))
    chain = []
    for _ in range(nparts):
        mult = pure_multiplicities(degrees)
        chain.append((Fraction(rng.randint(1, 6), rng.randint(1, 4)),
                      tuple(degrees), mult))
        cuts = sorted(rng.randint(0, nvars) for _ in range(rng.randint(1, 3)))
        degrees = [d + sum(1 for c in cuts if c <= i)
                   for i, d in enumerate(degrees)]
    entries = {}
    for c, degs, mult in chain:
        for i, (d, b) in enumerate(zip(degs, mult)):
            entries[(i, d)] = entries.get((i, d), 0) + c * b
    if perturbed:
        key = rng.choice(sorted(entries))
        entries[key] += 1
    table = lib.tables.GradedBettiTable(nvars, entries)
    limit = (rng.randrange(nvars), 2 * rng.randint(1, 32), nvars)
    return GradedInput(table, chain, perturbed, limit)


class Graded:
    """Graded tables over 3 to 6 variables, decomposed and tested.

    Stratified like resolve: each (variables, parts) cell gets the same
    number of tables and the same perturbed share.
    """

    name = "graded"

    def generate(self, seed, lib):
        rng = random.Random(seed)
        batch = [_graded_input(lib, rng, nvars, nparts,
                               k % PERTURB_EVERY == PERTURB_EVERY - 1)
                 for nvars in GRADED_NVARS for nparts in GRADED_PARTS
                 for k in range(GRADED_PER_CELL)]
        rng.shuffle(batch)
        return batch

    def op(self, lib, inp):
        t = inp.table
        rejected = None
        try:
            dec = lib.bs_cone.decompose_graded(t)
        except lib.errors.NotInConeCandidate as exc:
            dec = exc.decomposition
            rejected = type(exc).__name__
        hk = lib.tables.check_hk_equations(t)
        numerator = lib.tables.hilbert_numerator(t)
        finite = lib.tables.is_finite_length_numerator(numerator, t.nvars)
        local = lib.local_cone.is_in_local_cone(
            lib.local_cone.local_from_graded(t))
        es = lib.es_construct
        ranks = [es.es_ranks(es.es_plan(p.degrees)).multiplicities
                 for _, p in dec.parts]
        limit = lib.local_cone.limit_table(*inp.limit)
        return {"dec": dec, "rejected": rejected, "hk": hk,
                "finite": finite, "local": local.verdict, "ranks": ranks,
                "limit": tuple(limit.entries)}

    def canon(self, out):
        dec = out["dec"]
        parts = tuple((c, tuple(p.degrees), p.multiplicities)
                      for c, p in dec.parts)
        return (parts, _sorted_items(dec.residual.entries), out["rejected"],
                out["hk"], out["finite"], out["local"],
                tuple(map(tuple, out["ranks"])), out["limit"])

    def check(self, lib, inp, out):
        problems = []
        dec = out["dec"]
        if dec.resum() != inp.table:
            problems.append("parts plus residual do not resum to the input")
        expected = "NotInConeCandidate" if inp.perturbed else None
        if out["rejected"] != expected:
            problems.append(f"verdict {out['rejected']}, expected {expected}")
        parts = [(c, tuple(p.degrees), p.multiplicities)
                 for c, p in dec.parts]
        if not inp.perturbed and parts != inp.chain:
            problems.append("decomposition differs from the generated chain")
        if out["hk"] != out["finite"] or out["hk"] == inp.perturbed:
            problems.append(f"HK check {out['hk']} and numerator "
                            f"divisibility {out['finite']} disagree")
        want_local = "Outside" if inp.perturbed else "Inside"
        if out["local"] != want_local:
            problems.append(f"local verdict {out['local']}, "
                            f"expected {want_local}")
        for (_, p), ranks in zip(dec.parts, out["ranks"]):
            ratio = Fraction(ranks[0], p.multiplicities[0])
            if ratio.denominator != 1 or any(
                    r != ratio * b for r, b in zip(ranks, p.multiplicities)):
                problems.append(f"construction ranks {ranks} are not an "
                                f"integer multiple of {p.multiplicities}")
        i, j, n = inp.limit
        degrees = [k * j if k <= i else (k - 1) * j + 1 for k in range(n + 1)]
        mult = pure_multiplicities(degrees)
        if out["limit"] != tuple(Fraction(b, mult[i]) for b in mult):
            problems.append(f"limit table {inp.limit} is not the pure "
                            f"table of {degrees} scaled to 1 at {i}")
        return problems

    def extras(self, inputs, outputs):
        return {"parts": sum(len(out["dec"].parts) for out in outputs
                             if not isinstance(out, Failure))}


WORKLOADS = {w.name: w for w in (Rays(), Resolve(), Graded())}
