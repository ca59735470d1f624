"""betticone: exact arithmetic for extremal Betti tables.

Three gradings, one package.  For the standard grading there are pure
table solvers and rank bookkeeping for the geometric construction of
pure resolutions, plus a greedy cone decomposition.  For the coarse
local picture there is the open cone membership test with its limit
sequences.  For the bigrading over k[x, y] there is a brute force
Betti table oracle for finite length modules and the matching graph
certificate for extremal rays.  All arithmetic is exact (integers and
Fractions); nothing here ever rounds.
"""

__version__ = "0.1.0"

from .bigraded import (BigradedBettiTable, CERT_EXTREMAL,
                       CERT_INCONCLUSIVE, KPolynomial, MatchingGraph,
                       bigraded_from_json_obj, bigraded_to_json_obj,
                       check_extremality_certificate, count_up_to_swap,
                       finite_length_check, graph_to_dot, k_polynomial,
                       matching_graph)
from .bs_cone import Decomposition, decompose_graded, is_pure
from .errors import (BetticoneError, BoundTooLarge, CollapsedSurvivor,
                     DegenerateSequence, InternalInconsistency,
                     NoCollapsibleWindow, NonIncreasingDegrees,
                     NotContained, NotFiniteLength, NotInConeCandidate,
                     NotOnHyperplane)
from .es_construct import (ESPlan, collapse_step, es_plan, es_ranks,
                           line_bundle_cohomology, render_plan_text,
                           twist_table)
from .local_cone import (BOUNDARY, INSIDE, OUTSIDE, LocalBettiVector,
                         is_in_local_cone, limit_degrees, limit_table,
                         local_from_graded, local_ray_coefficients,
                         ray_vector, sup_distance)
from .module_engine import (FiniteModule, MonomialPair,
                            PresentationMatrix, bigraded_betti,
                            coker_presentation, dual_module,
                            generic_rank, kernel_generator_degrees,
                            module_from_json_obj, monomial_quotient)
from .rays import (box_ray_codes, box_rays, enumerate_box_rays,
                   seed_catalogue)
from .tables import (DegreeSequence, GradedBettiTable, HilbertNumerator,
                     PureTable, check_hk_equations, coarsen,
                     graded_from_json_obj, graded_to_json_obj,
                     hilbert_numerator, hk_pure_table,
                     is_finite_length_numerator,
                     normalize_positive_integers, proportionality_ratio,
                     pure_from_json_obj, pure_to_json_obj)
