"""epislope: finite, reproducible verdicts for variational-analysis
constructions on meshes and exact rational point sets.

The toolkit evaluates gap distances between epigraph/graph/hypograph
samples, set and function convergence (Wijsman, Kuratowski, hit-and-miss,
slice), uniform infima and their penalty-limit characterization,
Lipschitz (Pasch-Hausdorff) envelopes, strong slopes and discrete Ekeland
points, Fréchet-subdifferential membership, and decoupling/sum-rule
witnesses on product spaces.  Every limit statement is decided on a
declared finite schedule and reported as a three-valued verdict.
"""

__version__ = "0.1.0"

from .extreal import INF, ExtReal
from .verdict import InvariantError, LimitConfig, Status, Verdict
from .geometry import (BoxNorm, EUCLIDEAN, MAX, Norm, NormKind, PointSet,
                       TAXICAB, ball_gap, diameter, gap_distance,
                       point_set_distance, uniform_neighborhood_contains)
from .regions import Ball, FinitePoints, Predicate, Region, WholeSpace
from .functions import (FunctionModel, MeshSpec, Variant, epi_hypo_gap_triple,
                        inf_convolution, inf_over_region, pasch_hausdorff,
                        restrict, sample_epigraph, sample_graph,
                        sample_hypograph, tabulate, tilt, values_on)
from .uniforminf import (PenaltySpec, RobustnessReport, nogoodlsc,
                         penalty_limit, penalty_value, plain_infimum,
                         robustness, uniform_infimum)
from .convergence import (FunctionSequence, SetSequence, carac_W_bridge,
                          graph_epi_gap, hit_and_miss, in_lower_limit,
                          in_upper_limit, kuratowski_sets, recovery_sequence,
                          slice_at_point, tilt_gap_invariance,
                          wijsman_at_point, wijsman_sets)
from .slopes import (SlopeEstimate, StabilityWitness, SubdifferentialOracle,
                     ekeland_point, frechet_membership, p2_witness,
                     sequence_p2_stability, slope_stability_witness,
                     stationary_sequence, strong_slope)
from .sumrules import (DecoupledSum, DiagonalGeometry, decoupling_inequality,
                       diagonal_distance, prop71_bridge, r2_witness)
