"""Iso-Riemannian geometry and first-order optimization on pullback manifolds."""

from .clustering import (ClusteringResult, adjusted_rand_index,
                         euclidean_kmeans, iso_kmeans, riemannian_kmeans)
from .datasets import Dataset, DatasetSpec, generate_dataset
from .descent import (ConvergenceTrace, LineSearchConfig,
                      barycentre_ratio_field, ird_descent, ird_step,
                      iso_barycentre, iso_barycentre_field,
                      iso_lipschitz_ratio, iso_monotonicity_ratio,
                      restricted_isometry_check)
from .diffeos import (Diffeomorphism, banana, identity, make_diffeomorphism,
                      registered_names, river, sinh_shift_1d, spiral)
from .errors import (DegenerateBasisError, DegenerateCurveError,
                     DimensionError, DomainError, NonConvergenceError,
                     StallError)
from .isomaps import (iso_distance, iso_exp, iso_geodesic, iso_log,
                      iso_transport, speed_profile, timechange, vectorchange)
from .pullback import (PullbackManifold, TangentVector, as_point,
                       closed_form_barycentre, lc_distance, lc_exp,
                       lc_geodesic, lc_geodesic_velocity, lc_log,
                       lc_transport)
from .quadrature import QuadratureConfig
from .submanifold import (GeodesicSubmanifold, convexity_bounds_1d,
                          iso_rank_r_approx, l2pg_ird,
                          submanifold_from_rank_r, tangent_projection)

__all__ = [name for name in dir() if not name.startswith("_")]
