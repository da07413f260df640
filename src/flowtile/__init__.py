"""flowtile: two-valued gap tilings of orbit windows, in exact arithmetic.

Cross sections of one-parameter flows are modeled by finite windows of
exact positions over Q(sqrt(D)).  The library rebuilds such windows so
that every interior gap equals one of two prescribed lengths, with the
proportion of short gaps converging uniformly to a target ratio, and
matches two such sections by a piecewise-translation orbit map.
"""

from .quadratic import (ConfigError, QuadReal, format_quadreal, gcd_ladder,
                        parse_quadreal, quad, real_gcd, sqrtD)
from .tiles import (DensityWitness, FreqBand, Params, TileVector,
                    alpha_frequency, balanced_word, default_params,
                    density_witness, enumerate_tileable, eps_dense,
                    frequency_stability_ratio)
from .reachable import (BoostError, ReachableElement, ReachableSet,
                        ShiftProblem, boost_length_bound,
                        brute_force_reachable, enumerate_reachable,
                        frequency_boost, lattice_threshold,
                        rearrange_permutation)
from .windows import (ChainClasses, OrbitWindow, SparsityError,
                      chain_classes, insert_blocks, is_sparse_window,
                      marker_subsection, two_class_block)
from .pipeline import (FINITE_CLASSES, FULLY_REGULAR, HALF_TILED,
                       PartitionWitness, Schedule, TiledSection, TilingError,
                       WitnessError, attach_witnesses, build_rank_blocks,
                       build_schedule, check_section, classify_section,
                       full_pipeline, sparse_tile, verify_uniform_frequency)
from .generators import GeneratorSpec, generate
from .loe import (MatchState, Piece, PiecewiseTranslationMap, build_loe,
                  cover_failures, match_equidense, verify_loe)

__version__ = "0.1.0"
