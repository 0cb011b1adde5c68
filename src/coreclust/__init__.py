"""Core-fair centroid clustering toolkit.

Clustering algorithms with blocking-coalition fairness guarantees on lines,
trees, and general metric spaces, plus an exact fairness auditor, hard
lower-bound instance generators, classic baselines, and a benchmark harness.
"""

from .algorithms import (GreedyTrace, RefinedPlan, alg_greedy_ball, alg_line,
                         alg_mst_cover, alg_refined, alg_tree, assign_agents,
                         ceil_div, greedy_fill, optimal_total_distance,
                         proportional_budgets)
from .audit import (AuditResult, BlockingWitness, audit, coalition_size,
                    deviation_candidates, is_in_core, max_blocking_size,
                    min_beta, oracle_audit)
from .baselines import (KMEANS, KMEDIANS, MEDOID, kmeans_pp, lloyd_kmedians,
                        medoid_opt, social_cost)
from .errors import (CoreclustError, ParameterError, SizeLimitError,
                     ValidationError)
from .instance import (CONTINUOUS_LINE, Clustering, Instance, gen_broom_tree,
                       gen_clique, gen_gaussian, gen_k4, gen_kmedians_bad,
                       gen_line_alpha_lb, gen_line_beta_lb, instance_from_json,
                       instance_to_json, load_clustering, load_instance,
                       load_matrix_csv, load_points_csv, load_tree_edges,
                       save_clustering, save_instance)
from .metric import (Space, TreeGraph, apsp, close, cross_distances, distance,
                     distance_to_set, validate_metric)

__version__ = "0.1.0"
