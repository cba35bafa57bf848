"""fislab: exact feature-importance scores for discrete classifiers.

Build a classifier (table, decision tree, boolean expression or weighted
voting game), fix an instance, and compute power-index style importance
scores from explanation-derived characteristic functions, all in exact
rational arithmetic.  The props module audits the scores against the
standard property catalog.
"""

from .charfun import (CF_A, CF_A_DUAL, CF_E, CF_G, CF_M, CF_SUM, CF_W,
                      CF_W_DUAL, CF_WVG, CharacteristicTable, cf_axp, cf_cxp,
                      cf_expected, cf_generator, cf_similarity, cf_sum,
                      cf_waxp, cf_wcxp, cf_wvg, delta_i, delta_total,
                      dual_table)
from .explain import (ExplanationFamily, ExplanationKind, enumerate_axps,
                      enumerate_cxps, enumerate_waxps, enumerate_wcxps,
                      is_critical, is_critical_dual, is_waxp, is_wcxp,
                      minimal_hitting_sets, relevant_features)
from .model import (Classifier, DomainError, ExplanationProblem,
                    FeatureDomain, Instance, ParseError, RelabelError,
                    ScaleLimitError, WeightedVotingGame, agreement_set,
                    as_mask, evaluate, features_of, load_problem, make_problem,
                    mask_of, parse_boolean_expression, parse_model,
                    problem_to_document, relabel_classes, select_points)
from .props import (DualityLevel, DualityVerdict, PropertyVerdict, Witness,
                    audit, check_additivity, check_class_relabeling, check_duality,
                    check_dummy, check_efficiency,
                    check_minimal_monotonicity, check_relevancy_consistency,
                    check_symmetry, gamma_value, property_matrix,
                    random_problem, reverify, search_counterexample)
from .scores import (FIS_IDS, FIS_NAMES, ScoreVector, TemplateId,
                     coefficient_sigma, compute_fis, coverage_score,
                     coverage_set, family_score, shapley_permutation_oracle,
                     template_score, wvg_power_index)

__version__ = "0.1.0"
