"""Built-in reference problems and the frozen expected values they must hit.

The two classifiers below are small enough to audit by hand and exercise
every score; the two injected families reproduce the known cases where
family-counting scores order features badly.  ``run_checks`` recomputes
every frozen value and is the backing of the repro command.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import charfun, explain, props, scores
from .model import (ExplanationProblem, features_of, make_problem,
                    parse_boolean_expression)
from .scores import TemplateId


def and_or_chain_problem() -> ExplanationProblem:
    """Four boolean features, prediction 1 at the all-ones point."""
    classifier = parse_boolean_expression("x1 & (x2 | x3 & x4)")
    return make_problem(classifier, (1, 1, 1, 1))


def single_decider_problem() -> ExplanationProblem:
    """Two boolean features of which only the first matters."""
    classifier = parse_boolean_expression("x1", n_features=2)
    return make_problem(classifier, (1, 0))


# family with one tiny member and two large overlapping ones: membership
# counting ranks the decisive singleton feature below the crowd
SKEWED_SIZES_FAMILY = ((1,), (2, 3, 4, 5, 6), (2, 3, 4, 5, 7))
SKEWED_SIZES_N = 7

# one small member against many size-3 members sharing feature 2: best-case
# size ranks the ubiquitous feature below the pair
MANY_SMALL_FAMILY = ((1, 8), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 3, 7),
                     (2, 4, 5), (2, 4, 6), (2, 4, 7), (2, 5, 6), (2, 5, 7))
MANY_SMALL_N = 8


@dataclass(frozen=True)
class CheckResult:
    section: str
    name: str
    expected: str
    got: str

    @property
    def ok(self) -> bool:
        return self.expected == self.got


def _fmt_family(family) -> str:
    return str(family.member_lists())


def _fmt_vec(vec) -> str:
    return ",".join(vec.as_strings())


def _fis(problem, fis_id, dual=False) -> str:
    return _fmt_vec(scores.compute_fis(fis_id, problem, dual=dual))


def run_checks() -> list[CheckResult]:
    """Recompute every frozen reference value; exact string equality."""
    chain = and_or_chain_problem()
    single = single_decider_problem()
    out: list[CheckResult] = []

    def check(section, name, got, expected):
        out.append(CheckResult(section, name, expected, str(got)))

    # classifier behaviour
    check("model", "chain_eval_1011", chain.classifier.evaluate((1, 0, 1, 1)), "1")
    check("model", "chain_eval_0111", chain.classifier.evaluate((0, 1, 1, 1)), "0")
    check("model", "single_eval_10", single.classifier.evaluate((1, 0)), "1")

    # explanation families and duality
    axps = explain.enumerate_axps(chain)
    cxps = explain.enumerate_cxps(chain)
    check("explain", "chain_axps", _fmt_family(axps), "[[1, 2], [1, 3, 4]]")
    check("explain", "chain_cxps", _fmt_family(cxps), "[[1], [2, 3], [2, 4]]")
    mhs = explain.minimal_hitting_sets(cxps.members, chain.full_mask)
    check("explain", "chain_axps_are_hitting_sets_of_cxps",
          mhs == axps.members, "True")
    check("explain", "chain_critical_1_in_full",
          explain.is_critical(chain, 1, chain.full_mask), "True")
    check("explain", "single_axps", _fmt_family(explain.enumerate_axps(single)),
          "[[1]]")
    check("explain", "single_relevant",
          list(features_of(explain.relevant_features(single))), "[1]")

    # characteristic tables
    nu_w = charfun.build_table(charfun.CF_W, chain)
    nu_wd = charfun.build_table(charfun.CF_W_DUAL, chain)
    check("charfun", "chain_sufficient_count",
          sum(1 for n in nu_w.nums if n), "5")
    check("charfun", "chain_contrastive_of_{1}", nu_wd.value([1]), "1")
    check("charfun", "chain_minimal_indicator_of_{1,2}",
          charfun.build_table(charfun.CF_A, chain).value([1, 2]), "1")
    check("charfun", "chain_influence_total_{1,2,3}",
          charfun.delta_total(nu_w, [1, 2, 3]), "2")
    check("charfun", "chain_influence_total_full",
          charfun.delta_total(nu_w, [1, 2, 3, 4]), "1")
    nu_g = charfun.build_table(charfun.CF_G, single)
    check("charfun", "single_generator_values",
          ",".join(str(nu_g[mask]) for mask in range(4)), "0,1,1,1")

    # template scores on the generator table (the symmetry counterexample)
    for template, expected in ((TemplateId.DEEGAN_PACKEL, "1"),
                               (TemplateId.HOLLER_PACKEL, "1"),
                               (TemplateId.RESPONSIBILITY, "1"),
                               (TemplateId.ANDJIGA, "1/2")):
        vec = scores.template_score(template, single, nu_g)
        check("template", f"single_generator_{template.value}_f1",
              vec.score(1), expected)
        check("template", f"single_generator_{template.value}_f2",
              vec.score(2), "0")
    sym = props.check_symmetry(single, TemplateId.DEEGAN_PACKEL, nu_g)
    check("template", "single_generator_symmetry_audit", sym.verdict,
          "fails-with-witness")

    # score vectors, primal and dual
    golden_vectors = (
        ("D", "5/12,1/4,1/6,1/6", "1/3,1/3,1/6,1/6"),
        ("H", "1,1/2,1/2,1/2", "1/3,2/3,1/3,1/3"),
        ("R_NORM", "1/4,1/4,1/6,1/6", "1/3,1/6,1/6,1/6"),
        ("J", "17/6,3/2,1/3,1/3", "5,2,1/2,1/2"),
        ("A", "7/20,7/30,1/15,1/15", "17/66,4/33,1/22,1/22"),
        ("V", "5/16,1/4,1/8,1/8", "1/2,3/8,1/4,1/4"),
    )
    for fis_id, primal, dual in golden_vectors:
        check("scores", f"chain_{fis_id}", _fis(chain, fis_id), primal)
        check("scores", f"chain_DUAL({fis_id})", _fis(chain, fis_id, dual=True), dual)
    check("scores", "chain_R", _fis(chain, "R"), "1/2,1/2,1/3,1/3")
    check("scores", "chain_C", _fis(chain, "C"), "1,1/2,1/2,1/2")
    check("scores", "chain_coverage_points_f1",
          len(scores.coverage_set(chain, 1)), "5")

    # injected families
    h_vec = scores.family_score(TemplateId.HOLLER_PACKEL, SKEWED_SIZES_FAMILY,
                                SKEWED_SIZES_N)
    check("families", "skewed_sizes_membership_share", _fmt_vec(h_vec),
          "1/3,2/3,2/3,2/3,2/3,1/3,1/3")
    check("families", "skewed_sizes_f1_below_f2",
          h_vec.score(1) < h_vec.score(2), "True")
    r_vec = scores.family_score(TemplateId.RESPONSIBILITY, MANY_SMALL_FAMILY,
                                MANY_SMALL_N)
    check("families", "many_small_best_size", _fmt_vec(r_vec),
          "1/2,1/3,1/3,1/3,1/3,1/3,1/3,1/2")
    check("families", "many_small_f1_above_f2",
          r_vec.score(1) > r_vec.score(2), "True")
    return out


def responsibility_variants(problem: ExplanationProblem) -> dict:
    """Side-by-side of the plain and family-normalized responsibility scores.

    The two variants differ exactly by the family-size factor; both are
    shipped because published worked values follow the normalized form while
    the displayed formula does not.
    """
    plain = scores.compute_fis("R", problem)
    norm = scores.compute_fis("R_NORM", problem)
    n_axps = len(explain.enumerate_axps(problem))
    agree = all(p == n * n_axps for p, n in zip(plain.values, norm.values))
    return {
        "plain": plain.as_strings(),
        "normalized": norm.as_strings(),
        "family_size": n_axps,
        "plain_equals_normalized_times_family_size": agree,
    }
