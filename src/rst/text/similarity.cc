#include "rst/text/similarity.h"

#include "rst/common/check.h"

#include <algorithm>
#include <cmath>

namespace rst {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

/// Extended Jaccard of exact vectors.
double ExtendedJaccard(const TermVector& a, const TermVector& b) {
  const double dot = a.Dot(b);
  const double den = a.NormSquared() + b.NormSquared() - dot;
  if (den <= 0.0) return 0.0;  // both vectors empty
  return dot / den;
}

double Cosine(const TermVector& a, const TermVector& b) {
  const double dot = a.Dot(b);
  if (dot <= 0.0) return 0.0;
  return dot / std::sqrt(a.NormSquared() * b.NormSquared());
}

/// Upper bound of EJ(d1, d2) = x/(a+b−x) over all d1 in group A, d2 in
/// group B, where x = <d1,d2> ≤ X := <A.uni, B.uni>, a = |d1|² ≥ A :=
/// |A.intr|², b ≥ B := |B.intr|², and (Cauchy–Schwarz on non-negative
/// vectors) x ≤ √(ab). For fixed x the denominator is minimized by the
/// smallest feasible a+b: A+B when A·B ≥ x², otherwise on the curve ab = x²
/// at a* = clamp(x, A, x²/B), giving a* + x²/a* − x. The resulting bound
/// x/den(x) is increasing in x, so evaluating at x = X is the maximum. The
/// Cauchy–Schwarz leg keeps the bound far below 1 even when intersection
/// vectors are empty — without it, node-level pruning in the RSTkNN
/// branch-and-bound never fires (DESIGN.md §3.1).
double ExtendedJaccardMax(double x, double na, double nb, EjBoundMode mode) {
  if (x <= 0.0) return 0.0;  // no shared term anywhere in the two groups
  double den;
  if (na * nb >= x * x) {
    den = na + nb - x;  // A+B ≥ 2√(AB) ≥ 2x, so den ≥ x > 0
  } else if (mode == EjBoundMode::kNaive) {
    den = na + nb - x;  // may be ≤ 0: collapses to the trivial bound 1
  } else {
    double a_star = x;  // unconstrained minimizer of a + x²/a
    if (a_star < na) a_star = na;
    if (nb > 0.0 && a_star > x * x / nb) a_star = x * x / nb;
    den = a_star + x * x / a_star - x;
  }
  if (den <= 0.0) return 1.0;
  return Clamp01(x / den);
}

/// Lower bound of EJ over the two groups from x = <A.intr, B.intr> and the
/// union norms.
double ExtendedJaccardMin(double x, double ua, double ub) {
  if (x <= 0.0) return 0.0;
  const double den = ua + ub - x;
  if (den <= 0.0) return 1.0;  // unreachable with x <= den by Cauchy–Schwarz
  return Clamp01(x / den);
}

double CosineMax(double x, double na, double nb) {
  if (x <= 0.0) return 0.0;
  const double n2 = na * nb;
  if (n2 <= 0.0) return 1.0;  // some doc may be ~parallel; cannot tighten
  return Clamp01(x / std::sqrt(n2));
}

double CosineMin(double x, double ua, double ub) {
  if (x <= 0.0) return 0.0;
  const double n2 = ua * ub;
  RST_DCHECK_GT(n2, 0.0);
  return Clamp01(x / std::sqrt(n2));
}

struct RatioTerm {
  double num;  // object-side weight bound for the term
  double den;  // corpus normalizer cmax(t)
};

/// Extremal value of (Σ num) / (Σ den) over keyword sets that must contain
/// all `required` terms and may add any subset of `optional` terms. This is
/// the exact subset-extremal normalized-sum bound (DESIGN.md §3.1): sort the
/// optional terms by num/den and greedily add while the ratio improves
/// (`upper`) or worsens (!`upper`). With an empty required set the extremum
/// over non-empty sets starts from the single best/worst-ratio term.
double ExtremalRatioSum(const std::vector<RatioTerm>& required,
                        std::vector<RatioTerm> optional, bool upper) {
  double num = 0.0, den = 0.0;
  for (const RatioTerm& t : required) {
    if (t.den <= 0.0 && t.num > 0.0) return upper ? 1.0 : 0.0;  // see header
    num += t.num;
    den += t.den;
  }
  std::sort(optional.begin(), optional.end(),
            [upper](const RatioTerm& a, const RatioTerm& b) {
              // Sort by ratio, descending for upper / ascending for lower.
              const double lhs = a.num * b.den;
              const double rhs = b.num * a.den;
              return upper ? lhs > rhs : lhs < rhs;
            });
  size_t start = 0;
  if (required.empty()) {
    if (optional.empty()) return 0.0;  // no user keywords at all
    const RatioTerm& first = optional.front();
    if (first.den <= 0.0) return upper && first.num > 0.0 ? 1.0 : 0.0;
    num = first.num;
    den = first.den;
    start = 1;
  }
  if (den <= 0.0) return 0.0;
  for (size_t i = start; i < optional.size(); ++i) {
    const RatioTerm& t = optional[i];
    if (t.den <= 0.0) {
      if (upper && t.num > 0.0) return 1.0;
      continue;
    }
    const bool improves =
        upper ? t.num * den > num * t.den : t.num * den < num * t.den;
    if (!improves) break;  // sorted: no later term can improve either
    num += t.num;
    den += t.den;
  }
  return Clamp01(num / den);
}

}  // namespace

const char* TextMeasureName(TextMeasure m) {
  switch (m) {
    case TextMeasure::kExtendedJaccard:
      return "extended_jaccard";
    case TextMeasure::kCosine:
      return "cosine";
    case TextMeasure::kSum:
      return "normalized_sum";
  }
  return "unknown";
}

TextSimilarity::TextSimilarity(TextMeasure measure,
                               const std::vector<float>* corpus_max,
                               EjBoundMode ej_bound)
    : measure_(measure), corpus_max_(corpus_max), ej_bound_(ej_bound) {
  RST_CHECK(measure_ != TextMeasure::kSum || corpus_max_ != nullptr)
      << "kSum needs per-term corpus maxima";
}

double TextSimilarity::SumSim(const TermVector& object,
                              const TermVector& user) const {
  double num = 0.0, den = 0.0;
  for (const TermWeight& e : user.entries()) {
    num += object.Get(e.term);
    den += CorpusMax(e.term);
  }
  if (den <= 0.0) return 0.0;
  return Clamp01(num / den);
}

double TextSimilarity::SumBound(const SummarySpan& object,
                                const SummarySpan& user, bool upper) const {
  const TermSpan& obj_side = upper ? object.uni : object.intr;
  std::vector<RatioTerm> required;
  std::vector<RatioTerm> optional;
  required.reserve(user.intr.len);
  optional.reserve(user.uni.len);
  for (const TermWeight* e = user.uni.data; e != user.uni.data + user.uni.len;
       ++e) {
    const RatioTerm t{static_cast<double>(obj_side.Get(e->term)),
                      CorpusMax(e->term)};
    if (user.intr.Contains(e->term)) {
      required.push_back(t);
    } else {
      optional.push_back(t);
    }
  }
  return ExtremalRatioSum(required, std::move(optional), upper);
}

double TextSimilarity::Sim(const TermVector& object,
                           const TermVector& user) const {
  switch (measure_) {
    case TextMeasure::kExtendedJaccard:
      return ExtendedJaccard(object, user);
    case TextMeasure::kCosine:
      return Cosine(object, user);
    case TextMeasure::kSum:
      return SumSim(object, user);
  }
  return 0.0;
}

double TextSimilarity::MaxSim(const SummarySpan& object,
                              const SummarySpan& user) const {
  if (measure_ == TextMeasure::kSum) {
    return SumBound(object, user, /*upper=*/true);
  }
  return MaxSimFromDot(Dot(object.uni, user.uni), object.intr.norm_squared,
                       user.intr.norm_squared);
}

double TextSimilarity::MinSim(const SummarySpan& object,
                              const SummarySpan& user) const {
  if (measure_ == TextMeasure::kSum) {
    return SumBound(object, user, /*upper=*/false);
  }
  return MinSimFromDot(Dot(object.intr, user.intr), object.uni.norm_squared,
                       user.uni.norm_squared);
}

double TextSimilarity::MaxSimFromDot(double uni_dot, double object_intr_norm_sq,
                                     double user_intr_norm_sq) const {
  switch (measure_) {
    case TextMeasure::kExtendedJaccard:
      return ExtendedJaccardMax(uni_dot, object_intr_norm_sq,
                                user_intr_norm_sq, ej_bound_);
    case TextMeasure::kCosine:
      return CosineMax(uni_dot, object_intr_norm_sq, user_intr_norm_sq);
    case TextMeasure::kSum:
      break;
  }
  RST_CHECK(false) << "the kSum bound is not a function of dot products";
  return 1.0;
}

double TextSimilarity::MinSimFromDot(double intr_dot, double object_uni_norm_sq,
                                     double user_uni_norm_sq) const {
  switch (measure_) {
    case TextMeasure::kExtendedJaccard:
      return ExtendedJaccardMin(intr_dot, object_uni_norm_sq,
                                user_uni_norm_sq);
    case TextMeasure::kCosine:
      return CosineMin(intr_dot, object_uni_norm_sq, user_uni_norm_sq);
    case TextMeasure::kSum:
      break;
  }
  RST_CHECK(false) << "the kSum bound is not a function of dot products";
  return 0.0;
}

StScorer::StScorer(const TextSimilarity* text, const StOptions& options)
    : text_(text), options_(options) {
  RST_CHECK(options.alpha >= 0.0 && options.alpha <= 1.0)
      << "StScorer alpha " << options.alpha << " is outside [0, 1]";
}

double StScorer::SpatialSim(double dist) const {
  if (options_.max_dist <= 0.0) return dist <= 0.0 ? 1.0 : 0.0;
  return Clamp01(1.0 - dist / options_.max_dist);
}

double StScorer::Score(const Point& op, const TermVector& od, const Point& up,
                       const TermVector& ud) const {
  return options_.alpha * SpatialSim(Distance(op, up)) +
         (1.0 - options_.alpha) * text_->Sim(od, ud);
}

double StScorer::MaxScore(const Rect& orect, const SummarySpan& osum,
                          const Rect& urect, const SummarySpan& usum) const {
  return options_.alpha * SpatialSim(MinDistance(orect, urect)) +
         (1.0 - options_.alpha) * text_->MaxSim(osum, usum);
}

double StScorer::MinScore(const Rect& orect, const SummarySpan& osum,
                          const Rect& urect, const SummarySpan& usum) const {
  return options_.alpha * SpatialSim(MaxDistance(orect, urect)) +
         (1.0 - options_.alpha) * text_->MinSim(osum, usum);
}

}  // namespace rst
