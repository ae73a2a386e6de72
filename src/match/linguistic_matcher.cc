#include "match/linguistic_matcher.h"

#include "match/assignment.h"

#include <vector>

#include "xsd/flatten.h"

namespace qmatch::match {

SimilarityMatrix LinguisticMatcher::Similarity(const xsd::Schema& source,
                                               const xsd::Schema& target) const {
  const xsd::FlatSchema& src = source.Flat();
  const xsd::FlatSchema& tgt = target.Flat();
  SimilarityMatrix matrix(src.nodes, tgt.nodes);
  if (matrix.empty()) return matrix;

  // Score each distinct label pair once, then expand by label id.
  const lingua::PairwiseLabelScorer scorer(name_matcher_, src.labels,
                                           tgt.labels);
  // Pairs outside the scorer's rows score +0.0, whatever their class.
  const size_t labels_t = tgt.labels.size();
  std::vector<double> label_sim(src.labels.size() * labels_t, 0.0);
  for (size_t a = 0; a < src.labels.size(); ++a) {
    for (const lingua::PairwiseLabelScorer::Scored& scored : scorer.Row(a)) {
      if (scored.match.cls != lingua::LabelMatchClass::kNone) {
        label_sim[a * labels_t + scored.target] = scored.match.score;
      }
    }
  }
  for (size_t i = 0; i < src.size(); ++i) {
    const double* row = label_sim.data() + src.label_id[i] * labels_t;
    for (size_t j = 0; j < tgt.size(); ++j) {
      matrix.set(i, j, row[tgt.label_id[j]]);
    }
  }
  return matrix;
}

MatchResult LinguisticMatcher::Match(const xsd::Schema& source,
                                     const xsd::Schema& target) const {
  MatchResult result;
  result.algorithm = std::string(name());
  if (source.root() == nullptr || target.root() == nullptr) return result;

  SimilarityMatrix matrix = Similarity(source, target);
  result.correspondences = SelectFromMatrix(matrix, options_.threshold,
                                            options_.ambiguity_margin);
  result.schema_qom = matrix.MeanBestPerSource();
  return result;
}

}  // namespace qmatch::match
