#ifndef QMATCH_TESTS_SUPPORT_DOCGEN_H_
#define QMATCH_TESTS_SUPPORT_DOCGEN_H_

#include <cstdint>

#include "xml/dom.h"
#include "xsd/schema.h"

namespace qmatch::datagen {

/// Options for schema-to-instance generation.
struct DocGenOptions {
  uint64_t seed = 42;
  /// Occurrence count drawn uniformly from [minOccurs..max_repeat] for
  /// elements with maxOccurs unbounded (bounded elements respect their
  /// own maxOccurs, capped at max_repeat).
  int max_repeat = 3;
  /// Probability of emitting a node whose minOccurs is 0.
  double optional_probability = 0.7;
};

/// Generates an XML instance document conforming to `schema` — the inverse
/// of `xsd::InferSchema`. Tests use it to synthesise the "schemaless web
/// document" inputs of the paper's motivating scenario and to property-test
/// the inference path (infer(generate(S)) reconstructs S's structure).
///
/// Leaf values are drawn per the declared datatype (integers, decimals,
/// booleans, dates, years, URIs, words); `default`/`fixed` values are
/// honoured when present. Deterministic for a given seed.
xml::XmlDocument GenerateDocument(const xsd::Schema& schema,
                                  const DocGenOptions& options = {});

}  // namespace qmatch::datagen

#endif  // QMATCH_TESTS_SUPPORT_DOCGEN_H_
