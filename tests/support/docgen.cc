#include "support/docgen.h"

#include <memory>

#include "common/random.h"
#include "common/string_util.h"

namespace qmatch::datagen {

namespace {

const char* const kWords[] = {
    "alpha", "beta",  "gamma", "delta",  "omega",  "vector",
    "tensor", "probe", "sample", "widget", "gadget", "fixture",
};

std::string ValueForType(xsd::XsdType type, Random& rng) {
  using xsd::XsdType;
  switch (xsd::PrimitiveAncestor(type)) {
    case XsdType::kDecimal: {
      // Integer family stays integral; decimal and friends get a fraction.
      if (xsd::IsAncestorType(XsdType::kInteger, type) ||
          type == XsdType::kInteger) {
        // Avoid 4-digit values, which the inferrer reads as gYear.
        return StrFormat("%d", static_cast<int>(rng.Uniform(900)) + 10000);
      }
      return StrFormat("%d.%02d", static_cast<int>(rng.Uniform(500)),
                       static_cast<int>(rng.Uniform(100)));
    }
    case XsdType::kBoolean:
      return rng.Bernoulli(0.5) ? "true" : "false";
    case XsdType::kDate:
      return StrFormat("20%02d-%02d-%02d", static_cast<int>(rng.Uniform(30)),
                       static_cast<int>(rng.Uniform(12)) + 1,
                       static_cast<int>(rng.Uniform(28)) + 1);
    case XsdType::kDateTime:
      return StrFormat("20%02d-%02d-%02dT%02d:%02d:%02d",
                       static_cast<int>(rng.Uniform(30)),
                       static_cast<int>(rng.Uniform(12)) + 1,
                       static_cast<int>(rng.Uniform(28)) + 1,
                       static_cast<int>(rng.Uniform(24)),
                       static_cast<int>(rng.Uniform(60)),
                       static_cast<int>(rng.Uniform(60)));
    case XsdType::kGYear:
      return StrFormat("%d", 1900 + static_cast<int>(rng.Uniform(130)));
    case XsdType::kGYearMonth:
      return StrFormat("20%02d-%02d", static_cast<int>(rng.Uniform(30)),
                       static_cast<int>(rng.Uniform(12)) + 1);
    case XsdType::kTime:
      return StrFormat("%02d:%02d:%02d", static_cast<int>(rng.Uniform(24)),
                       static_cast<int>(rng.Uniform(60)),
                       static_cast<int>(rng.Uniform(60)));
    case XsdType::kAnyUri:
      return "http://example.com/" +
             std::string(kWords[rng.Uniform(std::size(kWords))]);
    case XsdType::kFloat:
    case XsdType::kDouble:
      return StrFormat("%d.%d", static_cast<int>(rng.Uniform(100)),
                       static_cast<int>(rng.Uniform(10)));
    default:
      return std::string(kWords[rng.Uniform(std::size(kWords))]) + " " +
             std::string(kWords[rng.Uniform(std::size(kWords))]);
  }
}

std::string LeafValue(const xsd::SchemaNode& node, Random& rng) {
  if (node.fixed_value().has_value()) return *node.fixed_value();
  if (node.default_value().has_value() && rng.Bernoulli(0.5)) {
    return *node.default_value();
  }
  return ValueForType(node.type(), rng);
}

void Emit(const xsd::SchemaNode& node, xml::XmlElement* parent,
          const DocGenOptions& options, Random& rng) {
  if (node.kind() == xsd::NodeKind::kAttribute) {
    if (node.occurs().min == 0 &&
        !rng.Bernoulli(options.optional_probability)) {
      return;
    }
    parent->SetAttribute(node.label(), LeafValue(node, rng));
    return;
  }

  int lo = node.occurs().min;
  if (lo == 0) {
    if (!rng.Bernoulli(options.optional_probability)) return;
    lo = 1;
  }
  int hi = node.occurs().unbounded()
               ? options.max_repeat
               : std::min(node.occurs().max, options.max_repeat);
  if (hi < lo) hi = lo;
  int count = lo + static_cast<int>(rng.Uniform(
                       static_cast<uint64_t>(hi - lo) + 1));

  for (int k = 0; k < count; ++k) {
    xml::XmlElement* element = parent->AddChildElement(node.label());
    if (node.IsLeaf()) {
      element->AddText(LeafValue(node, rng));
      continue;
    }
    for (const auto& child : node.children()) {
      Emit(*child, element, options, rng);
    }
  }
}

}  // namespace

xml::XmlDocument GenerateDocument(const xsd::Schema& schema,
                                  const DocGenOptions& options) {
  xml::XmlDocument doc;
  if (schema.root() == nullptr) return doc;
  Random rng(options.seed);

  auto root = std::make_unique<xml::XmlElement>(schema.root()->label());
  if (schema.root()->IsLeaf()) {
    root->AddText(LeafValue(*schema.root(), rng));
  } else {
    for (const auto& child : schema.root()->children()) {
      Emit(*child, root.get(), options, rng);
    }
  }
  doc.set_root(std::move(root));
  return doc;
}

}  // namespace qmatch::datagen
