#include "xsd/schema.h"

#include <algorithm>

#include "common/string_util.h"

namespace qmatch::xsd {

std::string_view NodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
  }
  return "?";
}

SchemaNode* SchemaNode::AddChild(std::unique_ptr<SchemaNode> child) {
  child->parent_ = this;
  SchemaNode* borrowed = child.get();
  children_.push_back(std::move(child));
  return borrowed;
}

const SchemaNode* SchemaNode::FindChild(std::string_view label) const {
  for (const auto& child : children_) {
    if (child->label() == label) return child.get();
  }
  return nullptr;
}

size_t SchemaNode::SubtreeSize() const {
  size_t count = 1;
  for (const auto& child : children_) count += child->SubtreeSize();
  return count;
}

size_t SchemaNode::Height() const {
  size_t h = 0;
  for (const auto& child : children_) {
    h = std::max(h, 1 + child->Height());
  }
  return h;
}

std::string SchemaNode::Path() const {
  std::string path;
  // Build from root down: collect ancestry, then emit.
  std::vector<const SchemaNode*> chain;
  for (const SchemaNode* n = this; n != nullptr; n = n->parent_) {
    chain.push_back(n);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    path += '/';
    if ((*it)->kind() == NodeKind::kAttribute) path += '@';
    path += (*it)->label();
  }
  return path;
}

std::string SchemaNode::DebugString() const {
  std::string occurs_str;
  if (occurs_.unbounded()) {
    occurs_str = StrFormat("[%d,*]", occurs_.min);
  } else {
    occurs_str = StrFormat("[%d,%d]", occurs_.min, occurs_.max);
  }
  return StrFormat(
      "%s%s (%s, type=%s, occurs=%s, level=%zu, order=%d%s)",
      kind_ == NodeKind::kAttribute ? "@" : "", label_.c_str(),
      std::string(NodeKindName(kind_)).c_str(),
      type_name_.empty() ? std::string(TypeName(type_)).c_str()
                         : type_name_.c_str(),
      occurs_str.c_str(), level_, order_, ordered_ ? ", ordered" : "");
}

void Schema::Finalize() {
  flat_.reset();  // any tree mutation invalidates the SoA projection
  fingerprint_.reset();
  if (root_ == nullptr) return;
  // Iterative preorder walk assigning levels and sibling order.
  struct Item {
    SchemaNode* node;
    size_t level;
  };
  std::vector<Item> stack;
  root_->level_ = 0;
  root_->order_ = 0;
  root_->ordered_ = false;
  root_->parent_ = nullptr;
  stack.push_back({root_.get(), 0});
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    SchemaNode* node = item.node;
    node->level_ = item.level;
    const bool children_ordered = node->compositor_ == Compositor::kSequence;
    int index = 0;
    for (auto& child : node->children_) {
      child->parent_ = node;
      child->order_ = index++;
      child->ordered_ = children_ordered;
      stack.push_back({child.get(), item.level + 1});
    }
  }
}

size_t Schema::NodeCount() const {
  return root_ != nullptr ? root_->SubtreeSize() : 0;
}

size_t Schema::ElementCount() const {
  size_t count = 0;
  for (const SchemaNode* node : AllNodes()) {
    if (node->kind() == NodeKind::kElement) ++count;
  }
  return count;
}

size_t Schema::MaxDepth() const {
  return root_ != nullptr ? root_->Height() : 0;
}

std::vector<const SchemaNode*> Schema::AllNodes() const {
  std::vector<const SchemaNode*> out;
  if (root_ == nullptr) return out;
  std::vector<const SchemaNode*> stack = {root_.get()};
  while (!stack.empty()) {
    const SchemaNode* node = stack.back();
    stack.pop_back();
    out.push_back(node);
    // Push children in reverse so preorder emits them left-to-right.
    for (auto it = node->children().rbegin(); it != node->children().rend();
         ++it) {
      stack.push_back(it->get());
    }
  }
  return out;
}

std::vector<SchemaNode*> Schema::AllNodes() {
  std::vector<SchemaNode*> out;
  if (root_ == nullptr) return out;
  std::vector<SchemaNode*> stack = {root_.get()};
  while (!stack.empty()) {
    SchemaNode* node = stack.back();
    stack.pop_back();
    out.push_back(node);
    for (auto it = node->children_.rbegin(); it != node->children_.rend();
         ++it) {
      stack.push_back(it->get());
    }
  }
  return out;
}

namespace {

/// Preorder-first node under (and including) `node` whose path, read from
/// `node`'s own step on, is exactly `rest`. Only nodes whose path is a
/// prefix of the query are visited, so the walk follows the query down.
const SchemaNode* FindBySteps(const SchemaNode& node, std::string_view rest) {
  const bool attribute = node.kind() == NodeKind::kAttribute;
  const std::string& label = node.label();
  const size_t step = 1 + (attribute ? 1 : 0) + label.size();
  if (rest.size() < step || rest[0] != '/' || (attribute && rest[1] != '@') ||
      rest.compare(step - label.size(), label.size(), label) != 0) {
    return nullptr;
  }
  rest.remove_prefix(step);
  if (rest.empty()) return &node;
  for (const auto& child : node.children()) {
    if (const SchemaNode* hit = FindBySteps(*child, rest)) return hit;
  }
  return nullptr;
}

std::unique_ptr<SchemaNode> CloneNode(const SchemaNode& src) {
  auto copy = std::make_unique<SchemaNode>(src.label(), src.kind());
  copy->set_type(src.type(), src.type_name());
  copy->set_occurs(src.occurs());
  copy->set_compositor(src.compositor());
  copy->set_nillable(src.nillable());
  if (src.default_value().has_value()) {
    copy->set_default_value(*src.default_value());
  }
  if (src.fixed_value().has_value()) {
    copy->set_fixed_value(*src.fixed_value());
  }
  for (const auto& child : src.children()) {
    copy->AddChild(CloneNode(*child));
  }
  return copy;
}

void AppendTree(const SchemaNode& node, size_t depth, std::string& out) {
  out.append(depth * 2, ' ');
  out += node.DebugString();
  out += '\n';
  for (const auto& child : node.children()) {
    AppendTree(*child, depth + 1, out);
  }
}

}  // namespace

const SchemaNode* Schema::FindByPath(std::string_view path) const {
  return root_ != nullptr ? FindBySteps(*root_, path) : nullptr;
}

Schema Schema::Clone() const {
  Schema copy;
  copy.set_name(name_);
  copy.set_target_namespace(target_namespace_);
  if (root_ != nullptr) {
    copy.set_root(CloneNode(*root_));
  }
  return copy;
}

std::string Schema::ToTreeString() const {
  std::string out = "schema '" + name_ + "'\n";
  if (root_ != nullptr) AppendTree(*root_, 1, out);
  return out;
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashBytes(std::string_view bytes, uint64_t& h) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

void HashInt(uint64_t value, uint64_t& h) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
}

void HashNode(const SchemaNode& node, uint64_t& h) {
  HashBytes(node.label(), h);
  HashInt(static_cast<uint64_t>(node.kind()), h);
  HashInt(static_cast<uint64_t>(node.type()), h);
  HashBytes(node.type_name(), h);
  HashInt(static_cast<uint64_t>(static_cast<int64_t>(node.occurs().min)), h);
  HashInt(static_cast<uint64_t>(static_cast<int64_t>(node.occurs().max)), h);
  HashInt(static_cast<uint64_t>(node.compositor()), h);
  HashInt(node.nillable() ? 1u : 0u, h);
  HashBytes(node.default_value().value_or(""), h);
  HashBytes(node.fixed_value().value_or(""), h);
  HashInt(node.child_count(), h);
  for (const auto& child : node.children()) HashNode(*child, h);
}

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema) {
  uint64_t h = kFnvOffset;
  if (schema.root() != nullptr) HashNode(*schema.root(), h);
  return h;
}

std::mutex& Schema::MemoMutex() {
  static std::mutex mu;
  return mu;
}

uint64_t Schema::Fingerprint() const {
  // Bypassing the memo for an empty tree keeps a moved-from schema (its
  // defaulted move copied the memo, not the tree) honest.
  if (root_ == nullptr) return SchemaFingerprint(*this);
  std::mutex& mu = MemoMutex();
  {
    std::lock_guard<std::mutex> lock(mu);
    if (fingerprint_.has_value()) return *fingerprint_;
  }
  // Hash outside the lock, like Flat(): concurrent first calls compute the
  // same value, and the first to finish publishes it.
  const uint64_t fingerprint = SchemaFingerprint(*this);
  std::lock_guard<std::mutex> lock(mu);
  if (!fingerprint_.has_value()) fingerprint_ = fingerprint;
  return *fingerprint_;
}

}  // namespace qmatch::xsd
