#include "workloads.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>

#include "common/arena.h"
#include "common/cancel.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/qmatch.h"
#include "datagen/generator.h"
#include "datagen/perturb.h"
#include "lingua/default_thesaurus.h"
#include "lingua/name_match.h"
#include "match/soa_kernel.h"
#include "persist/store.h"
#include "xsd/flatten.h"
#include "xsd/parser.h"
#include "xsd/writer.h"

namespace qmbench {
namespace {

using namespace qmatch;

/// A schema as the daemon receives it: a name and XSD text.
struct Input {
  std::string name;
  std::string xsd;
};

/// The ten small corpus schemas of data/schemas (PIR and PDB excluded).
const std::vector<std::string>& SmallCorpus() {
  static const std::vector<std::string> names = {
      "PO1",     "PO2",      "Article",       "Book",        "DCMDItem",
      "DCMDOrder", "Library", "Human", "XBenchCatalog", "XBenchOrder"};
  return names;
}

Input CorpusInput(const Env& env, const std::string& stem) {
  Result<std::string> text = ReadFile(env.data_dir + "/schemas/" + stem + ".xsd");
  if (!text.ok()) throw std::runtime_error(text.status().ToString());
  return Input{stem, std::move(*text)};
}

/// Parses `in` exactly as the daemon's SubmitSchema does.
xsd::Schema Parse(const Input& in) {
  xsd::ParseOptions options;
  options.schema_name = in.name;
  Result<xsd::Schema> schema = xsd::ParseSchema(in.xsd, options);
  if (!schema.ok()) {
    throw std::runtime_error(in.name + ": " + schema.status().ToString());
  }
  return std::move(*schema);
}

std::vector<xsd::Schema> ParseAll(const std::vector<Input>& inputs,
                                  ThreadPool* pool) {
  std::vector<xsd::Schema> out(inputs.size());
  pool->ParallelFor(inputs.size(),
                    [&](size_t i) { out[i] = Parse(inputs[i]); });
  return out;
}

xsd::Schema Generate(size_t elements, size_t depth, datagen::Domain domain,
                     uint64_t seed, const std::string& name) {
  datagen::GeneratorOptions options;
  options.element_count = elements;
  options.max_depth = depth;
  options.domain = domain;
  options.seed = seed;
  options.name = name;
  return datagen::GenerateSchema(options);
}

/// A perturbed copy that keeps every node in place (renames, retypes and
/// occurrence flips only), so its size and preorder are the base's. A cache
/// hit's cost depends on where its correspondences sit in preorder, so a
/// child shuffle would make the warm path's cost depend on the seed.
xsd::Schema PerturbInPlace(const xsd::Schema& base, uint64_t seed,
                           const std::string& name) {
  datagen::PerturbOptions options;
  options.drop_prob = 0.0;
  options.add_prob = 0.0;
  options.shuffle_children = false;
  options.seed = seed;
  options.name = name;
  return datagen::Perturb(base, options, nullptr);
}

datagen::Domain DomainOf(uint64_t k) {
  static const datagen::Domain domains[] = {
      datagen::Domain::kGeneric, datagen::Domain::kCommerce,
      datagen::Domain::kBibliographic, datagen::Domain::kProtein};
  return domains[k % 4];
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Bit-for-bit comparison of a wire answer with the in-process reference.
bool MatchesReference(const net::MatchPairResp& resp, const MatchResult& ref,
                      std::string* why) {
  if (!SameBits(resp.schema_qom, ref.schema_qom)) {
    *why = StrFormat("schema_qom %.17g != reference %.17g", resp.schema_qom,
                     ref.schema_qom);
    return false;
  }
  if (resp.completed_rows != resp.total_rows ||
      resp.mode != static_cast<uint32_t>(MatchMode::kFull)) {
    *why = "degraded or partial answer";
    return false;
  }
  if (resp.correspondences.size() != ref.correspondences.size()) {
    *why = StrFormat("%zu correspondences != reference %zu",
                     resp.correspondences.size(), ref.correspondences.size());
    return false;
  }
  for (size_t i = 0; i < ref.correspondences.size(); ++i) {
    const net::WireCorrespondence& got = resp.correspondences[i];
    const Correspondence& want = ref.correspondences[i];
    if (got.source_path != want.source->Path() ||
        got.target_path != want.target->Path() ||
        !SameBits(got.score, want.score)) {
      *why = StrFormat("correspondence %zu differs: %s -> %s %.17g", i,
                       got.source_path.c_str(), got.target_path.c_str(),
                       got.score);
      return false;
    }
  }
  return true;
}

/// Bit-for-bit equality of two wire answers (a warm answer against its own
/// priming answer).
bool SameAnswer(const net::MatchPairResp& a, const net::MatchPairResp& b) {
  if (!SameBits(a.schema_qom, b.schema_qom) || a.algorithm != b.algorithm ||
      a.mode != b.mode || a.completed_rows != b.completed_rows ||
      a.total_rows != b.total_rows ||
      a.correspondences.size() != b.correspondences.size()) {
    return false;
  }
  for (size_t i = 0; i < a.correspondences.size(); ++i) {
    const net::WireCorrespondence& x = a.correspondences[i];
    const net::WireCorrespondence& y = b.correspondences[i];
    if (x.source_path != y.source_path || x.target_path != y.target_path ||
        !SameBits(x.score, y.score)) {
      return false;
    }
  }
  return true;
}

/// Checks a wire answer against data/expected/<task>.qom, the golden
/// snapshot format of tests/golden_regression_test.cpp minus its quality
/// line (the wire carries no gold standard).
bool MatchesGolden(const Env& env, const std::string& task,
                   const std::string& source, const std::string& target,
                   const net::MatchPairResp& resp, std::string* why) {
  std::string snapshot = StrFormat(
      "# QMatch golden snapshot — task %s (default config)\n", task.c_str());
  snapshot += StrFormat("schema %s -> %s\n", source.c_str(), target.c_str());
  snapshot += StrFormat("schema_qom %.12g\n", resp.schema_qom);
  snapshot += StrFormat("correspondences %zu\n", resp.correspondences.size());
  for (const net::WireCorrespondence& c : resp.correspondences) {
    snapshot += StrFormat("%s -> %s %.12g\n", c.source_path.c_str(),
                          c.target_path.c_str(), c.score);
  }
  Result<std::string> golden =
      ReadFile(env.data_dir + "/expected/" + task + ".qom");
  if (!golden.ok()) {
    *why = golden.status().ToString();
    return false;
  }
  std::string expected;
  for (const std::string& line : Split(*golden, '\n')) {
    if (line.empty() || line.rfind("quality ", 0) == 0) continue;
    expected += line + "\n";
  }
  if (snapshot != expected) {
    *why = "answer differs from data/expected/" + task + ".qom";
    return false;
  }
  return true;
}

void SubmitAll(Link& link, const std::vector<Input>& inputs, Tally* tally,
               std::vector<net::SubmitSchemaResp>* answers) {
  answers->clear();
  for (const Input& in : inputs) {
    Result<net::SubmitSchemaResp> r = link.SubmitSchema(in.name, in.xsd);
    std::string code;
    const Outcome outcome = Classify(r, &code);
    tally->Add(outcome, code);
    answers->push_back(r.ok() ? *r : net::SubmitSchemaResp{});
  }
}

/// The daemon's SubmitSchema answers carry the fingerprint and node count
/// of its parse; both must equal the in-process parse of the same text.
/// `refs[i]` answers to `answers[first + i]`.
uint64_t CheckSubmits(const std::vector<xsd::Schema>& refs,
                      const std::vector<net::SubmitSchemaResp>& answers,
                      size_t first, std::string* report) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < refs.size(); ++i) {
    if (first + i >= answers.size() ||
        answers[first + i].fingerprint != xsd::SchemaFingerprint(refs[i]) ||
        answers[first + i].node_count != refs[i].NodeCount()) {
      ++wrong;
      *report += "submit of " + refs[i].name() + " disagrees with reference\n";
    }
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// The in-process mirror the traced run replays layer calls on
// ---------------------------------------------------------------------------

/// One engine configured like the daemon's (--threads 2 --cache 128), the
/// bare QMatch it wraps, the kernel configuration QMatch::Analyze builds,
/// and a scratch persistent store. Replays time each layer's public entry
/// point on the same inputs the daemon received.
class Mirror {
 public:
  explicit Mirror(const Env& env)
      : engine_(EngineOptions()),
        pool_(1),
        name_matcher_(&lingua::DefaultThesaurus(),
                      matcher_.config().name_options) {
    const core::QMatchConfig& config = matcher_.config();
    kernel_.weights = config.weights;
    kernel_.threshold = config.threshold;
    kernel_.best_match_accumulation =
        config.child_accumulation ==
        core::QMatchConfig::ChildAccumulation::kBestMatch;
    kernel_.level_graded =
        config.level_mode == core::QMatchConfig::LevelMode::kGraded;
    kernel_.leaf_to_inner_children_credit =
        config.leaf_to_inner_children_credit;
    kernel_.name_matcher = &name_matcher_;
    kernel_.property_options = config.property_options;

    const std::string dir = env.scratch_dir + "/replay-store";
    std::filesystem::remove_all(dir);
    persist::StoreState state;
    persist::LoadStats stats;
    Result<std::unique_ptr<persist::PersistentStore>> store =
        persist::PersistentStore::Open(dir, engine_.config_hash(), &state,
                                       &stats);
    if (!store.ok()) throw std::runtime_error(store.status().ToString());
    store_ = std::move(*store);
  }

  /// Matches outside any span, so a later replay of the pair is a hit.
  void Prime(const xsd::Schema& source, const xsd::Schema& target) {
    (void)engine_.Match(source, target, Request());
  }

  /// A pair the daemon answered from a cold table. `flatten_*` mark the
  /// schemas the daemon flattened for the first time in this operation.
  void ReplayMiss(const xsd::Schema& source, const xsd::Schema& target,
                  bool flatten_source, bool flatten_target, uint64_t op,
                  uint32_t tid, SpanLog* log) {
    Fingerprints(source, target, op, tid, log);
    for (const xsd::Schema* schema :
         {flatten_source ? &source : nullptr,
          flatten_target ? &target : nullptr}) {
      if (schema == nullptr) continue;
      xsd::FlatSchema flat;
      log->Time("xsd.flatten", op, tid,
                [&] { flat = xsd::BuildFlatSchema(*schema); });
    }
    const xsd::FlatSchema& fs = source.Flat();
    const xsd::FlatSchema& ft = target.Flat();

    size_t none = 0;
    log->Time("lingua.label_matrix", op, tid, [&] {
      const lingua::PairwiseLabelScorer scorer(name_matcher_, fs.labels,
                                               ft.labels);
      for (size_t i = 0; i < fs.labels.size(); ++i) {
        for (size_t j = 0; j < ft.labels.size(); ++j) {
          if (scorer.Match(i, j).cls == lingua::LabelMatchClass::kNone) ++none;
        }
      }
    });

    const size_t pairs = fs.size() * ft.size();
    ThreadPool* pool = pairs >= core::MatchEngineOptions{}.min_parallel_pairs
                           ? &pool_
                           : nullptr;
    const ExecControl control{Request().deadline, nullptr};
    {
      std::vector<qom::PairQoM> table(pairs);
      std::vector<char> row_done(fs.size(), 0);
      Arena arena;
      log->Time("match.fill", op, tid, [&] {
        (void)match::SoaFillTable(fs, ft, kernel_, table.data(), row_done,
                                  pool, &control, &arena);
      });
    }
    log->Time("core.analyze", op, tid, [&] {
      const core::QMatch::Analysis analysis =
          matcher_.Analyze(source, target, pool, &control);
    });

    core::EngineMatchResult result;
    log->Time("engine.match", op, tid,
              [&] { result = engine_.Match(source, target, Request()); });

    persist::CacheEntryRec rec;
    rec.source_fp = xsd::SchemaFingerprint(source);
    rec.target_fp = xsd::SchemaFingerprint(target);
    rec.config_hash = engine_.config_hash();
    rec.algorithm = result.result.algorithm;
    rec.schema_qom = result.result.schema_qom;
    for (const Correspondence& c : result.result.correspondences) {
      rec.correspondences.push_back(persist::CorrespondenceRec{
          c.source->Path(), c.target->Path(), c.score});
    }
    log->Time("persist.append", op, tid,
              [&] { (void)store_->AppendCache(rec); });

    std::lock_guard<std::mutex> lock(mutex_);
    counts_.pairs += static_cast<double>(pairs);
    counts_.label_pairs +=
        static_cast<double>(fs.labels.size() * ft.labels.size());
    counts_.label_none += static_cast<double>(none);
  }

  /// A pair the daemon answered from its cache.
  void ReplayHit(const xsd::Schema& source, const xsd::Schema& target,
                 uint64_t op, uint32_t tid, SpanLog* log) {
    const double fp_ms = Fingerprints(source, target, op, tid, log);
    const double match_ms = log->Time("engine.match", op, tid, [&] {
      (void)engine_.Match(source, target, Request());
    });
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.hits += 1;
    counts_.rehydrate_ms += match_ms - fp_ms;
  }

  ReplayCounts counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }

 private:
  static core::MatchEngineOptions EngineOptions() {
    core::MatchEngineOptions options;
    options.threads = 2;
    options.cache_capacity = 128;
    return options;
  }

  /// The envelope qmatchd gives a request that sends deadline 0: its
  /// default --max-deadline-ms ceiling.
  static core::EngineRequestOptions Request() {
    core::EngineRequestOptions options;
    options.deadline = Deadline::After(std::chrono::milliseconds(30000));
    return options;
  }

  double Fingerprints(const xsd::Schema& source, const xsd::Schema& target,
                      uint64_t op, uint32_t tid, SpanLog* log) {
    double ms = 0.0;
    for (const xsd::Schema* schema : {&source, &target}) {
      ms += log->Time("xsd.fingerprint", op, tid,
                      [&] { (void)xsd::SchemaFingerprint(*schema); });
    }
    return ms;
  }

  core::QMatch matcher_;
  core::MatchEngine engine_;
  ThreadPool pool_;
  lingua::NameMatcher name_matcher_;
  match::SoaKernelConfig kernel_;
  std::unique_ptr<persist::PersistentStore> store_;

  mutable std::mutex mutex_;
  ReplayCounts counts_;
};

// ---------------------------------------------------------------------------
// cold_protein
// ---------------------------------------------------------------------------

/// One connection; every MatchPair is a (source, target) pair of
/// Protein-scale schemas never requested before, so every request misses
/// the cache and fills a fresh table.
class ColdProtein : public Workload {
 public:
  /// Sources: PIR plus 63 seeded ~231-element schemas (generated, or PIR
  /// perturbed). Targets: PDB plus 12 generated schemas whose sizes step
  /// evenly from 2000 to 3753 elements, so every window of 13 operations
  /// covers the same size mix whatever the seed.
  static constexpr size_t kSources = 64;
  static constexpr size_t kTargets = 13;

  explicit ColdProtein(const Env& env) : env_(env) {}

  size_t connections() const override { return 1; }
  bool all_hits() const override { return false; }

  void Setup(std::vector<Link>& links, Tally* tally) override {
    sources_.clear();
    targets_.clear();
    const Input pir = CorpusInput(env_, "PIR");
    const Input pdb = CorpusInput(env_, "PDB");
    const xsd::Schema pir_schema = Parse(pir);
    sources_.push_back(pir);
    for (size_t k = 1; k < kSources; ++k) {
      const std::string name = StrFormat("src%02zu", k);
      const uint64_t seed = SubSeed(env_.seed, 1, k);
      const xsd::Schema schema =
          k % 2 == 1 ? Generate(231, 6, datagen::Domain::kProtein, seed, name)
                     : PerturbInPlace(pir_schema, seed, name);
      sources_.push_back(Input{name, xsd::ToXsd(schema)});
    }
    targets_.push_back(pdb);
    for (size_t k = 1; k < kTargets; ++k) {
      const std::string name = StrFormat("tgt%02zu", k);
      const size_t elements = 2000 + (k - 1) * (3753 - 2000) / (kTargets - 2);
      const xsd::Schema base = Generate(elements, 7, datagen::Domain::kProtein,
                                        SubSeed(env_.seed, 2, k), name);
      targets_.push_back(Input{
          name, xsd::ToXsd(PerturbInPlace(base, SubSeed(env_.seed, 3, k),
                                           name))});
    }
    std::vector<Input> all = sources_;
    all.insert(all.end(), targets_.begin(), targets_.end());
    SubmitAll(links[0], all, tally, &submits_);
    ops_.clear();
    fresh_source_.assign(kSources, 1);
    fresh_target_.assign(kTargets, 1);
  }

  bool HasOp(uint64_t index) const override {
    return index < kSources * kTargets;
  }

  Outcome RunOp(size_t, uint64_t index, Link& link, double* latency_ms,
                std::string* typed_code) override {
    Op op;
    op.index = index;
    // Operation k pairs target t = k mod T with source (k div T + t) mod S:
    // for a fixed t the sources of rounds 0..S-1 are distinct, so no pair
    // repeats while k < S*T, and op 0 is PIR -> PDB.
    op.target = static_cast<size_t>(index % kTargets);
    op.source = static_cast<size_t>((index / kTargets + op.target) % kSources);
    const Clock::time_point start = Clock::now();
    Result<net::MatchPairResp> r =
        link.MatchPair(sources_[op.source].name, targets_[op.target].name);
    *latency_ms = MsBetween(start, Clock::now());
    const Outcome outcome = Classify(r, typed_code);
    op.flatten_source = fresh_source_[op.source] != 0;
    op.flatten_target = fresh_target_[op.target] != 0;
    fresh_source_[op.source] = 0;
    fresh_target_[op.target] = 0;
    if (outcome == Outcome::kOk) {
      op.resp = std::move(*r);
      ops_.push_back(std::move(op));
    }
    return outcome;
  }

  Verdict Verify(ThreadPool* pool) override {
    Verdict verdict;
    EnsureRefs(pool);
    verdict.wrong_setup +=
        CheckSubmits(source_refs_, submits_, 0, &verdict.report) +
        CheckSubmits(target_refs_, submits_, kSources, &verdict.report);

    const core::QMatch reference;
    std::vector<std::string> why(ops_.size());
    pool->ParallelFor(ops_.size(), [&](size_t i) {
      const Op& op = ops_[i];
      const MatchResult ref = reference.Match(source_refs_[op.source],
                                              target_refs_[op.target]);
      if (!MatchesReference(op.resp, ref, &why[i])) return;
      if (op.source == 0 && op.target == 0 &&
          !MatchesGolden(env_, "Protein", "PIR", "PDB", op.resp, &why[i])) {
        return;
      }
      why[i].clear();
    });
    for (size_t i = 0; i < ops_.size(); ++i) {
      if (why[i].empty()) continue;
      verdict.wrong_ops.emplace_back(0, ops_[i].index);
      verdict.report += StrFormat("op %llu %s -> %s: %s\n",
                                  static_cast<unsigned long long>(ops_[i].index),
                                  sources_[ops_[i].source].name.c_str(),
                                  targets_[ops_[i].target].name.c_str(),
                                  why[i].c_str());
    }
    return verdict;
  }

  void PrepareReplay(const Env& env) override {
    ThreadPool pool(3);
    EnsureRefs(&pool);
    mirror_ = std::make_unique<Mirror>(env);
  }

  void Replay(size_t, uint64_t index, uint64_t op_id, uint32_t tid,
              SpanLog* log) override {
    if (ops_.empty() || ops_.back().index != index) return;  // failed op
    const Op& op = ops_.back();
    mirror_->ReplayMiss(source_refs_[op.source], target_refs_[op.target],
                        op.flatten_source, op.flatten_target, op_id, tid, log);
  }

  ReplayCounts replay_counts() const override {
    return mirror_ ? mirror_->counts() : ReplayCounts{};
  }

 private:
  struct Op {
    uint64_t index = 0;
    size_t source = 0;
    size_t target = 0;
    bool flatten_source = false;
    bool flatten_target = false;
    net::MatchPairResp resp;
  };

  void EnsureRefs(ThreadPool* pool) {
    if (!source_refs_.empty()) return;
    source_refs_ = ParseAll(sources_, pool);
    target_refs_ = ParseAll(targets_, pool);
  }

  const Env env_;
  std::vector<Input> sources_;
  std::vector<Input> targets_;
  std::vector<net::SubmitSchemaResp> submits_;
  std::vector<char> fresh_source_;
  std::vector<char> fresh_target_;
  std::vector<Op> ops_;
  std::vector<xsd::Schema> source_refs_;
  std::vector<xsd::Schema> target_refs_;
  std::unique_ptr<Mirror> mirror_;
};

// ---------------------------------------------------------------------------
// warm_mixed
// ---------------------------------------------------------------------------

/// Two connections over a primed cache. Four of every five requests are a
/// small corpus pair (PO, Books, DCMD, XBench, Library/Human, both
/// directions); the fifth is one of three Protein-scale pairs (PIR -> PDB,
/// a perturbed PIR -> PDB, PIR -> a perturbed PDB). Every request hits.
class WarmMixed : public Workload {
 public:
  static constexpr size_t kSmallPairs = 10;
  static constexpr size_t kProteinPairs = 3;

  explicit WarmMixed(const Env& env) : env_(env) {}

  size_t connections() const override { return 2; }
  bool all_hits() const override { return true; }

  void Setup(std::vector<Link>& links, Tally* tally) override {
    inputs_.clear();
    for (const std::string& name : SmallCorpus()) {
      inputs_.push_back(CorpusInput(env_, name));
    }
    const Input pir = CorpusInput(env_, "PIR");
    const Input pdb = CorpusInput(env_, "PDB");
    inputs_.push_back(
        Input{"PIRg", xsd::ToXsd(PerturbInPlace(
                          Parse(pir), SubSeed(env_.seed, 5, 0), "PIRg"))});
    inputs_.push_back(
        Input{"PDBg", xsd::ToXsd(PerturbInPlace(
                          Parse(pdb), SubSeed(env_.seed, 5, 1), "PDBg"))});
    inputs_.push_back(pir);
    inputs_.push_back(pdb);
    SubmitAll(links[0], inputs_, tally, &submits_);

    pairs_.clear();
    const std::vector<std::string>& small = SmallCorpus();
    for (size_t k = 0; k < small.size(); k += 2) {
      pairs_.emplace_back(small[k], small[k + 1]);
      pairs_.emplace_back(small[k + 1], small[k]);
    }
    pairs_.emplace_back("PIR", "PDB");
    pairs_.emplace_back("PIRg", "PDB");
    pairs_.emplace_back("PIR", "PDBg");
    primed_.assign(pairs_.size(), net::MatchPairResp{});
    for (size_t p = 0; p < pairs_.size(); ++p) {
      Result<net::MatchPairResp> r =
          links[0].MatchPair(pairs_[p].first, pairs_[p].second);
      std::string code;
      const Outcome outcome = Classify(r, &code);
      tally->Add(outcome, code);
      if (outcome == Outcome::kOk) primed_[p] = std::move(*r);
    }
    for (size_t c = 0; c < 2; ++c) {
      offset_[c] = static_cast<size_t>(SubSeed(env_.seed, 6, c) % kSmallPairs);
    }
  }

  bool HasOp(uint64_t) const override { return true; }

  Outcome RunOp(size_t conn, uint64_t index, Link& link, double* latency_ms,
                std::string* typed_code) override {
    const auto& [source, target] = pairs_[PairOf(conn, index)];
    const Clock::time_point start = Clock::now();
    Result<net::MatchPairResp> r = link.MatchPair(source, target);
    *latency_ms = MsBetween(start, Clock::now());
    const Outcome outcome = Classify(r, typed_code);
    if (outcome == Outcome::kOk && !SameAnswer(*r, primed_[PairOf(conn, index)])) {
      return Outcome::kWrong;
    }
    return outcome;
  }

  Verdict Verify(ThreadPool* pool) override {
    Verdict verdict;
    EnsureRefs(pool);
    verdict.wrong_setup += CheckSubmits(refs_, submits_, 0, &verdict.report);
    const core::QMatch reference;
    std::vector<std::string> why(pairs_.size());
    pool->ParallelFor(pairs_.size(), [&](size_t p) {
      const MatchResult ref =
          reference.Match(Ref(pairs_[p].first), Ref(pairs_[p].second));
      if (!MatchesReference(primed_[p], ref, &why[p])) return;
      if (pairs_[p] == std::make_pair(std::string("PO1"), std::string("PO2")) &&
          StrFormat("%.12g", primed_[p].schema_qom) != "0.931688888889") {
        why[p] = "PO1 -> PO2 schema_qom is not the golden 0.931688888889";
        return;
      }
      if (pairs_[p] == std::make_pair(std::string("PIR"), std::string("PDB"))) {
        MatchesGolden(env_, "Protein", "PIR", "PDB", primed_[p], &why[p]);
      }
    });
    for (size_t p = 0; p < pairs_.size(); ++p) {
      if (why[p].empty()) continue;
      ++verdict.wrong_setup;
      verdict.report += "priming " + pairs_[p].first + " -> " +
                        pairs_[p].second + ": " + why[p] + "\n";
    }
    return verdict;
  }

  void PrepareReplay(const Env& env) override {
    ThreadPool pool(3);
    EnsureRefs(&pool);
    mirror_ = std::make_unique<Mirror>(env);
    for (const auto& [source, target] : pairs_) {
      mirror_->Prime(Ref(source), Ref(target));
    }
  }

  void Replay(size_t conn, uint64_t index, uint64_t op_id, uint32_t tid,
              SpanLog* log) override {
    const auto& [source, target] = pairs_[PairOf(conn, index)];
    mirror_->ReplayHit(Ref(source), Ref(target), op_id, tid, log);
  }

  ReplayCounts replay_counts() const override {
    return mirror_ ? mirror_->counts() : ReplayCounts{};
  }

 private:
  size_t PairOf(size_t conn, uint64_t index) const {
    const uint64_t round = index / 5;
    const uint64_t slot = index % 5;
    if (slot == 4) return kSmallPairs + (round + conn) % kProteinPairs;
    return static_cast<size_t>((4 * round + slot + offset_[conn]) % kSmallPairs);
  }

  void EnsureRefs(ThreadPool* pool) {
    if (!refs_.empty()) return;
    refs_ = ParseAll(inputs_, pool);
    for (size_t i = 0; i < refs_.size(); ++i) ref_index_[inputs_[i].name] = i;
  }

  const xsd::Schema& Ref(const std::string& name) const {
    return refs_[ref_index_.at(name)];
  }

  const Env env_;
  std::vector<Input> inputs_;
  std::vector<net::SubmitSchemaResp> submits_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::vector<net::MatchPairResp> primed_;
  size_t offset_[2] = {0, 0};
  std::vector<xsd::Schema> refs_;
  std::map<std::string, size_t> ref_index_;
  std::unique_ptr<Mirror> mirror_;
};

// ---------------------------------------------------------------------------
// corpus_query
// ---------------------------------------------------------------------------

/// One connection. The repository holds 24 seeded generated schemas (mixed
/// domains, 20 to 300 elements) plus the ten small corpus schemas. One
/// operation submits a fresh 10- to 45-element query (sizes cycle in steps
/// of 5) under the fixed name "query", replacing the previous one, then
/// runs MatchCorpus on it: every candidate misses the cache, stores an
/// entry, appends to the journal and evicts under the 128-entry LRU.
class CorpusQuery : public Workload {
 public:
  static constexpr size_t kGenerated = 24;
  /// Queries cycle through a ring this long. A query comes back only after
  /// 63 others have pushed its 34 cache entries out of the 128-entry LRU,
  /// so it is cold again.
  static constexpr size_t kQueries = 64;
  static constexpr const char* kQueryName = "query";

  explicit CorpusQuery(const Env& env) : env_(env) {}

  size_t connections() const override { return 1; }
  bool all_hits() const override { return false; }

  void Setup(std::vector<Link>& links, Tally* tally) override {
    repo_.clear();
    for (size_t k = 0; k < kGenerated; ++k) {
      const std::string name = StrFormat("repo%02zu", k);
      const size_t elements = 20 + k * (300 - 20) / (kGenerated - 1);
      repo_.push_back(Input{
          name, xsd::ToXsd(Generate(elements, 3 + k % 4, DomainOf(k),
                                    SubSeed(env_.seed, 7, k), name))});
    }
    for (const std::string& name : SmallCorpus()) {
      repo_.push_back(CorpusInput(env_, name));
    }
    // The daemon's corpus loop walks its name-sorted schema map.
    std::sort(repo_.begin(), repo_.end(),
              [](const Input& a, const Input& b) { return a.name < b.name; });
    queries_.clear();
    for (size_t q = 0; q < kQueries; ++q) {
      const size_t elements = 10 + (q % 8) * 5;
      queries_.push_back(xsd::ToXsd(Generate(elements, 3 + q % 4,
                                             DomainOf(q / 8 + q),
                                             SubSeed(env_.seed, 8, q),
                                             kQueryName)));
    }
    SubmitAll(links[0], repo_, tally, &submits_);
    ops_.clear();
  }

  bool HasOp(uint64_t) const override { return true; }

  Outcome RunOp(size_t, uint64_t index, Link& link, double* latency_ms,
                std::string* typed_code) override {
    Op op;
    op.index = index;
    op.query = static_cast<size_t>(index % kQueries);
    const Clock::time_point start = Clock::now();
    Result<net::SubmitSchemaResp> submitted =
        link.SubmitSchema(kQueryName, queries_[op.query]);
    Outcome outcome = Classify(submitted, typed_code);
    Result<net::MatchCorpusResp> corpus = Status::Internal("not sent");
    if (outcome == Outcome::kOk) {
      corpus = link.MatchCorpus(kQueryName);
      outcome = Classify(corpus, typed_code);
    }
    *latency_ms = MsBetween(start, Clock::now());
    if (outcome == Outcome::kOk) {
      op.submit = std::move(*submitted);
      op.corpus = std::move(*corpus);
      ops_.push_back(std::move(op));
    }
    return outcome;
  }

  Verdict Verify(ThreadPool* pool) override {
    Verdict verdict;
    EnsureRefs(pool);
    verdict.wrong_setup +=
        CheckSubmits(repo_refs_, submits_, 0, &verdict.report);

    // Reference entries of every query the measured phase used.
    std::vector<size_t> used;
    for (const Op& op : ops_) used.push_back(op.query);
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    std::vector<xsd::Schema> query_refs(used.size());
    pool->ParallelFor(used.size(), [&](size_t u) {
      query_refs[u] = Parse(Input{kQueryName, queries_[used[u]]});
    });
    const size_t n = repo_refs_.size();
    std::vector<MatchResult> refs(used.size() * n);
    const core::QMatch reference;
    pool->ParallelFor(refs.size(), [&](size_t i) {
      refs[i] = reference.Match(query_refs[i / n], repo_refs_[i % n]);
    });

    for (const Op& op : ops_) {
      const size_t u = static_cast<size_t>(
          std::lower_bound(used.begin(), used.end(), op.query) - used.begin());
      std::string why;
      if (op.submit.fingerprint != xsd::SchemaFingerprint(query_refs[u]) ||
          op.submit.node_count != query_refs[u].NodeCount()) {
        why = "query submit disagrees with reference";
      } else if (op.corpus.entries.size() != n) {
        why = StrFormat("%zu corpus entries, expected %zu",
                        op.corpus.entries.size(), n);
      } else {
        for (size_t c = 0; c < n && why.empty(); ++c) {
          const net::WireCorpusEntry& e = op.corpus.entries[c];
          const MatchResult& ref = refs[u * n + c];
          if (e.name != repo_[c].name || e.code != 0 ||
              !SameBits(e.schema_qom, ref.schema_qom) ||
              e.correspondences != ref.correspondences.size()) {
            why = "candidate " + e.name + " differs from reference";
          }
        }
      }
      if (why.empty()) continue;
      verdict.wrong_ops.emplace_back(0, op.index);
      verdict.report += StrFormat("op %llu: %s\n",
                                  static_cast<unsigned long long>(op.index),
                                  why.c_str());
    }
    return verdict;
  }

  void PrepareReplay(const Env& env) override {
    ThreadPool pool(3);
    EnsureRefs(&pool);
    mirror_ = std::make_unique<Mirror>(env);
  }

  void Replay(size_t, uint64_t index, uint64_t op_id, uint32_t tid,
              SpanLog* log) override {
    if (ops_.empty() || ops_.back().index != index) return;  // failed op
    xsd::Schema query;
    log->Time("xsd.parse", op_id, tid, [&] {
      query = Parse(Input{kQueryName, queries_[ops_.back().query]});
    });
    for (size_t c = 0; c < repo_refs_.size(); ++c) {
      mirror_->ReplayMiss(query, repo_refs_[c], c == 0, false, op_id, tid, log);
    }
  }

  ReplayCounts replay_counts() const override {
    return mirror_ ? mirror_->counts() : ReplayCounts{};
  }

 private:
  struct Op {
    uint64_t index = 0;
    size_t query = 0;
    net::SubmitSchemaResp submit;
    net::MatchCorpusResp corpus;
  };

  void EnsureRefs(ThreadPool* pool) {
    if (repo_refs_.empty()) repo_refs_ = ParseAll(repo_, pool);
  }

  const Env env_;
  std::vector<Input> repo_;
  std::vector<std::string> queries_;
  std::vector<net::SubmitSchemaResp> submits_;
  std::vector<Op> ops_;
  std::vector<xsd::Schema> repo_refs_;
  std::unique_ptr<Mirror> mirror_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Env& env) {
  if (name == "cold_protein") return std::make_unique<ColdProtein>(env);
  if (name == "warm_mixed") return std::make_unique<WarmMixed>(env);
  if (name == "corpus_query") return std::make_unique<CorpusQuery>(env);
  return nullptr;
}

}  // namespace qmbench
