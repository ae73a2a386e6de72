// schema_search: the paper's Section 1 retrieval scenario end to end —
// given a *query schema*, rank a heterogeneous repository of sources (XSD
// schemas and schemaless XML documents) by Quality of Match, so a query
// engine knows which source can answer the query.
//
// The queries run through the parallel MatchEngine: each query fans its
// candidate matches out across the worker pool, and the bounded LRU result
// cache makes repeated queries against the same repository near-free (the
// second pass below is served entirely from cache).
//
// Run: ./schema_search [--metrics-out=<file>] [--trace-out=<file>]

#include <algorithm>
#include <cstdio>

#include "core/engine.h"
#include "datagen/corpus.h"
#include "obs/obs.h"
#include "xsd/infer.h"

namespace {

// Two "web documents" without schemas, lifted via inference.
constexpr const char* kFeedXml = R"(<feed>
  <post id="1"><headline>Schema matching 101</headline>
    <author>J. Doe</author><published>2004-05-01</published></post>
  <post id="2"><headline>XML on the web</headline>
    <author>A. Smith</author><published>2004-06-11</published></post>
</feed>)";

constexpr const char* kShopXml = R"(<shop>
  <product sku="A-1"><name>Widget</name><price>9.99</price>
    <stock>4</stock></product>
  <product sku="B-2"><name>Gadget</name><price>19.99</price>
    <stock>0</stock></product>
</shop>)";

}  // namespace

int main(int argc, char** argv) {
  using namespace qmatch;

  obs::CliSink obs_sink;
  for (int i = 1; i < argc; ++i) {
    if (!obs_sink.TryParse(argv[i])) {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }

  // Build the repository: corpus schemas + schemas inferred from raw XML.
  struct Source {
    std::string name;
    xsd::Schema schema;
  };
  std::vector<Source> repository;
  for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
    if (entry.name == "PDB") continue;  // keep the demo output readable
    repository.push_back({entry.name, entry.make()});
  }
  for (auto [name, xml] : {std::pair{"WebFeed", kFeedXml},
                           std::pair{"WebShop", kShopXml}}) {
    Result<xsd::Schema> inferred = xsd::InferSchemaFromXml(xml);
    if (inferred.ok()) {
      repository.push_back({name, std::move(inferred).value()});
    }
  }

  std::vector<const xsd::Schema*> candidates;
  candidates.reserve(repository.size());
  for (const Source& source : repository) candidates.push_back(&source.schema);

  // Query: "find sources that can answer a purchase-order query".
  core::MatchEngine engine;  // paper-default config, hardware threads
  for (int pass = 1; pass <= 2; ++pass) {
    for (const char* query_name : {"PO1", "Book"}) {
      xsd::Schema query;
      for (const datagen::CorpusEntry& entry : datagen::Corpus()) {
        if (entry.name == query_name) query = entry.make();
      }
      std::vector<MatchResult> results =
          engine.MatchOneToMany(query, candidates);
      if (pass == 2) continue;  // pass 2 only exercises the result cache
      std::printf("== query schema: %s ==\n", query_name);
      // Rank by schema QoM, ties by correspondence count then position.
      std::vector<size_t> order(results.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (results[a].schema_qom != results[b].schema_qom) {
          return results[a].schema_qom > results[b].schema_qom;
        }
        return results[a].correspondences.size() >
               results[b].correspondences.size();
      });
      int shown = 0;
      for (size_t index : order) {
        std::printf("  %-16s QoM %.3f  (%zu correspondences)\n",
                    repository[index].name.c_str(), results[index].schema_qom,
                    results[index].correspondences.size());
        if (++shown == 6) break;
      }
      std::printf("\n");
    }
  }
  core::MatchEngineCacheStats stats = engine.cache_stats();
  std::printf("engine: %zu threads, cache %zu hits / %zu misses\n",
              engine.threads(), stats.hits, stats.misses);
  Status obs_status = obs_sink.Write();
  if (!obs_status.ok()) {
    std::fprintf(stderr, "obs output failed: %s\n",
                 obs_status.ToString().c_str());
    return 1;
  }
  return 0;
}
