#include "replica/primary.h"

#include "persist/snapshot.h"
#include "replica/wire.h"

namespace qmatch::replica {

void AttachPrimary(core::MatchEngine* engine, net::ServerOptions* options,
                   ReplicationLog* log) {
  core::MatchEngine::ReplicationObserver observer;
  observer.cache = [log](const persist::CacheEntryRec& rec) {
    log->Append(static_cast<uint32_t>(RecordType::kCacheEntry), Encode(rec));
  };
  engine->SetReplicationObserver(std::move(observer));
  options->schema_observer = [log](const std::string& name,
                                   const std::string& xsd_text) {
    SchemaRec rec;
    rec.name = name;
    rec.xsd_text = xsd_text;
    log->Append(static_cast<uint32_t>(RecordType::kSchema), Encode(rec));
  };
  options->replication_log = log;
  options->role = net::Role::kPrimary;
}

}  // namespace qmatch::replica
