#ifndef QMATCH_REPLICA_PRIMARY_H_
#define QMATCH_REPLICA_PRIMARY_H_

#include "core/engine.h"
#include "net/server.h"
#include "replica/log.h"

namespace qmatch::replica {

/// Wires a primary's mutation sources into a replication log, BEFORE the
/// server is constructed from `options`:
///   - the engine's ReplicationObserver appends cache journal
///     payloads (the exact bytes the local journal gets);
///   - the server's schema_observer appends schema registrations;
///   - options->replication_log points the server at the log so
///     kReplicaSubscribe connections can stream it.
///
/// The log must outlive both the engine and the server built from
/// `options`. Detach order on shutdown: server Stop() first (it clears the
/// log's listener), then the engine may be destroyed; the observers only
/// touch the log, which is still alive.
void AttachPrimary(core::MatchEngine* engine, net::ServerOptions* options,
                   ReplicationLog* log);

}  // namespace qmatch::replica

#endif  // QMATCH_REPLICA_PRIMARY_H_
