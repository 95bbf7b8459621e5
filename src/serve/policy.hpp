// Batch-formation outcome for the serving loop.
//
// The batcher (server.cpp) closes an admission window on the first of:
// accumulated node count >= node_budget, member count >= max_graphs, the
// oldest queued request's deadline (admission + max_batch_delay) expiring,
// or shutdown drain; CloseReason names the outcome for stats and traces.
// The closed window is then packed into merge groups of similar level depth
// by gnn::plan_node_batches_by_depth, so merged forwards waste fewer masked
// tail levels on shallow members. Packing only permutes batch composition,
// and merged forwards are bit-exact per member regardless of composition,
// so it can never change served results.
#pragma once

namespace deepgate::serve {

/// Why the batcher closed an admission window.
enum class CloseReason { kBudget, kMaxGraphs, kDeadline, kDrain };

const char* close_reason_name(CloseReason reason);

}  // namespace deepgate::serve
