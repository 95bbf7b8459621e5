// Batch-formation outcome for the serving loop.
//
// A free worker lane takes its window straight from the admission queue
// (BoundedQueue::pop_window): the first request, then the requests already
// queued, until the first of: node_budget nodes, max_graphs members, an
// empty queue (drain, once shutdown closed it), or the lane's fair share,
// ceil(queued / lanes). The share keeps a lane that frees up just after
// another from finding the queue emptied; without it a closed loop can lock
// into one lane forwarding large windows while the other idles. CloseReason
// names the outcome for stats and traces.
//
// The lane then packs the window into merge groups of similar level depth
// with gnn::plan_node_batches_by_depth, so merged forwards waste fewer masked
// tail levels on shallow members. Packing only permutes batch composition,
// and merged forwards are bit-exact per member regardless of composition, so
// it can never change served results.
#pragma once

namespace deepgate::serve {

/// What ended an admission window.
enum class CloseReason { kBudget, kMaxGraphs, kEmpty, kShare, kDrain };

const char* close_reason_name(CloseReason reason);

}  // namespace deepgate::serve
