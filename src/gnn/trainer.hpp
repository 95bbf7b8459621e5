// Training loop: ADAM + L1 regression of per-node signal probabilities
// (Sec. III-C/IV-B), with per-circuit gradient accumulation and global-norm
// clipping for stability at the small batch sizes of the CPU reproduction.
//
// One loop serves train() and train_streaming(): epochs -> chunks ->
// batches of batch_circuits, one graph per forward. train() is that loop
// over its vector as a single chunk. A batch is split into W contiguous
// slices, one per worker; replica 0 is the model itself and replicas
// 1..W-1 are Model::clone()s that take the master's weights at each batch.
// The replica gradients are added into the master in replica order before
// the optimizer step, so a given worker count always produces the same
// result, and W = 1 is the plain sequential loop on the calling thread.
#pragma once

#include "gnn/model_common.hpp"

#include <cstdint>
#include <vector>

namespace dg::gnn {

struct TrainConfig {
  int epochs = 10;
  float lr = 1e-3F;          ///< paper: 1e-4 over 60 epochs; CPU default is
                             ///< hotter to converge in the scaled-down runs
  int batch_circuits = 8;    ///< circuits per optimizer step (grad accumulation)
  float clip_norm = 5.0F;    ///< global-norm gradient clip (0 = off)
  std::uint64_t seed = 1;    ///< shuffling
  bool verbose = false;      ///< log per-epoch loss
  int threads = 0;           ///< data-parallel workers; 0 = DEEPGATE_THREADS;
                             ///< at most batch_circuits are used
};

struct TrainResult {
  std::vector<double> epoch_loss;  ///< mean training L1 per epoch
  double seconds = 0.0;
  int threads_used = 1;            ///< resolved worker count
};

TrainResult train(Model& model, const std::vector<CircuitGraph>& train_set,
                  const TrainConfig& cfg);

/// Source of training graphs delivered chunk by chunk (e.g. disk shards via
/// data::ShardStream), so an epoch never needs the whole dataset resident.
class GraphStream {
 public:
  virtual ~GraphStream() = default;

  /// Replace `out` with the next chunk; false when the pass is exhausted.
  virtual bool next(std::vector<CircuitGraph>& out) = 0;

  /// Rewind to the first chunk (called at each epoch boundary).
  virtual void reset() = 0;
};

/// Streamed variant of train(): each epoch rewinds the stream and consumes
/// it chunk by chunk, shuffling within each chunk. Optimizer steps never
/// straddle a chunk boundary. Workers are picked as train() picks them, so
/// a single chunk holding the whole dataset reproduces train() bit-exactly
/// at any `threads`.
TrainResult train_streaming(Model& model, GraphStream& stream, const TrainConfig& cfg);

}  // namespace dg::gnn
