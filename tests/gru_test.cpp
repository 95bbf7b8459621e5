// The fused no-grad GRU step (ctest label: kernels). Its two halves,
// hidden_products + step_no_grad, must equal the taped composition they
// replace, bit for bit, on every runnable backend with the arena on and
// off — GruCell::forward run with gradients recording is the oracle. A
// structural guard keeps the fused step from drifting back to the op
// chain's per-op buffers.
#include "nn/arena.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/ops.hpp"
#include "nn/simd/dispatch.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace dg::nn {
namespace {

std::vector<kern::SimdLevel> runnable_levels() {
  std::vector<kern::SimdLevel> levels;
  for (kern::SimdLevel l :
       {kern::SimdLevel::kScalar, kern::SimdLevel::kGeneric, kern::SimdLevel::kAvx2})
    if (kern::simd::available(l)) levels.push_back(l);
  return levels;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(kern::SimdLevel level) : prev_(kern::simd::set_level(level)) {}
  ~ScopedLevel() { kern::simd::set_level(prev_); }

 private:
  kern::SimdLevel prev_;
};

class ScopedArena {
 public:
  explicit ScopedArena(bool on) : prev_(arena_enabled()) { arena_set_enabled(on); }
  ~ScopedArena() { arena_set_enabled(prev_); }

 private:
  bool prev_;
};

/// Level input with exact zeros of both signs salted in (one-hot columns and
/// zero states are what the matmuls' zero-skip keys on).
Matrix salted(int rows, int cols, util::Rng& rng) {
  Matrix m = normal(rows, cols, 1.0F, rng);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const std::uint64_t r = rng.next_below(8);
    if (r == 0) m.data()[i] = 0.0F;
    if (r == 1) m.data()[i] = -0.0F;
  }
  return m;
}

/// Non-zero biases, so the bias adds are exercised (init leaves them 0).
void randomize_biases(const GruCell& gru, util::Rng& rng) {
  NamedParams params;
  gru.collect(params, "gru");
  for (auto& [name, t] : params)
    if (t.rows() == 1) t.mutable_value() = normal(1, t.cols(), 0.5F, rng);
}

Matrix taped_forward(const GruCell& gru, const Matrix& x, const Matrix& h) {
  EXPECT_TRUE(grad_enabled());
  const Tensor out = gru.forward(Tensor::leaf(x, true), Tensor::leaf(h, true));
  EXPECT_TRUE(out.requires_grad()) << "oracle must run the taped composition";
  return out.value();
}

/// The no-grad step as a sweep runs it: hidden-side products, then the
/// rest of the step, into caller-provided buffers.
Matrix fused_forward(const GruCell& gru, const Matrix& x, const Matrix& h) {
  std::vector<float> products(3 * h.size());
  std::vector<float> work(3 * h.size());
  Matrix out(h.rows(), gru.hidden_size());
  gru.hidden_products(h.data(), h.rows(), products.data());
  gru.step_no_grad(x, nullptr, h.data(), products.data(), work.data(), nullptr, out.data());
  return out;
}

TEST(GruFused, BitwiseEqualToTapedCompositionEverywhere) {
  const int hidden = 64;
  for (const int input : {64, 67}) {
    util::Rng rng(static_cast<std::uint64_t>(input));
    GruCell gru(input, hidden, rng);
    randomize_biases(gru, rng);
    for (const int rows : {0, 1, 5, 8, 33}) {
      const Matrix x = salted(rows, input, rng);
      const Matrix h = salted(rows, hidden, rng);
      for (const kern::SimdLevel level : runnable_levels()) {
        const ScopedLevel scoped_level(level);
        for (const bool arena_on : {false, true}) {
          const ScopedArena scoped_arena(arena_on);
          const std::string tag = std::string(kern::simd::level_name(level)) +
                                  " input=" + std::to_string(input) +
                                  " rows=" + std::to_string(rows) +
                                  (arena_on ? " arena" : " heap");
          const Matrix want = taped_forward(gru, x, h);
          Matrix got;
          {
            ArenaScope scope;
            got = fused_forward(gru, x, h);
            // Twice: the second call runs on recycled buffers.
            got = fused_forward(gru, x, h);
          }
          ASSERT_EQ(rows, got.rows()) << tag;
          ASSERT_EQ(hidden, got.cols()) << tag;
          if (want.size() == 0) continue;
          EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
              << tag << ": fused no-grad step differs from the taped composition";
        }
      }
    }
  }
}

// The two halves a sweep calls separately (the hidden-side products may be
// computed ahead on another thread) equal the taped composition too: with
// the whole input given, and with the input's one-hot tail folded in as a
// weight-row add (DeepGate's refed gate type), written over h in place,
// and with a row mask that leaves the masked rows' h as it was.
TEST(GruFused, HiddenProductsThenStepEqualTapedComposition) {
  const int hidden = 64;
  const int types = 3;
  util::Rng rng(5);
  GruCell gru(hidden + types, hidden, rng);
  randomize_biases(gru, rng);
  for (const int rows : {0, 1, 5, 8, 33}) {
    const Matrix m = salted(rows, hidden, rng);
    const Matrix h = salted(rows, hidden, rng);
    std::vector<int> onehot(static_cast<std::size_t>(rows));
    Matrix x(rows, hidden + types);
    for (int r = 0; r < rows; ++r) {
      onehot[static_cast<std::size_t>(r)] = static_cast<int>(rng.next_below(types));
      std::memcpy(x.row_ptr(r), m.row_ptr(r), hidden * sizeof(float));
      x.at(r, hidden + onehot[static_cast<std::size_t>(r)]) = 1.0F;
    }
    for (const kern::SimdLevel level : runnable_levels()) {
      const ScopedLevel scoped_level(level);
      const std::string tag =
          std::string(kern::simd::level_name(level)) + " rows=" + std::to_string(rows);
      const Matrix want = taped_forward(gru, x, h);
      std::vector<float> products(3 * h.size());
      std::vector<float> work(3 * h.size());
      gru.hidden_products(h.data(), rows, products.data());
      Matrix whole(rows, hidden);
      gru.step_no_grad(x, nullptr, h.data(), products.data(), work.data(), nullptr, whole.data());
      // In place, as a sweep updates its state slab: out is h.
      Matrix folded = h;
      gru.step_no_grad(m, onehot.data(), folded.data(), products.data(), work.data(), nullptr,
                       folded.data());
      // Masked, as a merged batch's level: rows with a 0 keep h.
      std::vector<std::uint8_t> update(static_cast<std::size_t>(rows));
      for (int r = 0; r < rows; ++r) update[static_cast<std::size_t>(r)] = r % 2 == 0 ? 1 : 0;
      Matrix masked = h;
      gru.step_no_grad(m, onehot.data(), masked.data(), products.data(), work.data(),
                       update.data(), masked.data());
      ASSERT_TRUE(whole.same_shape(want)) << tag;
      ASSERT_TRUE(folded.same_shape(want)) << tag;
      if (want.size() == 0) continue;
      EXPECT_EQ(0, std::memcmp(whole.data(), want.data(), want.size() * sizeof(float)))
          << tag << ": whole input";
      EXPECT_EQ(0, std::memcmp(folded.data(), want.data(), want.size() * sizeof(float)))
          << tag << ": folded one-hot, in place";
      for (int r = 0; r < rows; ++r) {
        const float* expect = update[static_cast<std::size_t>(r)] != 0 ? want.row_ptr(r) : h.row_ptr(r);
        EXPECT_EQ(0, std::memcmp(masked.row_ptr(r), expect, hidden * sizeof(float)))
            << tag << ": masked row " << r;
      }
    }
  }
}

// Saturated gates (sigmoid at 0/1, tanh at +-1) and large pre-activations
// take the same path through the backend's maps in both compositions.
TEST(GruFused, SaturatedGatesMatchTapedComposition) {
  util::Rng rng(7);
  GruCell gru(67, 64, rng);
  randomize_biases(gru, rng);
  Matrix x = salted(6, 67, rng);
  Matrix h = salted(6, 64, rng);
  for (int j = 0; j < 67; j += 4) x.at(1, j) = 90.0F;
  for (int j = 0; j < 64; j += 3) h.at(2, j) = -90.0F;
  x.at(4, 66) = 1e20F;
  h.at(5, 0) = -1e20F;
  for (const kern::SimdLevel level : runnable_levels()) {
    const ScopedLevel scoped_level(level);
    const Matrix want = taped_forward(gru, x, h);
    const Matrix got = fused_forward(gru, x, h);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
        << kern::simd::level_name(level);
  }
}

// The op chain acquires a buffer and a tape node per op (~20 or more per
// call); the fused step works only in the buffers its caller provides, so
// it acquires nothing from the arena.
TEST(GruFused, NoGradStepMakesNoArenaAcquisitions) {
  const ScopedArena scoped_arena(true);
  util::Rng rng(11);
  GruCell gru(67, 64, rng);
  const Matrix x = salted(6, 67, rng);
  const Matrix h = salted(6, 64, rng);
  std::vector<float> products(3 * h.size());
  std::vector<float> work(3 * h.size());
  Matrix out(h.rows(), gru.hidden_size());
  NoGradGuard no_grad;
  ArenaScope scope;
  const auto acquisitions = [](const ArenaStats& before) {
    const ArenaStats after = arena_stats();
    return (after.reuses - before.reuses) + (after.heap_allocs - before.heap_allocs);
  };
  const ArenaStats before = arena_stats();
  gru.hidden_products(h.data(), h.rows(), products.data());
  gru.step_no_grad(x, nullptr, h.data(), products.data(), work.data(), nullptr, out.data());
  EXPECT_EQ(acquisitions(before), 0U);
  // Control: an op in the same scope does acquire, so the arena is active
  // and the count above measured something.
  const ArenaStats before_op = arena_stats();
  const Tensor sum = add(constant(h), constant(h));
  EXPECT_GT(acquisitions(before_op), 0U) << "arena not active: the guard measured nothing";
  EXPECT_EQ(0, std::memcmp(fused_forward(gru, x, h).data(), out.data(),
                           out.size() * sizeof(float)));
}

}  // namespace
}  // namespace dg::nn
