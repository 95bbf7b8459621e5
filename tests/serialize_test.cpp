#include "nn/serialize.hpp"

#include "core/deepgate.hpp"
#include "nn/gru.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

namespace dg::nn {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, RoundTripExactValues) {
  util::Rng rng(1);
  Linear lin(4, 3, rng);
  NamedParams params;
  lin.collect(params, "lin");
  const std::string path = temp_path("dg_roundtrip.dgtp");
  ASSERT_TRUE(save_params(path, params));

  // Perturb, then load back — values must be bit-exact.
  const Matrix original = params[0].second.value();
  params[0].second.mutable_value().fill(0.0F);
  ASSERT_TRUE(load_params(path, params));
  const Matrix& restored = params[0].second.value();
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(original.data()[i], restored.data()[i]);
  std::remove(path.c_str());
}

TEST(Serialize, GruFullStateRoundTrip) {
  util::Rng rng(2);
  GruCell gru(5, 7, rng);
  NamedParams params;
  gru.collect(params, "gru");
  const std::string path = temp_path("dg_gru.dgtp");
  ASSERT_TRUE(save_params(path, params));
  util::Rng rng2(99);
  GruCell gru2(5, 7, rng2);
  NamedParams params2;
  gru2.collect(params2, "gru");
  ASSERT_TRUE(load_params(path, params2));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Matrix& a = params[i].second.value();
    const Matrix& b = params2[i].second.value();
    for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a.data()[k], b.data()[k]);
  }
  std::remove(path.c_str());
}

TEST(Serialize, MissingNameFails) {
  util::Rng rng(3);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "a");
  const std::string path = temp_path("dg_missing.dgtp");
  ASSERT_TRUE(save_params(path, params));

  Linear other(2, 2, rng);
  NamedParams renamed;
  other.collect(renamed, "b");  // names differ
  EXPECT_FALSE(load_params(path, renamed));
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchFails) {
  util::Rng rng(4);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  const std::string path = temp_path("dg_shape.dgtp");
  ASSERT_TRUE(save_params(path, params));

  Linear bigger(3, 3, rng);
  NamedParams params2;
  bigger.collect(params2, "lin");
  EXPECT_FALSE(load_params(path, params2));
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbageFile) {
  const std::string path = temp_path("dg_garbage.dgtp");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  util::Rng rng(5);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

std::vector<Matrix> param_values(const NamedParams& params) {
  std::vector<Matrix> values;
  for (const auto& [name, t] : params) values.push_back(t.value());
  return values;
}

bool bitwise_same(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!a[i].same_shape(b[i]) ||
        !std::equal(a[i].data(), a[i].data() + a[i].size(), b[i].data()))
      return false;
  return true;
}

// A checkpoint lacking only the model's LAST parameter must be rejected
// before anything is written: every parameter stays bitwise as it was.
TEST(Serialize, FailedLoadLeavesEveryParameterUnchanged) {
  deepgate::Options source_options;
  source_options.model.seed = 1;
  const deepgate::Engine source(source_options);
  NamedParams saved = source.model().named_params();
  saved.pop_back();
  const std::string path = temp_path("dg_missing_last.dgtp");
  ASSERT_TRUE(save_params(path, saved));

  deepgate::Options target_options;
  target_options.model.seed = 2;
  deepgate::Engine target(target_options);
  const std::vector<Matrix> before = param_values(target.model().named_params());
  ASSERT_FALSE(bitwise_same(before, param_values(source.model().named_params())));
  EXPECT_FALSE(target.load(path));
  EXPECT_TRUE(bitwise_same(before, param_values(target.model().named_params())));
  std::remove(path.c_str());
}

// A short file whose entry header claims a 65536 x 65536 matrix (16 GiB) is
// rejected from its length alone, before any allocation.
TEST(Serialize, RejectsSizeFieldBeyondFileLength) {
  const std::string path = temp_path("dg_huge_header.dgtp");
  {
    std::ofstream out(path, std::ios::binary);
    const auto put = [&](auto v) { out.write(reinterpret_cast<const char*>(&v), sizeof(v)); };
    out.write("DGTP", 4);
    put(std::uint32_t{1});  // version
    put(std::uint32_t{1});  // count
    put(std::uint32_t{1});  // name_len
    out.write("w", 1);
    put(std::int32_t{65536});
    put(std::int32_t{65536});
    put(1.0F);
  }
  util::Rng rng(7);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params(path, params));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails) {
  util::Rng rng(6);
  Linear lin(2, 2, rng);
  NamedParams params;
  lin.collect(params, "lin");
  EXPECT_FALSE(load_params("/nonexistent/path/x.dgtp", params));
}

}  // namespace
}  // namespace dg::nn
