// Shared scaffolding for the table-reproduction harnesses. Every bench binary
// runs standalone with defaults sized for a laptop CPU and honors:
//   DEEPGATE_SCALE      = tiny | small | paper
//   DEEPGATE_EPOCHS     = <int>
//   DEEPGATE_SEED       = <uint64>
//   DEEPGATE_THREADS    = <int>   (pool size used by sim/trainer/executor)
//   DEEPGATE_BENCH_JSON = <path>  (machine-readable result file for benches
//                                  that call write_json_report — currently
//                                  micro_parallel, micro_dataset and
//                                  micro_serving; the --json CLI flag takes
//                                  precedence)
#pragma once

#include "data/dataset.hpp"
#include "gnn/metrics.hpp"
#include "gnn/models.hpp"
#include "gnn/trainer.hpp"
#include "obs/obs.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace bench {

struct Context {
  dg::util::BenchScale scale = dg::util::BenchScale::kSmall;
  std::uint64_t seed = 1;
  int epochs = 8;
  float lr = 2e-3F;
  dg::gnn::ModelConfig model;

  int batch_circuits = 4;

  /// Where to write the machine-readable result (empty = don't).
  std::string json_path;

  dg::gnn::TrainConfig train_config() const {
    dg::gnn::TrainConfig cfg;
    cfg.epochs = epochs;
    cfg.lr = lr;
    cfg.seed = seed;
    cfg.batch_circuits = batch_circuits;
    return cfg;
  }
};

// -- Machine-readable output --------------------------------------------------

/// One flat measurement record; rendered as a JSON object. Values are
/// emitted verbatim, so use json_str() for anything that is not a number.
struct JsonRecord {
  std::vector<std::pair<std::string, std::string>> fields;

  JsonRecord& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");  // inf/nan are not legal JSON
    fields.emplace_back(key, buf);
    return *this;
  }
  JsonRecord& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        quoted += esc;
      } else {
        quoted += c;
      }
    }
    quoted += '"';
    fields.emplace_back(key, quoted);
    return *this;
  }
};

/// Write `{"bench": name, "scale": ..., "seed": ..., "results": [records],
/// "metrics": {...}}` to ctx.json_path. The trailing `metrics` key is the
/// obs::snapshot() at report time (cache hit rates, arena allocs, lane
/// utilization, latency histograms) so tools/bench_compare.py can trend
/// observability fields alongside throughput. No-op (returns true) when no
/// path is configured.
inline bool write_json_report(const Context& ctx, const std::string& name,
                              const std::vector<JsonRecord>& records) {
  if (ctx.json_path.empty()) return true;
  std::ofstream out(ctx.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", ctx.json_path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"" << name << "\",\n  \"scale\": \""
      << dg::util::bench_scale_name(ctx.scale) << "\",\n  \"seed\": " << ctx.seed
      << ",\n  \"results\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    {";
    const auto& fields = records[i].fields;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f > 0) out << ", ";
      out << '"' << fields[f].first << "\": " << fields[f].second;
    }
    out << '}';
  }
  out << "\n  ],\n  \"metrics\": " << dg::obs::snapshot().to_json() << "\n}\n";
  out.flush();
  return out.good();
}

/// Defaults per scale. At kPaper the hyperparameters follow Sec. IV-B
/// (d=64, T=10, 60 epochs, lr 1e-4); smaller scales shrink width and epochs
/// and heat up the learning rate so the relative comparisons still converge.
/// Pass argc/argv to honor `--json out.json`; DEEPGATE_BENCH_JSON is the
/// fallback.
inline Context make_context(int argc = 0, char** argv = nullptr) {
  Context ctx;
  ctx.scale = dg::util::bench_scale();
  ctx.seed = dg::util::env_seed(1);
  const std::string env_json = dg::util::env_str("DEEPGATE_BENCH_JSON");
  if (!env_json.empty()) ctx.json_path = env_json;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") ctx.json_path = argv[i + 1];
  switch (ctx.scale) {
    case dg::util::BenchScale::kTiny:
      ctx.model.dim = 16;
      ctx.model.iterations = 10;
      ctx.model.mlp_hidden = 12;
      ctx.epochs = dg::util::env_epochs(15);
      ctx.lr = 3e-3F;
      ctx.batch_circuits = 2;
      break;
    case dg::util::BenchScale::kSmall:
      ctx.model.dim = 32;
      ctx.model.iterations = 10;
      ctx.model.mlp_hidden = 24;
      ctx.epochs = dg::util::env_epochs(12);
      ctx.lr = 2e-3F;
      ctx.batch_circuits = 4;
      break;
    case dg::util::BenchScale::kPaper:
      ctx.model.dim = 64;
      ctx.model.iterations = 10;
      ctx.model.mlp_hidden = 32;
      ctx.epochs = dg::util::env_epochs(60);
      ctx.lr = 1e-4F;
      break;
  }
  ctx.model.seed = ctx.seed + 1000;
  return ctx;
}

inline void print_banner(const char* title, const Context& ctx) {
  std::printf("=== %s ===\n", title);
  std::printf("scale=%s  d=%d  T=%d  epochs=%d  lr=%g  seed=%llu\n\n",
              dg::util::bench_scale_name(ctx.scale), ctx.model.dim, ctx.model.iterations,
              ctx.epochs, static_cast<double>(ctx.lr),
              static_cast<unsigned long long>(ctx.seed));
}

/// Build the shared training dataset and split it 90/10 like the paper.
inline void build_split(const Context& ctx, std::vector<dg::gnn::CircuitGraph>& train,
                        std::vector<dg::gnn::CircuitGraph>& test,
                        dg::data::Dataset* full = nullptr) {
  dg::data::DatasetConfig cfg = dg::data::default_dataset_config(ctx.scale, ctx.seed);
  dg::data::Dataset ds = dg::data::build_dataset(cfg);
  ds.split(0.9, ctx.seed + 7, train, test);
  std::printf("dataset: %zu circuits (%zu train / %zu test)\n\n", ds.graphs.size(),
              train.size(), test.size());
  if (full != nullptr) *full = std::move(ds);
}

}  // namespace bench
