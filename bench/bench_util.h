#ifndef MARLIN_BENCH_BENCH_UTIL_H_
#define MARLIN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ais/preprocess.h"
#include "ais/types.h"
#include "sim/fleet.h"
#include "geo/world.h"
#include "util/clock.h"
#include "util/rng.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace bench {

/// Reads an integer knob from the environment (benches scale up/down via
/// MARLIN_* variables; defaults are sized for a single-core run).
inline int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

/// Builds the supervised S-VRF dataset from a simulated fleet, split
/// 50/25/25 like §6.1.
struct SvrfDataset {
  std::vector<SvrfSample> train;
  std::vector<SvrfSample> validation;
  std::vector<SvrfSample> test;
};

inline SvrfDataset BuildSvrfDataset(const World& world, int vessels,
                                    double hours, int stride, uint64_t seed) {
  FleetConfig config;
  config.num_vessels = vessels;
  config.seed = seed;
  FleetSimulator fleet(const_cast<World*>(&world), config);
  const auto tracks = fleet.RunTracks(hours * 3600.0);
  std::vector<SvrfSample> all;
  SampleBuilderOptions options;
  options.stride = stride;
  for (const auto& [mmsi, track] : tracks) {
    const auto samples = BuildSvrfSamples(track, options);
    all.insert(all.end(), samples.begin(), samples.end());
  }
  // Shuffle deterministically, then split 50/25/25.
  Rng rng(seed ^ 0xABCDEF);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.UniformInt(static_cast<uint64_t>(i))]);
  }
  SvrfDataset dataset;
  const size_t half = all.size() / 2;
  const size_t three_quarters = all.size() * 3 / 4;
  dataset.train.assign(all.begin(), all.begin() + static_cast<long>(half));
  dataset.validation.assign(all.begin() + static_cast<long>(half),
                            all.begin() + static_cast<long>(three_quarters));
  dataset.test.assign(all.begin() + static_cast<long>(three_quarters),
                      all.end());
  return dataset;
}

/// Shared S-VRF training warmup for the pipeline benches (fig6, the
/// ablations): a compact BiLSTM trained briefly with the common optimizer
/// settings. One copy of the hidden/epochs/lr block instead of one per
/// bench.
struct SvrfTrainSpec {
  int hidden_dim = 12;
  int epochs = 6;
  int batch_size = 64;
  double learning_rate = 3e-3;
  double l1_lambda = 0.0;
};

inline double TrainSvrf(SvrfModel* model,
                        const std::vector<SvrfSample>& train,
                        const std::vector<SvrfSample>& validation,
                        const SvrfTrainSpec& spec) {
  Trainer::Options options;
  options.epochs = spec.epochs;
  options.batch_size = spec.batch_size;
  options.learning_rate = spec.learning_rate;
  options.l1_lambda = spec.l1_lambda;
  return model->Train(train, validation, options);
}

inline std::shared_ptr<SvrfModel> TrainCompactSvrf(const SvrfDataset& data,
                                                   const SvrfTrainSpec& spec) {
  SvrfModel::Config config;
  config.hidden_dim = spec.hidden_dim;
  config.dense_dim = spec.hidden_dim;
  auto model = std::make_shared<SvrfModel>(config);
  TrainSvrf(model.get(), data.train, {}, spec);
  return model;
}

/// The shared bench run loop (DESIGN.md §13), the one driver of a
/// FleetSimulator:
///
///   for (step) { fleet.Step(&batch); ingest each; quiesce(); }
///
/// `ingest` is called per report, `quiesce` after each step's batch (the
/// backlog bound) and once more at the end. Templated so benches that never
/// touch the pipeline don't link it.
struct ReplayOptions {
  double duration_sec = 0.0;
  double step_sec = 20.0;
};

struct ReplayResult {
  int64_t messages = 0;
  double wall_sec = 0.0;
};

template <typename IngestFn, typename QuiesceFn>
ReplayResult ReplayFleet(FleetSimulator* fleet, const ReplayOptions& options,
                         IngestFn&& ingest, QuiesceFn&& quiesce) {
  ReplayResult result;
  Stopwatch wall;
  const int steps = static_cast<int>(options.duration_sec / options.step_sec);
  std::vector<AisPosition> batch;
  for (int step = 0; step < steps; ++step) {
    batch.clear();
    fleet->Step(&batch);
    for (const AisPosition& report : batch) {
      ingest(report);
      ++result.messages;
    }
    quiesce();
  }
  quiesce();
  result.wall_sec = wall.ElapsedMillis() / 1000.0;
  return result;
}

/// Replays a pre-generated message vector through `ingest` + one final
/// `quiesce` (the ablation sweeps' inner loop). Returns wall seconds.
template <typename IngestFn, typename QuiesceFn>
double ReplayMessages(const std::vector<AisPosition>& messages,
                      IngestFn&& ingest, QuiesceFn&& quiesce) {
  Stopwatch wall;
  for (const AisPosition& report : messages) ingest(report);
  quiesce();
  return wall.ElapsedMillis() / 1000.0;
}

}  // namespace bench
}  // namespace marlin

#endif  // MARLIN_BENCH_BENCH_UTIL_H_
