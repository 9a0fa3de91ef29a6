#include <gtest/gtest.h>

#include <cstdio>

#include "kvstore/kvstore.h"
#include "nn/model.h"
#include "util/file.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

// ------------------------------------------------------------- util/file

TEST(FileTest, WriteReadRoundTrip) {
  const std::string path = "/tmp/marlin_file_test.bin";
  const std::string payload = std::string("binary\0data\n", 12) + "tail";
  ASSERT_TRUE(WriteFileAtomic(path, payload).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  std::remove(path.c_str());
}

TEST(FileTest, ReadMissingFileIsNotFound) {
  auto result = ReadFile("/tmp/definitely_not_here_marlin");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FileTest, AtomicWriteReplacesExisting) {
  const std::string path = "/tmp/marlin_file_test2.bin";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(*ReadFile(path), "second");
  std::remove(path.c_str());
}

// --------------------------------------------------------- KvStore dump

TEST(KvStoreDumpTest, RoundTripStringsAndHashes) {
  VirtualClock clock(1000);
  KvStore store(&clock);
  store.Set("plain", "value with spaces\nand newline");
  store.Set("ttl", "soon");
  store.Expire("ttl", 5000);
  store.HSet("hash", "f1", "v1");
  store.HSet("hash", "f|2", "v 2");

  const std::string dump = store.Dump();
  KvStore restored(&clock);
  ASSERT_TRUE(restored.Restore(dump).ok());
  EXPECT_EQ(*restored.Get("plain"), "value with spaces\nand newline");
  EXPECT_EQ(*restored.Get("ttl"), "soon");
  EXPECT_EQ(*restored.HGet("hash", "f1"), "v1");
  EXPECT_EQ(*restored.HGet("hash", "f|2"), "v 2");
  EXPECT_EQ(restored.Size(), 3u);
  // TTL deadline survives the round trip.
  clock.AdvanceTo(clock.Now() + 10000);
  EXPECT_FALSE(restored.Exists("ttl"));
  EXPECT_TRUE(restored.Exists("plain"));
}

TEST(KvStoreDumpTest, RestoreSkipsAlreadyExpired) {
  VirtualClock clock(0);
  KvStore store(&clock);
  store.Set("gone", "x");
  store.Expire("gone", 100);
  store.Set("kept", "y");
  const std::string dump = store.Dump();
  clock.AdvanceTo(clock.Now() + 200);
  KvStore restored(&clock);
  ASSERT_TRUE(restored.Restore(dump).ok());
  EXPECT_FALSE(restored.Exists("gone"));
  EXPECT_TRUE(restored.Exists("kept"));
}

TEST(KvStoreDumpTest, RestoreClearsExistingKeys) {
  KvStore store;
  store.Set("old", "data");
  KvStore source;
  source.Set("new", "data");
  ASSERT_TRUE(store.Restore(source.Dump()).ok());
  EXPECT_FALSE(store.Exists("old"));
  EXPECT_TRUE(store.Exists("new"));
}

TEST(KvStoreDumpTest, RejectsCorruptBlobs) {
  KvStore store;
  EXPECT_FALSE(store.Restore("").ok());
  EXPECT_FALSE(store.Restore("NOTADUMP\n").ok());
  EXPECT_FALSE(store.Restore("MARLINKV1\nX 0 3 abc\n").ok());
  EXPECT_FALSE(store.Restore("MARLINKV1\nS 0 999 abc\n").ok());
}

TEST(KvStoreDumpTest, EmptyStoreRoundTrips) {
  KvStore store;
  KvStore restored;
  ASSERT_TRUE(restored.Restore(store.Dump()).ok());
  EXPECT_EQ(restored.Size(), 0u);
}

// ------------------------------------------------------ SvrfModel files

TEST(SvrfModelFileTest, SaveLoadPreservesForecasts) {
  SvrfModel::Config config;
  config.hidden_dim = 6;
  config.dense_dim = 6;
  SvrfModel model(config);
  const std::string path = "/tmp/marlin_svrf_test.model";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  SvrfModel loaded(config);
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  SvrfInput input;
  for (auto& d : input.displacements) d = {0.001, 0.002, 60.0};
  input.anchor = LatLng{38.0, 24.0};
  auto a = model.Forecast(input);
  auto b = loaded.Forecast(input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i <= kSvrfOutputSteps; ++i) {
    EXPECT_DOUBLE_EQ(a->points[i].position.lat_deg,
                     b->points[i].position.lat_deg);
  }
  std::remove(path.c_str());
}

TEST(SvrfModelFileTest, LoadMissingFileFails) {
  SvrfModel model;
  EXPECT_FALSE(model.LoadFromFile("/tmp/no_such_model_here").ok());
}

// -------------------------------------------------- Trainer schedule

std::vector<SeqSample> TinyDataset(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SeqSample> dataset(n);
  for (auto& sample : dataset) {
    sample.steps.resize(4);
    double sum = 0.0;
    for (auto& step : sample.steps) {
      const double x = rng.Uniform(-0.5, 0.5);
      step = {x};
      sum += x;
    }
    sample.target = {sum};
  }
  return dataset;
}

TEST(TrainerScheduleTest, EarlyStoppingHaltsBeforeEpochBudget) {
  SequenceRegressor::Config config;
  config.input_dim = 1;
  config.hidden_dim = 4;
  config.dense_dim = 4;
  config.output_dim = 1;
  SequenceRegressor model(config);
  const auto train = TinyDataset(200, 1);
  const auto validation = TinyDataset(50, 2);
  Trainer::Options options;
  options.epochs = 200;  // generous budget
  options.learning_rate = 5e-3;
  options.early_stopping_patience = 3;
  options.l1_lambda = 0.0;
  Trainer trainer(options);
  std::vector<double> losses;
  trainer.Fit(&model, train, validation, &losses);
  // Converges on this trivial task long before 200 epochs.
  EXPECT_LT(losses.size(), 200u);
  EXPECT_GE(losses.size(), 4u);
}

TEST(TrainerScheduleTest, LrDecayStillLearns) {
  SequenceRegressor::Config config;
  config.input_dim = 1;
  config.hidden_dim = 4;
  config.dense_dim = 4;
  config.output_dim = 1;
  SequenceRegressor model(config);
  const auto train = TinyDataset(200, 3);
  const auto test = TinyDataset(50, 4);
  const double before = Trainer::Mse(&model, test);
  Trainer::Options options;
  options.epochs = 40;
  options.learning_rate = 1e-2;
  options.lr_decay = 0.9;
  options.l1_lambda = 0.0;
  Trainer trainer(options);
  trainer.Fit(&model, train);
  EXPECT_LT(Trainer::Mse(&model, test), before * 0.3);
}

}  // namespace
}  // namespace marlin
