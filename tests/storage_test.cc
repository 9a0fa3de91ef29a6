// src/storage unit, property, and fuzz tests: CRC-framed record codec
// (random round-trips, truncation sweeps, bit flips, garbage corpora),
// segment/partition-log recovery with torn tails, prefix compaction,
// atomic snapshots, the broker's durable seam, and the journaled kvstore.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "kvstore/durable_kvstore.h"
#include "obs/metrics.h"
#include "storage/crc32.h"
#include "storage/log_storage.h"
#include "storage/partition_log.h"
#include "storage/record_io.h"
#include "storage/snapshot.h"
#include "stream/broker.h"
#include "util/clock.h"
#include "util/file.h"
#include "util/rng.h"

namespace marlin {
namespace storage {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "marlin_storage_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

LogRecord MakeRecord(int64_t offset, Rng* rng) {
  LogRecord record;
  record.offset = offset;
  record.timestamp = static_cast<TimeMicros>(rng->NextUint64() % 1'000'000);
  const size_t key_len = rng->NextUint64() % 24;
  const size_t val_len = rng->NextUint64() % 200;
  for (size_t i = 0; i < key_len; ++i) {
    record.key.push_back(static_cast<char>(rng->NextUint64() & 0xFF));
  }
  for (size_t i = 0; i < val_len; ++i) {
    record.value.push_back(static_cast<char>(rng->NextUint64() & 0xFF));
  }
  return record;
}

/// The last (active) segment file of a partition log directory.
std::string LastSegmentFile(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      segments.push_back(entry.path().string());
    }
  }
  EXPECT_FALSE(segments.empty()) << "no segment files in " << dir;
  std::sort(segments.begin(), segments.end());
  return segments.back();
}

void AppendRawBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// -- CRC ------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswerAndIncrementality) {
  // The CRC-32C check value from RFC 3720 / the Castagnoli literature.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // Seeded continuation equals one-shot over the concatenation.
  const uint32_t head = Crc32c("mari");
  EXPECT_EQ(Crc32c("time", head), Crc32c("maritime"));
}

// -- Record codec: round-trips and adversarial inputs ---------------------

TEST(RecordCodecTest, RandomRoundTripsOverRandomChunking) {
  Rng rng(0xC0DEC);
  for (int trial = 0; trial < 50; ++trial) {
    // Random record count and sizes per trial — the "chunking" dimension:
    // every trial frames a differently-shaped byte stream.
    const int n = 1 + static_cast<int>(rng.NextUint64() % 40);
    std::vector<LogRecord> records;
    std::string buffer;
    for (int i = 0; i < n; ++i) {
      records.push_back(MakeRecord(i, &rng));
      EncodeRecord(records.back(), &buffer);
    }
    RecordScanner scanner(buffer);
    LogRecord out;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(scanner.Next(&out)) << "trial " << trial << " record " << i;
      EXPECT_EQ(out, records[static_cast<size_t>(i)]);
    }
    EXPECT_FALSE(scanner.Next(&out));
    EXPECT_TRUE(scanner.clean_end());
    EXPECT_EQ(scanner.valid_bytes(), buffer.size());
  }
}

TEST(RecordCodecTest, TruncationSweepYieldsValidPrefixAndNeverCrashes) {
  Rng rng(7);
  std::string buffer;
  std::vector<size_t> boundaries;  // valid_bytes after each whole record
  for (int i = 0; i < 8; ++i) {
    EncodeRecord(MakeRecord(i, &rng), &buffer);
    boundaries.push_back(buffer.size());
  }
  // Every possible torn tail: the scanner must decode exactly the records
  // whose frames survived, flag the cut, and valid_bytes must equal the
  // last intact frame boundary (what recovery truncates to).
  for (size_t cut = 0; cut <= buffer.size(); ++cut) {
    RecordScanner scanner(std::string_view(buffer).substr(0, cut));
    LogRecord out;
    size_t decoded = 0;
    while (scanner.Next(&out)) ++decoded;
    size_t whole = 0;
    while (whole < boundaries.size() && boundaries[whole] <= cut) ++whole;
    EXPECT_EQ(decoded, whole) << "cut at " << cut;
    EXPECT_EQ(scanner.valid_bytes(), whole == 0 ? 0 : boundaries[whole - 1]);
    EXPECT_EQ(scanner.clean_end(), cut == scanner.valid_bytes());
  }
}

TEST(RecordCodecTest, EverySingleByteFlipIsRejectedOrShortens) {
  Rng rng(11);
  std::string buffer;
  std::vector<LogRecord> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(MakeRecord(i, &rng));
    EncodeRecord(records.back(), &buffer);
  }
  for (size_t pos = 0; pos < buffer.size(); ++pos) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string corrupt = buffer;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ mask);
      RecordScanner scanner(corrupt);
      LogRecord out;
      int decoded = 0;
      while (scanner.Next(&out) && decoded <= 10) {
        // Any record that does decode must be one of the originals: a CRC
        // collision from a single bit flip would be a codec bug.
        EXPECT_EQ(out, records[static_cast<size_t>(decoded)]);
        ++decoded;
      }
      // The flip kills at least the record it landed in.
      EXPECT_LT(decoded, 4) << "flip at " << pos << " mask " << int(mask);
    }
  }
}

TEST(RecordCodecTest, GarbageCorpusNeverCrashes) {
  Rng rng(0xF00D);
  LogRecord out;
  for (int trial = 0; trial < 200; ++trial) {
    std::string noise;
    const size_t len = rng.NextUint64() % 512;
    for (size_t i = 0; i < len; ++i) {
      noise.push_back(static_cast<char>(rng.NextUint64() & 0xFF));
    }
    RecordScanner scanner(noise);
    int decoded = 0;
    while (scanner.Next(&out) && decoded < 100) ++decoded;
    EXPECT_LE(scanner.valid_bytes(), noise.size());
  }
  // Adversarial length prefixes: huge, zero, and just-past-the-end.
  for (const uint32_t len : {0u, 1u, kMaxRecordBytes, 0xFFFFFFFFu}) {
    std::string hostile;
    PutU32(&hostile, len);
    PutU32(&hostile, 0xDEADBEEF);
    hostile += "short";
    RecordScanner scanner(hostile);
    EXPECT_FALSE(scanner.Next(&out));
    EXPECT_FALSE(scanner.clean_end());
  }
}

// -- PartitionLog: recovery, index, roll, compaction ----------------------

TEST(PartitionLogTest, AppendReadRoundTripAcrossReopen) {
  const std::string dir = TestDir("roundtrip");
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kNone;
  Rng rng(21);
  std::vector<LogRecord> written;
  {
    auto log = PartitionLog::Open(dir, options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 100; ++i) {
      LogRecord record = MakeRecord(i, &rng);
      auto offset = (*log)->Append(record.timestamp, record.key, record.value);
      ASSERT_TRUE(offset.ok());
      EXPECT_EQ(*offset, i);
      written.push_back(std::move(record));
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  auto log = PartitionLog::Open(dir, options);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->end_offset(), 100);
  EXPECT_EQ((*log)->recovered_records(), 100);
  EXPECT_EQ((*log)->recovered_truncated_bytes(), 0u);
  auto records = (*log)->Read(0, 1000);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ((*records)[i], written[i]);
  }
  fs::remove_all(dir);
}

TEST(PartitionLogTest, TornTailIsTruncatedAndAppendsResume) {
  const std::string dir = TestDir("torntail");
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kNone;
  {
    auto log = PartitionLog::Open(dir, options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*log)->Append(i, "k" + std::to_string(i), "v").ok());
    }
    ASSERT_TRUE((*log)->Flush().ok());
  }
  // A torn tail: half a frame header plus garbage, as a crash mid-write
  // leaves it.
  std::string torn;
  PutU32(&torn, 40);  // claims 40 payload bytes...
  torn += "only-these";  // ...delivers 10
  AppendRawBytes(LastSegmentFile(dir), torn);

  auto log = PartitionLog::Open(dir, options);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ((*log)->end_offset(), 10);
  EXPECT_GT((*log)->recovered_truncated_bytes(), 0u);
  // The file itself was truncated back to the valid prefix, so appends
  // resume exactly where the intact records end.
  auto offset = (*log)->Append(99, "k10", "v10");
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, 10);
  auto records = (*log)->Read(8, 10);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[2].key, "k10");
  fs::remove_all(dir);
}

TEST(PartitionLogTest, SparseIndexServesReadsFromArbitraryOffsets) {
  const std::string dir = TestDir("index");
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kNone;
  options.index_interval_bytes = 64;  // force many index entries
  auto log = PartitionLog::Open(dir, options);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*log)->Append(i, "key" + std::to_string(i),
                               "value" + std::to_string(i))
                    .ok());
  }
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t from = static_cast<int64_t>(rng.NextUint64() % 500);
    const int max = 1 + static_cast<int>(rng.NextUint64() % 20);
    auto records = (*log)->Read(from, max);
    ASSERT_TRUE(records.ok());
    const size_t expect =
        std::min(static_cast<size_t>(max), static_cast<size_t>(500 - from));
    ASSERT_EQ(records->size(), expect) << "from=" << from;
    for (size_t i = 0; i < records->size(); ++i) {
      EXPECT_EQ((*records)[i].offset, from + static_cast<int64_t>(i));
      EXPECT_EQ((*records)[i].key,
                "key" + std::to_string(from + static_cast<int64_t>(i)));
    }
  }
  fs::remove_all(dir);
}

TEST(PartitionLogTest, RollsSegmentsAndCompactsPrefix) {
  const std::string dir = TestDir("compact");
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kNone;
  options.segment_bytes = 512;  // force rolls every handful of records
  auto log = PartitionLog::Open(dir, options);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*log)->Append(i, "key" + std::to_string(i),
                               std::string(40, 'x'))
                    .ok());
  }
  ASSERT_GT((*log)->segment_count(), 3u);
  const size_t before = (*log)->segment_count();
  const size_t removed = (*log)->CompactPrefix(150);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ((*log)->segment_count(), before - removed);
  // Compaction only drops whole segments below the horizon: the start may
  // be earlier than the horizon, never later, and never past the end.
  EXPECT_LE((*log)->start_offset(), 150);
  EXPECT_GT((*log)->start_offset(), 0);
  EXPECT_EQ((*log)->end_offset(), 200);
  auto records = (*log)->Read((*log)->start_offset(), 1000);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(static_cast<int64_t>(records->size()),
            200 - (*log)->start_offset());
  // The compacted log recovers to the same range.
  log->reset();
  auto reopened = PartitionLog::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->end_offset(), 200);
  EXPECT_GT((*reopened)->start_offset(), 0);
  fs::remove_all(dir);
}

TEST(PartitionLogTest, MidLogCorruptionFailsClosedOrQuarantinesExplicitly) {
  const std::string dir = TestDir("midlogcorrupt");
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kNone;
  options.segment_bytes = 512;
  {
    auto log = PartitionLog::Open(dir, options);
    ASSERT_TRUE(log.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*log)->Append(i, "key" + std::to_string(i),
                                 std::string(40, 'x'))
                      .ok());
    }
    ASSERT_GT((*log)->segment_count(), 3u);
  }
  // Flip one byte in the middle of a *sealed* (non-final) segment.
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      segments.push_back(entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GT(segments.size(), 3u);
  const std::string victim = segments[1];
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long mid = static_cast<long>(fs::file_size(victim) / 2);
    ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, mid, SEEK_SET), 0);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }
  // Default: recovery refuses the gapped log with actionable advice rather
  // than bricking silently or dropping data implicitly.
  auto failed = PartitionLog::Open(dir, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("offset gap"), std::string::npos);
  EXPECT_NE(failed.status().message().find("quarantine_corrupt_suffix"),
            std::string::npos);
  // Opting in: the unreadable suffix is renamed aside, the prefix recovers,
  // and the log accepts appends again.
  options.quarantine_corrupt_suffix = true;
  auto recovered = PartitionLog::Open(dir, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GE((*recovered)->quarantined_segments(), 2u);
  const int64_t end = (*recovered)->end_offset();
  EXPECT_GT(end, 0);
  EXPECT_LT(end, 200);
  auto records = (*recovered)->Read(0, 1000);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(static_cast<int64_t>(records->size()), end);
  auto offset = (*recovered)->Append(7, "resumed", "r");
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, end);
  size_t quarantined_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".quarantined") ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, (*recovered)->quarantined_segments());
  // A second recovery (quarantine flag off again) is clean: the quarantined
  // files are ignored and the retained range round-trips.
  recovered->reset();
  options.quarantine_corrupt_suffix = false;
  auto reopened = PartitionLog::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->end_offset(), end + 1);
  fs::remove_all(dir);
}

TEST(PartitionLogTest, FsyncLatencyHistogramRecordsUnderAlwaysSync) {
  const std::string dir = TestDir("fsyncmetrics");
  obs::MetricsRegistry registry;
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kAlways;
  options.metrics = &registry;
  options.labels = {{"topic", "t"}};
  auto log = PartitionLog::Open(dir, options);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*log)->Append(i, "k", "v").ok());
  }
  EXPECT_GE(registry
                .GetHistogram("marlin_storage_fsync_latency_nanos",
                              "Latency of segment fsync calls (nanoseconds)",
                              {{"topic", "t"}})
                ->Count(),
            5u);
  EXPECT_GE(registry
                .GetCounter("marlin_storage_fsyncs_total",
                            "fsync calls issued by partition logs",
                            {{"topic", "t"}})
                ->Value(),
            5u);
  EXPECT_EQ(registry
                .GetCounter("marlin_storage_append_records_total",
                            "Records appended to durable partition logs",
                            {{"topic", "t"}})
                ->Value(),
            5u);
  fs::remove_all(dir);
}

// -- Snapshots ------------------------------------------------------------

TEST(SnapshotTest, SaveLoadRoundTripAndReplace) {
  const std::string dir = TestDir("snapshot");
  const std::string path = dir + "/state.snap";
  EXPECT_EQ(LoadSnapshot(path).status().code(), StatusCode::kNotFound);
  const std::string blob("binary\0safe", 11);  // embedded NUL must survive
  const std::string blob2(1000, '\x7f');
  ASSERT_TRUE(SaveSnapshot(path, blob).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, blob);
  ASSERT_TRUE(SaveSnapshot(path, blob2).ok());
  loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, blob2);
  fs::remove_all(dir);
}

TEST(SnapshotTest, CorruptionIsDetectedNeverTrusted) {
  const std::string dir = TestDir("snapcorrupt");
  const std::string path = dir + "/state.snap";
  ASSERT_TRUE(SaveSnapshot(path, "precious bytes").ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  // Flip every byte in turn: magic, CRC, length, payload — all must fail
  // closed (callers fall back to log replay, never to half a snapshot).
  for (size_t pos = 0; pos < bytes->size(); ++pos) {
    std::string corrupt = *bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    ASSERT_TRUE(WriteFileAtomic(path, corrupt).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok()) << "flip at byte " << pos;
  }
  // Truncations too.
  for (const size_t keep : {0u, 4u, 8u, 12u, 15u}) {
    ASSERT_TRUE(WriteFileAtomic(path, bytes->substr(0, keep)).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok()) << "truncated to " << keep;
  }
  fs::remove_all(dir);
}

// -- Broker durable seam --------------------------------------------------

TEST(DurableBrokerTest, RecoversLogsAndCommittedOffsetsAcrossRestart) {
  const std::string dir = TestDir("broker");
  std::vector<Record> written;
  {
    DurableLogStorage durable(dir);
    Broker broker(nullptr, &durable);
    ASSERT_TRUE(broker.CreateTopic("ais", 4).ok());
    for (int i = 0; i < 40; ++i) {
      auto appended = broker.Append("ais", "mmsi" + std::to_string(i % 7),
                                    "sog=" + std::to_string(i), 1000 + i);
      ASSERT_TRUE(appended.ok());
      written.push_back(*appended);
    }
    broker.CommitOffset("readers", "ais", 1,
                        broker.CommittedOffset("readers", "ais", 1) + 3);
    broker.CommitOffset("readers", "ais", 2, 5);
    ASSERT_TRUE(broker.Flush().ok());
  }
  // A second incarnation over the same directory sees the same world.
  DurableLogStorage durable(dir);
  Broker broker(nullptr, &durable);
  EXPECT_EQ(broker.CommittedOffset("readers", "ais", 1), 3);
  EXPECT_EQ(broker.CommittedOffset("readers", "ais", 2), 5);
  ASSERT_TRUE(broker.CreateTopic("ais", 4).ok());
  std::map<int, std::vector<Record>> by_partition;
  for (const Record& record : written) {
    by_partition[record.partition].push_back(record);
  }
  for (const auto& [partition, expected] : by_partition) {
    EXPECT_EQ(*broker.EndOffset("ais", partition),
              static_cast<int64_t>(expected.size()));
    auto read = broker.Read("ais", partition, 0, 1000);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*read)[i].key, expected[i].key);
      EXPECT_EQ((*read)[i].value, expected[i].value);
      EXPECT_EQ((*read)[i].offset, expected[i].offset);
      EXPECT_EQ((*read)[i].timestamp, expected[i].timestamp);
    }
  }
  // Appends keep working after recovery, continuing the offset sequence.
  auto appended = broker.Append("ais", "mmsi1", "sog=99", 2000);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->offset,
            static_cast<int64_t>(by_partition[appended->partition].size()));
  fs::remove_all(dir);
}

// -- DurableKvStore -------------------------------------------------------

/// Dump() iterates unordered shards, so a rebuilt store lists the same
/// entries in a different order; sorting the lines makes the comparison
/// content-equal (test values never contain newlines).
std::string CanonicalDump(const KvStore& kv) {
  std::vector<std::string> lines;
  std::string line;
  for (const char c : kv.Dump()) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

TEST(DurableKvStoreTest, CheckpointThenRecoverIsByteEqual) {
  const std::string dir = TestDir("kv");
  VirtualClock clock(1'000'000);
  DurableKvStore::Options options;
  options.clock = &clock;
  std::string dump_before;
  {
    auto kv = DurableKvStore::Open(dir, options);
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < 20; ++i) {
      (*kv)->Set("string/" + std::to_string(i), "value" + std::to_string(i));
      ASSERT_TRUE(
          (*kv)->HSet("hash/" + std::to_string(i % 5),
                      "field" + std::to_string(i), std::to_string(i))
              .ok());
    }
    (*kv)->Del("string/3");
    ASSERT_TRUE((*kv)->Checkpoint().ok());
    // Post-checkpoint tail, recovered from the WAL alone.
    (*kv)->Set("string/100", "after-checkpoint");
    (*kv)->Del("string/4");
    ASSERT_TRUE((*kv)->Flush().ok());
    dump_before = CanonicalDump((*kv)->store());
  }
  auto kv = DurableKvStore::Open(dir, options);
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(CanonicalDump((*kv)->store()), dump_before);
  // Tail-only replay: the checkpoint absorbed the first 41 ops; only the
  // 2 ops after it replay.
  EXPECT_EQ((*kv)->replayed_records(), 2);
  fs::remove_all(dir);
}

TEST(DurableKvStoreTest, TtlExpiryUnderTickingChaosClockRestoresByteEqual) {
  const std::string dir = TestDir("kvttl");
  VirtualClock base(1'000'000);
  fault::ChaosClock clock(&base, /*skew=*/250);  // skewed, like a chaos node
  DurableKvStore::Options options;
  options.clock = &clock;
  std::string dump_before;
  {
    auto kv = DurableKvStore::Open(dir, options);
    ASSERT_TRUE(kv.ok());
    (*kv)->Set("keep", "forever");
    (*kv)->Set("fleeting", "gone-soon");
    EXPECT_TRUE((*kv)->Expire("fleeting", 10'000));
    (*kv)->Set("longer", "still-here");
    EXPECT_TRUE((*kv)->Expire("longer", 900'000));
    // "fleeting" still live, in flight toward expiry.
    base.AdvanceTo(base.Now() + 5'000);
    ASSERT_TRUE((*kv)->Checkpoint().ok());
    // "fleeting" expires after the checkpoint.
    base.AdvanceTo(base.Now() + 20'000);
    (*kv)->Set("late", "post-snapshot");
    ASSERT_TRUE((*kv)->Flush().ok());
    dump_before = CanonicalDump((*kv)->store());
  }
  // Restart at the same (skewed) time: the journaled absolute deadlines
  // must reproduce the exact TTL state — "fleeting" dead, "longer" alive
  // with its remaining TTL intact.
  auto kv = DurableKvStore::Open(dir, options);
  ASSERT_TRUE(kv.ok());
  EXPECT_EQ(CanonicalDump((*kv)->store()), dump_before);
  EXPECT_FALSE((*kv)->store().Exists("fleeting"));
  ASSERT_TRUE((*kv)->store().Get("longer").ok());
  auto ttl = (*kv)->store().Ttl("longer");
  ASSERT_TRUE(ttl.has_value());
  EXPECT_GT(*ttl, 0);
  EXPECT_LE(*ttl, 900'000);
  fs::remove_all(dir);
}

TEST(DurableKvStoreTest, TornWalTailRecoversThePrefix) {
  const std::string dir = TestDir("kvtorn");
  VirtualClock clock(1'000'000);
  DurableKvStore::Options options;
  options.clock = &clock;
  {
    auto kv = DurableKvStore::Open(dir, options);
    ASSERT_TRUE(kv.ok());
    (*kv)->Set("a", "1");
    (*kv)->Set("b", "2");
    ASSERT_TRUE((*kv)->Flush().ok());
  }
  AppendRawBytes(LastSegmentFile(dir + "/wal"), "torn-garbage-tail");
  auto kv = DurableKvStore::Open(dir, options);
  ASSERT_TRUE(kv.ok());
  auto a = (*kv)->store().Get("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "1");
  auto b = (*kv)->store().Get("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "2");
  // And the torn log keeps accepting writes.
  (*kv)->Set("c", "3");
  EXPECT_TRUE((*kv)->store().Exists("c"));
  fs::remove_all(dir);
}

TEST(DurableKvStoreTest, ConcurrentWritersToOneKeyRecoverTheObservedValue) {
  // Journal and apply are atomic per key: whatever value readers observed
  // last before shutdown is the value recovery replays — the WAL can never
  // hold a different interleaving than the store did.
  const std::string dir = TestDir("kvconcurrent");
  DurableKvStore::Options options;
  options.wal.sync = PartitionLog::SyncMode::kNone;
  std::string observed;
  {
    auto kv = DurableKvStore::Open(dir, options);
    ASSERT_TRUE(kv.ok());
    constexpr int kThreads = 4;
    constexpr int kWrites = 250;
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&kv, t] {
        for (int i = 0; i < kWrites; ++i) {
          EXPECT_TRUE(
              (*kv)->Set("hot", std::to_string(t) + ":" + std::to_string(i))
                  .ok());
          EXPECT_TRUE((*kv)
                          ->Set("t" + std::to_string(t),
                                std::to_string(i))
                          .ok());
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    auto value = (*kv)->store().Get("hot");
    ASSERT_TRUE(value.ok());
    observed = *value;
  }
  auto kv = DurableKvStore::Open(dir, options);
  ASSERT_TRUE(kv.ok());
  auto recovered = (*kv)->store().Get("hot");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, observed);
  auto solo = (*kv)->store().Get("t0");
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(*solo, "249");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace storage
}  // namespace marlin
