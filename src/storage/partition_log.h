#ifndef MARLIN_STORAGE_PARTITION_LOG_H_
#define MARLIN_STORAGE_PARTITION_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "storage/log_segment.h"
#include "storage/record_io.h"
#include "util/status.h"

namespace marlin {
namespace storage {

/// A durable, append-only partition: a directory of segment files named by
/// their base offset (`00000000000000000000.seg`, ...), the active one open
/// for appends. Covers the dense offset range [start_offset, end_offset).
///
///   - Appends roll to a new segment once the active one passes
///     `segment_bytes`.
///   - `sync` picks the durability/latency trade-off: kNone leaves flushing
///     to the OS, kBatch fsyncs once at least `sync_batch_bytes` are
///     pending (plus on every explicit Flush), kAlways fsyncs every append.
///   - Open() recovers: segments are scanned oldest-first, a torn tail in
///     the last segment is truncated to the last valid CRC record, and the
///     sparse per-segment offset indexes are rebuilt. Corruption in a
///     *sealed* (non-final) segment leaves an offset gap before the next
///     segment; by default Open() fails with an error naming the gap (the
///     bytes stay on disk for inspection), or, with
///     `quarantine_corrupt_suffix`, the unreadable suffix segments are
///     renamed aside (`*.seg.quarantined`) and the valid prefix recovers.
///   - CompactPrefix(horizon) is the log-compaction seam: whole segments
///     strictly below the horizon (snapshot covers them) are deleted.
///     Compaction is cooperative — callers invoke it from their own
///     maintenance tick; the storage layer owns no threads (the Dispatcher
///     seam rule, DESIGN.md §11).
///
/// Thread-safe.
class PartitionLog {
 public:
  enum class SyncMode { kNone, kBatch, kAlways };

  struct Options {
    uint64_t segment_bytes = 4u << 20;
    size_t index_interval_bytes = 4096;
    SyncMode sync = SyncMode::kBatch;
    uint64_t sync_batch_bytes = 64u << 10;
    /// Registry for marlin_storage_* metrics (null = process global).
    obs::MetricsRegistry* metrics = nullptr;
    /// Labels for this log's series (conventionally {{"topic", ...}}; keep
    /// cardinality at topic granularity, never per-partition).
    obs::Labels labels;
    /// Mid-log corruption policy. Off (default): Open() fails with an error
    /// advising operator action, losing nothing. On: segments past the
    /// corruption-induced offset gap are renamed `*.seg.quarantined` and
    /// the valid prefix recovers — explicit data loss in exchange for a
    /// usable partition.
    bool quarantine_corrupt_suffix = false;
  };

  /// Opens (creating if needed) the log rooted at directory `dir`.
  static StatusOr<std::unique_ptr<PartitionLog>> Open(const std::string& dir,
                                                      const Options& options);

  /// Public only so Open() can make_unique; use Open().
  PartitionLog(std::string dir, const Options& options);

  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Appends a record at the next offset; returns the offset assigned.
  StatusOr<int64_t> Append(TimeMicros timestamp, std::string_view key,
                           std::string_view value);

  /// Appends a pre-offset record; `record.offset` must equal end_offset().
  /// The broker durability seam (DurableLogStorage::Append), where the
  /// broker's in-memory log has already assigned the offset.
  Status AppendRecord(const LogRecord& record);

  /// Reads up to `max_records` records starting at `from_offset`, crossing
  /// segment boundaries as needed.
  StatusOr<std::vector<LogRecord>> Read(int64_t from_offset, int max_records);

  /// Flushes and fsyncs the active segment.
  Status Flush();

  /// Deletes whole segments entirely below `horizon` (every record with
  /// offset < horizon that shares no segment with a retained record).
  /// Returns the number of segments removed.
  size_t CompactPrefix(int64_t horizon);

  /// Oldest retained offset (advances under compaction).
  int64_t start_offset() const;
  /// Next offset to be assigned.
  int64_t end_offset() const;
  size_t segment_count() const;
  /// Torn-tail bytes truncated and records recovered by Open().
  uint64_t recovered_truncated_bytes() const { return truncated_bytes_; }
  int64_t recovered_records() const { return recovered_records_; }
  /// Corrupt-suffix segments renamed aside by Open() (quarantine mode).
  size_t quarantined_segments() const { return quarantined_segments_; }
  const std::string& dir() const { return dir_; }

 private:
  Status RecoverLocked();
  Status RollLocked();
  Status AppendLocked(const LogRecord& record);
  LogSegment* ActiveLocked() { return segments_.rbegin()->second.get(); }

  const std::string dir_;
  const Options options_;

  mutable std::mutex mu_;
  std::map<int64_t, std::unique_ptr<LogSegment>> segments_;  // by base offset
  uint64_t unsynced_bytes_ = 0;
  uint64_t truncated_bytes_ = 0;
  int64_t recovered_records_ = 0;
  size_t quarantined_segments_ = 0;

  struct Metrics {
    obs::Counter* appended = nullptr;
    obs::Counter* fsyncs = nullptr;
    obs::Histogram* fsync_latency = nullptr;
    obs::Counter* segments_created = nullptr;
    obs::Counter* segments_compacted = nullptr;
    obs::Counter* recovered = nullptr;
    obs::Counter* truncated_bytes = nullptr;
    obs::Counter* quarantined = nullptr;
  };
  Metrics metrics_;
};

}  // namespace storage
}  // namespace marlin

#endif  // MARLIN_STORAGE_PARTITION_LOG_H_
