#ifndef MARLIN_STORAGE_LOG_SEGMENT_H_
#define MARLIN_STORAGE_LOG_SEGMENT_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "storage/record_io.h"
#include "util/status.h"

namespace marlin {
namespace storage {

/// One append-only segment file of a partition log: a run of CRC-framed
/// records covering the dense offset range [base_offset, end_offset).
///
/// Alongside the record stream the segment keeps an in-memory *sparse*
/// offset index — one (offset, file position) entry roughly every
/// `index_interval_bytes` of file — so a read seeks near its target and
/// scans at most one interval of records instead of the whole file. The
/// index is rebuilt from the record stream on open (it is an optimization,
/// never a source of truth), which is also what makes recovery trivially
/// safe: scan, truncate the torn tail, re-derive everything else.
///
/// Not thread-safe; PartitionLog serializes access.
class LogSegment {
 public:
  struct Options {
    /// Approximate bytes between sparse index entries.
    size_t index_interval_bytes = 4096;
  };

  struct IndexEntry {
    int64_t offset = 0;     // first offset at/after this file position
    uint64_t file_pos = 0;  // byte position of that record's frame
  };

  /// What Open() found on disk; surfaced into the recovery metrics.
  struct RecoveryStats {
    int64_t records = 0;
    uint64_t truncated_bytes = 0;  // torn/corrupt tail removed
  };

  /// Creates a new, empty segment file whose first record will carry
  /// `base_offset`. Fails if the file cannot be created.
  static StatusOr<std::unique_ptr<LogSegment>> Create(const std::string& path,
                                                      int64_t base_offset,
                                                      const Options& options);

  /// Opens an existing segment: scans every frame, rebuilds the sparse
  /// index, and derives the valid record range. The records must be dense
  /// from `base_offset`. When `writable`, also truncates the file to the
  /// last valid CRC record and positions the writer at the end; when not
  /// (a sealed mid-log segment), the file is left untouched — any corrupt
  /// tail stays on disk for inspection and reads simply stop before it.
  static StatusOr<std::unique_ptr<LogSegment>> Open(const std::string& path,
                                                    int64_t base_offset,
                                                    const Options& options,
                                                    RecoveryStats* stats,
                                                    bool writable = true);

  ~LogSegment();
  LogSegment(const LogSegment&) = delete;
  LogSegment& operator=(const LogSegment&) = delete;

  /// Appends one record; `record.offset` must equal end_offset(). A short
  /// write seals the segment (further appends fail; the partial frame is
  /// truncated by the next Open()).
  Status Append(const LogRecord& record);

  /// Makes a sealed segment the append target again: truncates the file to
  /// the valid record bytes (dropping any ignored corrupt tail) and opens
  /// the write handle. No-op when already writable.
  Status PrepareForAppend();

  /// Drains the stdio buffer to the OS; when `sync` also fsyncs to media.
  Status Flush(bool sync);

  /// Reads up to `max_records` records starting at `from_offset`
  /// (inclusive), seeking via the sparse index. Offsets below base or at or
  /// past the end yield an empty batch.
  StatusOr<std::vector<LogRecord>> Read(int64_t from_offset, int max_records);

  /// Closes the write handle (further Appends fail). Idempotent.
  void Close();

  int64_t base_offset() const { return base_offset_; }
  /// Next offset this segment would assign (base + record count).
  int64_t end_offset() const { return next_offset_; }
  uint64_t size_bytes() const { return bytes_; }
  const std::string& path() const { return path_; }
  const std::vector<IndexEntry>& sparse_index() const { return index_; }

  /// Public only so the factories can make_unique; use Create()/Open().
  LogSegment(std::string path, int64_t base_offset, const Options& options)
      : path_(std::move(path)),
        options_(options),
        base_offset_(base_offset),
        next_offset_(base_offset) {}

 private:
  const std::string path_;
  const Options options_;
  const int64_t base_offset_;
  int64_t next_offset_;
  uint64_t bytes_ = 0;
  /// File bytes already covered by an index entry (interval accumulator).
  uint64_t last_indexed_pos_ = 0;
  std::vector<IndexEntry> index_;
  std::FILE* file_ = nullptr;  // append handle; reads open their own
};

}  // namespace storage
}  // namespace marlin

#endif  // MARLIN_STORAGE_LOG_SEGMENT_H_
