#include "storage/partition_log.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

namespace marlin {
namespace storage {
namespace {

constexpr const char* kSegmentSuffix = ".seg";

std::string SegmentPath(const std::string& dir, int64_t base_offset) {
  char name[32];
  std::snprintf(name, sizeof(name), "%020" PRId64, base_offset);
  return dir + "/" + name + kSegmentSuffix;
}

/// Parses "<20 digits>.seg" into its base offset; false for foreign files.
bool ParseSegmentName(const std::string& name, int64_t* base_offset) {
  const size_t suffix_len = std::string(kSegmentSuffix).size();
  if (name.size() <= suffix_len ||
      name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(0, name.size() - suffix_len);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *base_offset = std::strtoll(digits.c_str(), nullptr, 10);
  return true;
}

}  // namespace

PartitionLog::PartitionLog(std::string dir, const Options& options)
    : dir_(std::move(dir)), options_(options) {
  obs::MetricsRegistry* registry =
      obs::MetricsRegistry::OrGlobal(options_.metrics);
  metrics_.appended = registry->GetCounter(
      "marlin_storage_append_records_total",
      "Records appended to durable partition logs", options_.labels);
  metrics_.fsyncs = registry->GetCounter(
      "marlin_storage_fsyncs_total", "fsync calls issued by partition logs",
      options_.labels);
  metrics_.fsync_latency = registry->GetHistogram(
      "marlin_storage_fsync_latency_nanos",
      "Latency of segment fsync calls (nanoseconds)", options_.labels);
  metrics_.segments_created = registry->GetCounter(
      "marlin_storage_segments_created_total",
      "Segment files created (initial + rolls)", options_.labels);
  metrics_.segments_compacted = registry->GetCounter(
      "marlin_storage_segments_compacted_total",
      "Segment files deleted by prefix compaction", options_.labels);
  metrics_.recovered = registry->GetCounter(
      "marlin_storage_recovered_records_total",
      "Records recovered from segments at open", options_.labels);
  metrics_.truncated_bytes = registry->GetCounter(
      "marlin_storage_truncated_bytes_total",
      "Torn-tail bytes truncated during recovery", options_.labels);
  metrics_.quarantined = registry->GetCounter(
      "marlin_storage_quarantined_segments_total",
      "Corrupt-suffix segments renamed aside during recovery",
      options_.labels);
}

StatusOr<std::unique_ptr<PartitionLog>> PartitionLog::Open(
    const std::string& dir, const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("create log dir '" + dir + "': " + ec.message());
  }
  auto log = std::make_unique<PartitionLog>(dir, options);
  std::lock_guard<std::mutex> lock(log->mu_);
  Status status = log->RecoverLocked();
  if (!status.ok()) return status;
  return log;
}

Status PartitionLog::RecoverLocked() {
  std::vector<int64_t> bases;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    int64_t base = 0;
    if (ParseSegmentName(entry.path().filename().string(), &base)) {
      bases.push_back(base);
    }
  }
  if (ec) {
    return Status::Internal("list log dir '" + dir_ + "': " + ec.message());
  }
  std::sort(bases.begin(), bases.end());

  LogSegment::Options segment_options;
  segment_options.index_interval_bytes = options_.index_interval_bytes;
  int64_t expected_base = bases.empty() ? 0 : bases.front();
  for (size_t i = 0; i < bases.size(); ++i) {
    const int64_t base = bases[i];
    if (base != expected_base) {
      // A sealed segment lost records to corruption (or a file vanished):
      // the offset stream has a hole, so nothing past it can be served.
      if (!options_.quarantine_corrupt_suffix) {
        return Status::Internal(
            "log dir '" + dir_ + "' has an offset gap: segment " +
            std::to_string(base) + " follows end " +
            std::to_string(expected_base) +
            " — a sealed segment is corrupt or missing; inspect the files, "
            "or set Options::quarantine_corrupt_suffix to move the "
            "unreadable suffix aside and recover the prefix");
      }
      size_t quarantined = 0;
      for (size_t j = i; j < bases.size(); ++j) {
        const std::string path = SegmentPath(dir_, bases[j]);
        std::filesystem::rename(path, path + ".quarantined", ec);
        if (ec) {
          return Status::Internal("quarantine segment '" + path +
                                  "': " + ec.message());
        }
        ++quarantined;
      }
      quarantined_segments_ = quarantined;
      metrics_.quarantined->Increment(quarantined);
      break;
    }
    LogSegment::RecoveryStats stats;
    // Only the final segment takes appends; sealed ones open read-only so
    // a corrupt region's bytes stay on disk untouched for inspection.
    StatusOr<std::unique_ptr<LogSegment>> segment = LogSegment::Open(
        SegmentPath(dir_, base), base, segment_options, &stats,
        /*writable=*/i + 1 == bases.size());
    if (!segment.ok()) return segment.status();
    recovered_records_ += stats.records;
    truncated_bytes_ += stats.truncated_bytes;
    expected_base = (*segment)->end_offset();
    segments_.emplace(base, std::move(*segment));
  }
  if (recovered_records_ > 0) {
    metrics_.recovered->Increment(static_cast<uint64_t>(recovered_records_));
  }
  if (truncated_bytes_ > 0) {
    metrics_.truncated_bytes->Increment(truncated_bytes_);
  }
  if (segments_.empty()) {
    StatusOr<std::unique_ptr<LogSegment>> segment =
        LogSegment::Create(SegmentPath(dir_, 0), 0, segment_options);
    if (!segment.ok()) return segment.status();
    metrics_.segments_created->Increment();
    segments_.emplace(0, std::move(*segment));
    return Status::Ok();
  }
  // Quarantining may have left a sealed segment as the tail: truncate its
  // ignored corrupt bytes and reopen it as the append target.
  return ActiveLocked()->PrepareForAppend();
}

Status PartitionLog::RollLocked() {
  LogSegment* active = ActiveLocked();
  Status status = active->Flush(/*sync=*/true);
  if (!status.ok()) return status;
  active->Close();
  unsynced_bytes_ = 0;
  const int64_t base = active->end_offset();
  LogSegment::Options segment_options;
  segment_options.index_interval_bytes = options_.index_interval_bytes;
  StatusOr<std::unique_ptr<LogSegment>> segment =
      LogSegment::Create(SegmentPath(dir_, base), base, segment_options);
  if (!segment.ok()) return segment.status();
  metrics_.segments_created->Increment();
  segments_.emplace(base, std::move(*segment));
  return Status::Ok();
}

Status PartitionLog::AppendLocked(const LogRecord& record) {
  LogSegment* active = ActiveLocked();
  if (active->size_bytes() >= options_.segment_bytes) {
    Status status = RollLocked();
    if (!status.ok()) return status;
    active = ActiveLocked();
  }
  const uint64_t before = active->size_bytes();
  Status status = active->Append(record);
  if (!status.ok()) return status;
  unsynced_bytes_ += active->size_bytes() - before;
  metrics_.appended->Increment();
  const bool sync_now =
      options_.sync == SyncMode::kAlways ||
      (options_.sync == SyncMode::kBatch &&
       unsynced_bytes_ >= options_.sync_batch_bytes);
  if (sync_now) {
    obs::ScopedTimer timer(metrics_.fsync_latency);
    status = active->Flush(/*sync=*/true);
    if (!status.ok()) return status;
    metrics_.fsyncs->Increment();
    unsynced_bytes_ = 0;
  }
  return Status::Ok();
}

StatusOr<int64_t> PartitionLog::Append(TimeMicros timestamp,
                                       std::string_view key,
                                       std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord record;
  record.offset = ActiveLocked()->end_offset();
  record.timestamp = timestamp;
  record.key.assign(key);
  record.value.assign(value);
  Status status = AppendLocked(record);
  if (!status.ok()) return status;
  return record.offset;
}

Status PartitionLog::AppendRecord(const LogRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (record.offset != ActiveLocked()->end_offset()) {
    return Status::InvalidArgument(
        "append offset " + std::to_string(record.offset) + " != log end " +
        std::to_string(ActiveLocked()->end_offset()));
  }
  return AppendLocked(record);
}

StatusOr<std::vector<LogRecord>> PartitionLog::Read(int64_t from_offset,
                                                    int max_records) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogRecord> out;
  if (segments_.empty() || max_records <= 0) return out;
  if (from_offset < segments_.begin()->first) {
    from_offset = segments_.begin()->first;
  }
  // Start at the segment covering from_offset: the last one whose base is
  // at or before it.
  auto it = segments_.upper_bound(from_offset);
  if (it != segments_.begin()) --it;
  for (; it != segments_.end() && static_cast<int>(out.size()) < max_records;
       ++it) {
    StatusOr<std::vector<LogRecord>> batch = it->second->Read(
        from_offset, max_records - static_cast<int>(out.size()));
    if (!batch.ok()) return batch.status();
    for (LogRecord& record : *batch) {
      from_offset = record.offset + 1;
      out.push_back(std::move(record));
    }
  }
  return out;
}

Status PartitionLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (segments_.empty()) return Status::Ok();
  obs::ScopedTimer timer(metrics_.fsync_latency);
  Status status = ActiveLocked()->Flush(/*sync=*/true);
  if (!status.ok()) return status;
  metrics_.fsyncs->Increment();
  unsynced_bytes_ = 0;
  return Status::Ok();
}

size_t PartitionLog::CompactPrefix(int64_t horizon) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  // Keep at least the active (last) segment, and only drop a segment when
  // the *next* segment's base is within the horizon too — i.e. every record
  // in it is below the horizon.
  while (segments_.size() > 1) {
    auto first = segments_.begin();
    auto second = std::next(first);
    if (second->first > horizon) break;
    std::error_code ec;
    std::filesystem::remove(first->second->path(), ec);
    if (ec) break;  // leave the segment; compaction retries next cycle
    segments_.erase(first);
    ++removed;
  }
  if (removed > 0) metrics_.segments_compacted->Increment(removed);
  return removed;
}

int64_t PartitionLog::start_offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.empty() ? 0 : segments_.begin()->first;
}

int64_t PartitionLog::end_offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.empty() ? 0 : segments_.rbegin()->second->end_offset();
}

size_t PartitionLog::segment_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

}  // namespace storage
}  // namespace marlin
