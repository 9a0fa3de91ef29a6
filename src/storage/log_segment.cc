#include "storage/log_segment.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/file.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace marlin {
namespace storage {
namespace {

Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

StatusOr<std::unique_ptr<LogSegment>> LogSegment::Create(
    const std::string& path, int64_t base_offset, const Options& options) {
  auto segment = std::make_unique<LogSegment>(path, base_offset, options);
  segment->file_ = std::fopen(path.c_str(), "wb");
  if (segment->file_ == nullptr) return IoError("create segment", path);
  return segment;
}

StatusOr<std::unique_ptr<LogSegment>> LogSegment::Open(
    const std::string& path, int64_t base_offset, const Options& options,
    RecoveryStats* stats, bool writable) {
  StatusOr<std::string> data = ReadFile(path);
  if (!data.ok()) return data.status();

  auto segment = std::make_unique<LogSegment>(path, base_offset, options);
  RecordScanner scanner(*data);
  LogRecord record;
  while (scanner.Next(&record)) {
    if (record.offset != segment->next_offset_) {
      // A CRC-valid record with the wrong offset means the stream diverged
      // (e.g. a segment file renamed by hand). Treat everything from here
      // on as corrupt: keep the dense prefix, drop the rest.
      break;
    }
    if (segment->index_.empty() ||
        segment->bytes_ - segment->last_indexed_pos_ >=
            options.index_interval_bytes) {
      segment->index_.push_back({record.offset, segment->bytes_});
      segment->last_indexed_pos_ = segment->bytes_;
    }
    segment->bytes_ = scanner.valid_bytes();
    ++segment->next_offset_;
  }
  if (stats != nullptr) {
    stats->records = segment->next_offset_ - segment->base_offset_;
    stats->truncated_bytes = data->size() - segment->bytes_;
  }
  if (writable) {
    // Torn or corrupt tail (a kill -9 mid-write): truncate to the last
    // valid CRC record so the next append continues a clean stream.
    Status prepared = segment->PrepareForAppend();
    if (!prepared.ok()) return prepared;
  }
  return segment;
}

LogSegment::~LogSegment() { Close(); }

void LogSegment::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Status LogSegment::Append(const LogRecord& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("segment '" + path_ + "' is closed");
  }
  if (record.offset != next_offset_) {
    return Status::InvalidArgument(
        "segment append offset " + std::to_string(record.offset) +
        " != next offset " + std::to_string(next_offset_));
  }
  if (record.key.size() + record.value.size() + 64 > kMaxRecordBytes) {
    return Status::InvalidArgument("record exceeds kMaxRecordBytes");
  }
  std::string frame;
  EncodeRecord(record, &frame);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    // A partial frame may now sit at the tail; appending more through this
    // handle would interleave with it. Seal the segment — the next Open()
    // truncates the torn bytes.
    Status status = IoError("append to segment", path_);
    Close();
    return status;
  }
  // Index only once the bytes are in the stream: an entry pointing at a
  // file position holding no record would misdirect every later read.
  if (index_.empty() ||
      bytes_ - last_indexed_pos_ >= options_.index_interval_bytes) {
    index_.push_back({record.offset, bytes_});
    last_indexed_pos_ = bytes_;
  }
  bytes_ += frame.size();
  ++next_offset_;
  return Status::Ok();
}

Status LogSegment::PrepareForAppend() {
  if (file_ != nullptr) return Status::Ok();
  std::error_code ec;
  const uintmax_t file_bytes = std::filesystem::file_size(path_, ec);
  if (ec) {
    return Status::Internal("stat segment '" + path_ + "': " + ec.message());
  }
  if (file_bytes > bytes_) {
    std::filesystem::resize_file(path_, bytes_, ec);
    if (ec) {
      return Status::Internal("truncate segment '" + path_ +
                              "': " + ec.message());
    }
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) return IoError("reopen segment", path_);
  return Status::Ok();
}

Status LogSegment::Flush(bool sync) {
  if (file_ == nullptr) return Status::Ok();  // sealed segments are durable
  if (std::fflush(file_) != 0) return IoError("flush segment", path_);
#if defined(__unix__) || defined(__APPLE__)
  if (sync && ::fsync(::fileno(file_)) != 0) {
    return IoError("fsync segment", path_);
  }
#else
  (void)sync;
#endif
  return Status::Ok();
}

StatusOr<std::vector<LogRecord>> LogSegment::Read(int64_t from_offset,
                                                  int max_records) {
  std::vector<LogRecord> out;
  if (max_records <= 0 || from_offset >= next_offset_) return out;
  if (from_offset < base_offset_) from_offset = base_offset_;
  // The write handle buffers in stdio; make everything visible to the read
  // handle before seeking into the file.
  if (file_ != nullptr && std::fflush(file_) != 0) {
    return IoError("flush segment", path_);
  }
  // Largest sparse-index entry at or before the target offset.
  uint64_t pos = 0;
  for (const IndexEntry& entry : index_) {
    if (entry.offset > from_offset) break;
    pos = entry.file_pos;
  }
  std::FILE* in = std::fopen(path_.c_str(), "rb");
  if (in == nullptr) return IoError("open segment for read", path_);
  std::string buffer;
  buffer.resize(static_cast<size_t>(bytes_ - pos));
  size_t got = 0;
  if (std::fseek(in, static_cast<long>(pos), SEEK_SET) == 0) {
    got = std::fread(buffer.data(), 1, buffer.size(), in);
  }
  std::fclose(in);
  buffer.resize(got);
  RecordScanner scanner(buffer);
  LogRecord record;
  while (static_cast<int>(out.size()) < max_records && scanner.Next(&record)) {
    if (record.offset < from_offset) continue;  // inside the index interval
    out.push_back(std::move(record));
  }
  return out;
}

}  // namespace storage
}  // namespace marlin
