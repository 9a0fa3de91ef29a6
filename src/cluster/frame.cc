#include "cluster/frame.h"

#include <cstring>

namespace marlin {
namespace cluster {
namespace {

constexpr size_t kHeaderAfterLen = 1 + 1 + 4 + 8;  // ver, type, src, seq

void AppendLE(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

uint64_t ReadLE(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kEnvelope:
      return "envelope";
    case FrameType::kHeartbeat:
      return "heartbeat";
    case FrameType::kHeartbeatAck:
      return "heartbeat-ack";
    case FrameType::kHandoffBegin:
      return "handoff-begin";
    case FrameType::kHandoffAck:
      return "handoff-ack";
  }
  return "unknown";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(4 + kHeaderAfterLen + frame.payload.size());
  AppendLE(&out, kHeaderAfterLen + frame.payload.size(), 4);
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(frame.type));
  AppendLE(&out, frame.src, 4);
  AppendLE(&out, frame.seq, 8);
  out.append(frame.payload);
  return out;
}

void FrameDecoder::Feed(const char* data, size_t size) {
  if (!error_.ok()) return;
  // Compact lazily: only when the decoded prefix dominates the buffer, so
  // steady-state feeding is amortised O(bytes).
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameDecoder::Next(Frame* out) {
  if (!error_.ok()) return false;
  const size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const char* base = buffer_.data() + consumed_;
  const uint64_t len = ReadLE(base, 4);
  if (len < kHeaderAfterLen || len > kMaxFrameBytes) {
    error_ = Status::InvalidArgument("malformed frame length " +
                                     std::to_string(len));
    return false;
  }
  if (available < 4 + len) return false;
  const uint8_t version = static_cast<uint8_t>(base[4]);
  if (version != kWireVersion) {
    error_ = Status::InvalidArgument("unsupported wire version " +
                                     std::to_string(version));
    return false;
  }
  out->type = static_cast<FrameType>(static_cast<uint8_t>(base[5]));
  out->src = static_cast<NodeId>(ReadLE(base + 6, 4));
  out->seq = ReadLE(base + 10, 8);
  out->payload.assign(base + 4 + kHeaderAfterLen, len - kHeaderAfterLen);
  consumed_ += 4 + len;
  return true;
}

void FrameDecoder::Reset() {
  buffer_.clear();
  consumed_ = 0;
  error_ = Status::Ok();
}

void WireWriter::PutU16(uint16_t v) { AppendLE(&out_, v, 2); }
void WireWriter::PutU32(uint32_t v) { AppendLE(&out_, v, 4); }
void WireWriter::PutU64(uint64_t v) { AppendLE(&out_, v, 8); }

void WireWriter::PutString16(std::string_view s) {
  PutU16(static_cast<uint16_t>(s.size() > 0xFFFF ? 0xFFFF : s.size()));
  out_.append(s.substr(0, 0xFFFF));
}

void WireWriter::PutString32(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_.append(s);
}

bool WireReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<uint8_t>(data_[pos_]);
  pos_ += 1;
  return true;
}

bool WireReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return false;
  *v = static_cast<uint16_t>(ReadLE(data_.data() + pos_, 2));
  pos_ += 2;
  return true;
}

bool WireReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return false;
  *v = static_cast<uint32_t>(ReadLE(data_.data() + pos_, 4));
  pos_ += 4;
  return true;
}

bool WireReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return false;
  *v = ReadLE(data_.data() + pos_, 8);
  pos_ += 8;
  return true;
}

bool WireReader::GetString16(std::string* s) {
  uint16_t len = 0;
  if (!GetU16(&len)) return false;
  if (remaining() < len) return false;
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool WireReader::GetString32(std::string* s) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (remaining() < len) return false;
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

}  // namespace cluster
}  // namespace marlin
