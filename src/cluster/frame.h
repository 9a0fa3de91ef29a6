#ifndef MARLIN_CLUSTER_FRAME_H_
#define MARLIN_CLUSTER_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace marlin {
namespace cluster {

/// Node identity within one cluster. Assigned statically by the operator
/// (the membership list is gossip-free); 0 is reserved for "no node".
using NodeId = uint32_t;

constexpr NodeId kNoNode = 0;

/// Kinds of frames exchanged between cluster nodes. The values are the
/// wire format; ClusterNode drops frames whose type byte is unassigned.
enum class FrameType : uint8_t {
  /// First frame on every outbound TCP connection: identifies the dialing
  /// node so the acceptor can attribute inbound frames.
  kHello = 1,
  /// A serialized actor envelope routed between shard regions.
  kEnvelope = 2,
  /// Periodic liveness probe; `seq` carries the sender's send timestamp
  /// (micros) so the ack can be turned into an RTT sample.
  kHeartbeat = 3,
  /// Echo of a heartbeat; `seq` is copied from the probe.
  kHeartbeatAck = 4,
  /// "I stopped routing shard S to myself and believe you own it now" —
  /// sent by the previous owner to the new owner on a topology change.
  kHandoffBegin = 5,
  /// "I agree I own shard S; send me its buffered envelopes."
  kHandoffAck = 6,
};

const char* FrameTypeName(FrameType type);

/// One unit of the wire protocol. On the wire a frame is length-prefixed:
///
///   [u32 len][u8 ver][u8 type][u32 src][u64 seq][payload: len-14 bytes]
///
/// `len` counts every byte after the length field itself; all integers are
/// little-endian. `seq` is type-specific: a per-origin envelope sequence
/// number for kEnvelope (the duplicate-delivery detector keys on it), a
/// timestamp echo for heartbeats, zero elsewhere.
struct Frame {
  FrameType type = FrameType::kHello;
  NodeId src = kNoNode;
  uint64_t seq = 0;
  std::string payload;
};

/// Protocol version emitted by EncodeFrame and required by FrameDecoder.
constexpr uint8_t kWireVersion = 1;

/// Frames larger than this are malformed (a desynced or hostile stream),
/// not data: the decoder fails hard instead of allocating gigabytes.
constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Serialises one frame, length prefix included.
std::string EncodeFrame(const Frame& frame);

/// Incremental decoder for a TCP byte stream: feed arbitrary slices, pull
/// complete frames. Not thread-safe (one decoder per connection/reader).
class FrameDecoder {
 public:
  /// Appends raw bytes from the stream.
  void Feed(const char* data, size_t size);

  /// Extracts the next complete frame into `out`. Returns false when no
  /// complete frame is buffered (feed more) or the stream is corrupt
  /// (check error()).
  bool Next(Frame* out);

  /// Non-OK once a malformed frame (bad version, oversized length) was
  /// seen; the connection should be dropped.
  const Status& error() const { return error_; }

  /// Discards all buffered bytes and clears the sticky error, returning
  /// the decoder to its initial state. The recovery path after a corrupt
  /// stream: drop the connection, Reset(), reuse the decoder for the next
  /// connection's byte stream.
  void Reset();

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already decoded
  Status error_ = Status::Ok();
};

/// Append-only writer for frame payloads (and other wire blobs). Integers
/// are little-endian; strings are u16- or u32-length-prefixed.
class WireWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// u16 length prefix; aborts values over 64 KiB to a truncation error at
  /// read time — callers validate sizes (entity keys, region names).
  void PutString16(std::string_view s);
  /// u32 length prefix (bulk payloads).
  void PutString32(std::string_view s);

  std::string Take() { return std::move(out_); }
  const std::string& view() const { return out_; }

 private:
  std::string out_;
};

/// Cursor-based reader over a wire blob. Every getter returns false (and
/// leaves the output untouched) on underflow, so malformed payloads are
/// rejected rather than read out of bounds.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetString16(std::string* s);
  bool GetString32(std::string* s);

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace cluster
}  // namespace marlin

#endif  // MARLIN_CLUSTER_FRAME_H_
