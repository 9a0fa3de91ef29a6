#include "ais/codec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace marlin {
namespace {

// 6-bit AIS character set (ITU-R M.1371 table 47): value 0-63.
char SixBitToChar(int v) {
  // '@' (0) .. '_' (31), ' ' (32) .. '?' (63)
  return v < 32 ? static_cast<char>('@' + v) : static_cast<char>(' ' + v - 32);
}

int CharToSixBit(char c) {
  if (c >= '@' && c <= '_') return c - '@';
  if (c >= ' ' && c <= '?') return 32 + (c - ' ');
  return 0;
}

// Payload armouring alphabet: value v -> v + 48, +8 more if >= 40.
char ArmourChar(int v) {
  return static_cast<char>(v < 40 ? v + 48 : v + 56);
}

int UnarmourChar(char c) {
  int v = c - 48;
  if (v > 40) v -= 8;
  return v;
}

std::string FormatSentence(const std::string& body) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "*%02X", AisCodec::Checksum(body));
  return "!" + body + buf;
}

}  // namespace

void BitWriter::WriteUint(uint64_t value, int width) {
  for (int i = width - 1; i >= 0; --i) {
    bits_.push_back(((value >> i) & 1ULL) != 0);
  }
}

void BitWriter::WriteInt(int64_t value, int width) {
  WriteUint(static_cast<uint64_t>(value) & ((width == 64)
                                                ? ~uint64_t{0}
                                                : ((uint64_t{1} << width) - 1)),
            width);
}

void BitWriter::WriteString(const std::string& text, int chars) {
  for (int i = 0; i < chars; ++i) {
    char c = i < static_cast<int>(text.size())
                 ? static_cast<char>(std::toupper(text[i]))
                 : '@';
    WriteUint(static_cast<uint64_t>(CharToSixBit(c)), 6);
  }
}

uint64_t BitReader::ReadUint(int width) {
  uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value <<= 1;
    if (pos_ < static_cast<int>(bits_.size())) {
      value |= bits_[pos_] ? 1ULL : 0ULL;
      ++pos_;
    }
  }
  return value;
}

int64_t BitReader::ReadInt(int width) {
  uint64_t raw = ReadUint(width);
  // Sign-extend.
  if (width < 64 && (raw & (uint64_t{1} << (width - 1)))) {
    raw |= ~((uint64_t{1} << width) - 1);
  }
  return static_cast<int64_t>(raw);
}

std::string BitReader::ReadString(int chars) {
  std::string out;
  out.reserve(chars);
  for (int i = 0; i < chars; ++i) {
    out.push_back(SixBitToChar(static_cast<int>(ReadUint(6))));
  }
  // Trim trailing padding ('@') and spaces.
  while (!out.empty() && (out.back() == '@' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

uint8_t AisCodec::Checksum(std::string_view body) {
  uint8_t sum = 0;
  for (char c : body) sum = static_cast<uint8_t>(sum ^ c);
  return sum;
}

std::string AisCodec::BitsToPayload(const std::vector<bool>& bits,
                                    int* fill_bits) {
  std::string payload;
  const int groups = (static_cast<int>(bits.size()) + 5) / 6;
  payload.reserve(groups);
  *fill_bits = groups * 6 - static_cast<int>(bits.size());
  for (int g = 0; g < groups; ++g) {
    int v = 0;
    for (int b = 0; b < 6; ++b) {
      const int idx = g * 6 + b;
      v = (v << 1) | (idx < static_cast<int>(bits.size()) && bits[idx] ? 1 : 0);
    }
    payload.push_back(ArmourChar(v));
  }
  return payload;
}

std::vector<bool> AisCodec::PayloadToBits(const std::string& payload,
                                          int fill_bits) {
  std::vector<bool> bits;
  bits.reserve(payload.size() * 6);
  for (char c : payload) {
    const int v = UnarmourChar(c);
    for (int b = 5; b >= 0; --b) bits.push_back(((v >> b) & 1) != 0);
  }
  for (int i = 0; i < fill_bits && !bits.empty(); ++i) bits.pop_back();
  return bits;
}

std::string AisCodec::EncodePosition(const AisPosition& report) {
  BitWriter w;
  w.WriteUint(1, 6);   // message type 1
  w.WriteUint(0, 2);   // repeat indicator
  w.WriteUint(report.mmsi, 30);
  w.WriteUint(static_cast<uint64_t>(report.nav_status), 4);
  // ROT: encoded as 4.733 * sqrt(deg/min), signed 8 bits; 0 = not turning.
  int rot_enc = 0;
  if (report.rot_deg_min != 0.0) {
    const double mag = 4.733 * std::sqrt(std::abs(report.rot_deg_min));
    rot_enc = static_cast<int>(std::clamp(mag, 0.0, 126.0));
    if (report.rot_deg_min < 0) rot_enc = -rot_enc;
  }
  w.WriteInt(rot_enc, 8);
  // SOG in 0.1-knot steps, 1023 = not available.
  const int sog = report.sog_knots >= 102.3
                      ? 1023
                      : static_cast<int>(std::lround(report.sog_knots * 10.0));
  w.WriteUint(static_cast<uint64_t>(std::clamp(sog, 0, 1023)), 10);
  w.WriteUint(1, 1);  // position accuracy: high
  // Lon/lat in 1/10000 minute.
  const int64_t lon =
      static_cast<int64_t>(std::lround(report.position.lon_deg * 600000.0));
  const int64_t lat =
      static_cast<int64_t>(std::lround(report.position.lat_deg * 600000.0));
  w.WriteInt(lon, 28);
  w.WriteInt(lat, 27);
  // COG in 0.1 degrees, 3600 = not available.
  const int cog = report.cog_deg >= 360.0
                      ? 3600
                      : static_cast<int>(std::lround(report.cog_deg * 10.0));
  w.WriteUint(static_cast<uint64_t>(std::clamp(cog, 0, 3600)), 12);
  // True heading, 511 = not available.
  w.WriteUint(static_cast<uint64_t>(std::clamp(report.heading_deg, 0, 511)),
              9);
  // UTC second of the report.
  const int utc_second =
      static_cast<int>((report.timestamp / kMicrosPerSecond) % 60);
  w.WriteUint(static_cast<uint64_t>(utc_second), 6);
  w.WriteUint(0, 2);   // maneuver indicator
  w.WriteUint(0, 3);   // spare
  w.WriteUint(0, 1);   // RAIM
  w.WriteUint(0, 19);  // radio status
  int fill_bits = 0;
  const std::string payload = BitsToPayload(w.bits(), &fill_bits);
  char body[128];
  std::snprintf(body, sizeof(body), "AIVDM,1,1,,A,%s,%d", payload.c_str(),
                fill_bits);
  return FormatSentence(body);
}

std::string AisCodec::EncodePositionClassB(const AisPosition& report) {
  BitWriter w;
  w.WriteUint(18, 6);  // message type 18
  w.WriteUint(0, 2);   // repeat indicator
  w.WriteUint(report.mmsi, 30);
  w.WriteUint(0, 8);  // reserved
  const int sog = report.sog_knots >= 102.3
                      ? 1023
                      : static_cast<int>(std::lround(report.sog_knots * 10.0));
  w.WriteUint(static_cast<uint64_t>(std::clamp(sog, 0, 1023)), 10);
  w.WriteUint(1, 1);  // position accuracy
  const int64_t lon =
      static_cast<int64_t>(std::lround(report.position.lon_deg * 600000.0));
  const int64_t lat =
      static_cast<int64_t>(std::lround(report.position.lat_deg * 600000.0));
  w.WriteInt(lon, 28);
  w.WriteInt(lat, 27);
  const int cog = report.cog_deg >= 360.0
                      ? 3600
                      : static_cast<int>(std::lround(report.cog_deg * 10.0));
  w.WriteUint(static_cast<uint64_t>(std::clamp(cog, 0, 3600)), 12);
  w.WriteUint(static_cast<uint64_t>(std::clamp(report.heading_deg, 0, 511)),
              9);
  const int utc_second =
      static_cast<int>((report.timestamp / kMicrosPerSecond) % 60);
  w.WriteUint(static_cast<uint64_t>(utc_second), 6);
  w.WriteUint(0, 2);   // reserved
  w.WriteUint(1, 1);   // CS unit: carrier sense
  w.WriteUint(0, 1);   // no display
  w.WriteUint(0, 1);   // no DSC
  w.WriteUint(0, 1);   // band flag
  w.WriteUint(0, 1);   // message 22 flag
  w.WriteUint(0, 1);   // assigned mode
  w.WriteUint(0, 1);   // RAIM
  w.WriteUint(0, 20);  // radio status
  int fill_bits = 0;
  const std::string payload = BitsToPayload(w.bits(), &fill_bits);
  char body[128];
  std::snprintf(body, sizeof(body), "AIVDM,1,1,,B,%s,%d", payload.c_str(),
                fill_bits);
  return FormatSentence(body);
}

std::vector<std::string> AisCodec::EncodeStatic(const AisStatic& report) {
  BitWriter w;
  w.WriteUint(5, 6);  // message type 5
  w.WriteUint(0, 2);
  w.WriteUint(report.mmsi, 30);
  w.WriteUint(0, 2);        // AIS version
  w.WriteUint(0, 30);       // IMO number (not modelled)
  w.WriteString("", 7);     // call sign
  w.WriteString(report.name, 20);
  // Ship type: reverse-map the coarse category to a representative ITU code.
  int itu = 0;
  switch (report.type) {
    case VesselType::kFishing:
      itu = 30;
      break;
    case VesselType::kHighSpeedCraft:
      itu = 40;
      break;
    case VesselType::kTug:
      itu = 52;
      break;
    case VesselType::kPassenger:
      itu = 60;
      break;
    case VesselType::kCargo:
      itu = 70;
      break;
    case VesselType::kTanker:
      itu = 80;
      break;
    case VesselType::kPleasureCraft:
      itu = 37;
      break;
    case VesselType::kOther:
      itu = 90;
      break;
    case VesselType::kUnknown:
      itu = 0;
      break;
  }
  w.WriteUint(static_cast<uint64_t>(itu), 8);
  // Dimensions: bow/stern split evenly, port/starboard likewise.
  const int half_len = static_cast<int>(report.length_m / 2.0);
  const int half_beam = static_cast<int>(report.beam_m / 2.0);
  w.WriteUint(static_cast<uint64_t>(std::clamp(half_len, 0, 511)), 9);
  w.WriteUint(static_cast<uint64_t>(std::clamp(half_len, 0, 511)), 9);
  w.WriteUint(static_cast<uint64_t>(std::clamp(half_beam, 0, 63)), 6);
  w.WriteUint(static_cast<uint64_t>(std::clamp(half_beam, 0, 63)), 6);
  w.WriteUint(1, 4);   // EPFD: GPS
  w.WriteUint(0, 20);  // ETA (not modelled)
  // Draught in 0.1 m.
  const int draught = static_cast<int>(std::lround(report.draught_m * 10.0));
  w.WriteUint(static_cast<uint64_t>(std::clamp(draught, 0, 255)), 8);
  w.WriteString(report.destination, 20);
  w.WriteUint(0, 1);  // DTE
  w.WriteUint(0, 1);  // spare
  int fill_bits = 0;
  const std::string payload = BitsToPayload(w.bits(), &fill_bits);
  // Split into two fragments (real type-5 sentences are two fragments
  // because the 424-bit payload exceeds one sentence's capacity).
  const size_t split = 60;
  const std::string part1 = payload.substr(0, split);
  const std::string part2 = payload.substr(std::min(split, payload.size()));
  char body1[160], body2[160];
  std::snprintf(body1, sizeof(body1), "AIVDM,2,1,1,A,%s,0", part1.c_str());
  std::snprintf(body2, sizeof(body2), "AIVDM,2,2,1,A,%s,%d", part2.c_str(),
                fill_bits);
  return {FormatSentence(body1), FormatSentence(body2)};
}

StatusOr<std::string> AisCodec::ExtractPayload(const std::string& sentence) {
  if (sentence.empty() || sentence[0] != '!') {
    return Status::InvalidArgument("AIVDM sentence must start with '!'");
  }
  const size_t star = sentence.rfind('*');
  if (star == std::string::npos || star + 3 > sentence.size()) {
    return Status::InvalidArgument("missing NMEA checksum");
  }
  const std::string body = sentence.substr(1, star - 1);
  const int expected = static_cast<int>(
      std::strtol(sentence.substr(star + 1, 2).c_str(), nullptr, 16));
  if (Checksum(body) != expected) {
    return Status::InvalidArgument("NMEA checksum mismatch");
  }
  // body: AIVDM,<frag_count>,<frag_no>,<seq>,<channel>,<payload>,<fill>
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == ',') {
      fields.push_back(body.substr(start, i - start));
      start = i + 1;
    }
  }
  if (fields.size() != 7 || fields[0] != "AIVDM") {
    return Status::InvalidArgument("malformed AIVDM body");
  }
  return fields[5];
}

StatusOr<AisPosition> AisCodec::DecodePosition(const std::string& sentence,
                                               TimeMicros received_at) {
  MARLIN_ASSIGN_OR_RETURN(std::string payload, ExtractPayload(sentence));
  // Fill bits live in field 6; re-extract cheaply.
  const size_t last_comma = sentence.rfind(',');
  const int fill_bits = sentence[last_comma + 1] - '0';
  BitReader r(PayloadToBits(payload, fill_bits));
  if (r.Remaining() < 168) {
    return Status::InvalidArgument("position payload shorter than 168 bits");
  }
  const int type = static_cast<int>(r.ReadUint(6));
  if ((type < 1 || type > 3) && type != 18) {
    return Status::InvalidArgument("not a position report (type " +
                                   std::to_string(type) + ")");
  }
  r.ReadUint(2);  // repeat
  AisPosition out;
  out.mmsi = static_cast<Mmsi>(r.ReadUint(30));
  if (type == 18) {
    r.ReadUint(8);  // reserved (Class B has no nav status / ROT)
    out.nav_status = NavStatus::kUndefined;
  } else {
    out.nav_status = static_cast<NavStatus>(r.ReadUint(4));
    const int64_t rot_enc = r.ReadInt(8);
    if (rot_enc != 0 && rot_enc != -128) {
      const double mag = static_cast<double>(std::abs(rot_enc)) / 4.733;
      out.rot_deg_min = (rot_enc < 0 ? -1.0 : 1.0) * mag * mag;
    }
  }
  const uint64_t sog = r.ReadUint(10);
  out.sog_knots = sog == 1023 ? 102.3 : static_cast<double>(sog) / 10.0;
  r.ReadUint(1);  // accuracy
  out.position.lon_deg = static_cast<double>(r.ReadInt(28)) / 600000.0;
  out.position.lat_deg = static_cast<double>(r.ReadInt(27)) / 600000.0;
  const uint64_t cog = r.ReadUint(12);
  out.cog_deg = cog >= 3600 ? 360.0 : static_cast<double>(cog) / 10.0;
  out.heading_deg = static_cast<int>(r.ReadUint(9));
  const int utc_second = static_cast<int>(r.ReadUint(6));
  // Reconstruct the full timestamp: align the receive time's second-of-
  // minute with the transmitted UTC second (AIS carries only the second).
  const TimeMicros base_minute =
      (received_at / kMicrosPerMinute) * kMicrosPerMinute;
  TimeMicros ts = base_minute + utc_second * kMicrosPerSecond;
  if (ts > received_at + 5 * kMicrosPerSecond) ts -= kMicrosPerMinute;
  out.timestamp = ts;
  return out;
}

StatusOr<AisCodec::FragmentInfo> AisCodec::ParseFragmentInfo(
    const std::string& sentence) {
  if (sentence.empty() || sentence[0] != '!') {
    return Status::InvalidArgument("AIVDM sentence must start with '!'");
  }
  const size_t star = sentence.rfind('*');
  if (star == std::string::npos) {
    return Status::InvalidArgument("missing NMEA checksum");
  }
  const std::string body = sentence.substr(1, star - 1);
  std::vector<std::string> fields;
  size_t start = 0;
  for (size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == ',') {
      fields.push_back(body.substr(start, i - start));
      start = i + 1;
    }
  }
  if (fields.size() != 7 || fields[0] != "AIVDM") {
    return Status::InvalidArgument("malformed AIVDM body");
  }
  FragmentInfo info;
  info.fragment_count = std::atoi(fields[1].c_str());
  info.fragment_number = std::atoi(fields[2].c_str());
  info.sequence_id = fields[3].empty() ? -1 : std::atoi(fields[3].c_str());
  info.channel = fields[4].empty() ? 'A' : fields[4][0];
  if (info.fragment_count < 1 || info.fragment_number < 1 ||
      info.fragment_number > info.fragment_count) {
    return Status::InvalidArgument("inconsistent fragment numbering");
  }
  // NMEA 0183 gives the count one digit. A larger one is hostile input that
  // would make AivdmAssembler allocate a slot per claimed fragment.
  if (info.fragment_count > 9) {
    return Status::InvalidArgument("fragment count above 9");
  }
  return info;
}

StatusOr<std::vector<std::string>> AivdmAssembler::Feed(
    const std::string& sentence) {
  MARLIN_ASSIGN_OR_RETURN(AisCodec::FragmentInfo info,
                          AisCodec::ParseFragmentInfo(sentence));
  if (info.fragment_count == 1) {
    return std::vector<std::string>{sentence};
  }
  const std::pair<int, char> key{info.sequence_id, info.channel};
  Group& group = pending_[key];
  if (group.fragments.empty()) {
    group.fragments.resize(static_cast<size_t>(info.fragment_count));
    group.age_stamp = next_stamp_++;
  }
  if (static_cast<int>(group.fragments.size()) != info.fragment_count) {
    // Sequence id reused with a different group size: restart the group.
    group.fragments.assign(static_cast<size_t>(info.fragment_count), "");
    group.received = 0;
    group.age_stamp = next_stamp_++;
  }
  std::string& slot =
      group.fragments[static_cast<size_t>(info.fragment_number - 1)];
  if (slot.empty()) ++group.received;
  slot = sentence;
  if (group.received == info.fragment_count) {
    std::vector<std::string> complete = std::move(group.fragments);
    pending_.erase(key);
    return complete;
  }
  // Evict the oldest incomplete groups when too many are pending.
  while (pending_.size() > max_pending_) {
    auto oldest = pending_.begin();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->second.age_stamp < oldest->second.age_stamp) oldest = it;
    }
    pending_.erase(oldest);
  }
  return std::vector<std::string>{};
}

StatusOr<AisStatic> AisCodec::DecodeStatic(
    const std::vector<std::string>& sentences) {
  if (sentences.size() != 2) {
    return Status::InvalidArgument("type-5 report requires 2 fragments");
  }
  std::string payload;
  int fill_bits = 0;
  for (size_t i = 0; i < sentences.size(); ++i) {
    MARLIN_ASSIGN_OR_RETURN(std::string part, ExtractPayload(sentences[i]));
    payload += part;
    const size_t last_comma = sentences[i].rfind(',');
    fill_bits = sentences[i][last_comma + 1] - '0';
  }
  BitReader r(PayloadToBits(payload, fill_bits));
  if (r.Remaining() < 420) {
    return Status::InvalidArgument("static payload too short");
  }
  const int type = static_cast<int>(r.ReadUint(6));
  if (type != 5) {
    return Status::InvalidArgument("not a static report");
  }
  r.ReadUint(2);  // repeat
  AisStatic out;
  out.mmsi = static_cast<Mmsi>(r.ReadUint(30));
  r.ReadUint(2);     // AIS version
  r.ReadUint(30);    // IMO
  r.ReadString(7);   // call sign
  out.name = r.ReadString(20);
  out.type = VesselTypeFromItuCode(static_cast<int>(r.ReadUint(8)));
  const int to_bow = static_cast<int>(r.ReadUint(9));
  const int to_stern = static_cast<int>(r.ReadUint(9));
  const int to_port = static_cast<int>(r.ReadUint(6));
  const int to_starboard = static_cast<int>(r.ReadUint(6));
  out.length_m = to_bow + to_stern;
  out.beam_m = to_port + to_starboard;
  r.ReadUint(4);   // EPFD
  r.ReadUint(20);  // ETA
  out.draught_m = static_cast<double>(r.ReadUint(8)) / 10.0;
  out.destination = r.ReadString(20);
  return out;
}

}  // namespace marlin
