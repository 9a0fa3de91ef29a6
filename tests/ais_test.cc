#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ais/codec.h"
#include "ais/preprocess.h"
#include "ais/types.h"
#include "util/rng.h"

namespace marlin {
namespace {

AisPosition MakeReport(Mmsi mmsi, TimeMicros t, double lat, double lon,
                       double sog = 12.0, double cog = 90.0) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = sog;
  p.cog_deg = cog;
  p.heading_deg = static_cast<int>(cog);
  return p;
}

// ---------------------------------------------------------------- Types

TEST(AisTypesTest, VesselTypeFromItuCode) {
  EXPECT_EQ(VesselTypeFromItuCode(70), VesselType::kCargo);
  EXPECT_EQ(VesselTypeFromItuCode(79), VesselType::kCargo);
  EXPECT_EQ(VesselTypeFromItuCode(80), VesselType::kTanker);
  EXPECT_EQ(VesselTypeFromItuCode(60), VesselType::kPassenger);
  EXPECT_EQ(VesselTypeFromItuCode(30), VesselType::kFishing);
  EXPECT_EQ(VesselTypeFromItuCode(36), VesselType::kPleasureCraft);
  EXPECT_EQ(VesselTypeFromItuCode(37), VesselType::kPleasureCraft);
  EXPECT_EQ(VesselTypeFromItuCode(52), VesselType::kTug);
  EXPECT_EQ(VesselTypeFromItuCode(40), VesselType::kHighSpeedCraft);
  EXPECT_EQ(VesselTypeFromItuCode(90), VesselType::kOther);
  EXPECT_EQ(VesselTypeFromItuCode(0), VesselType::kUnknown);
}

TEST(AisTypesTest, VesselTypeNamesStable) {
  EXPECT_EQ(VesselTypeName(VesselType::kCargo), "Cargo");
  EXPECT_EQ(VesselTypeName(VesselType::kTanker), "Tanker");
  EXPECT_EQ(VesselTypeName(VesselType::kUnknown), "Unknown");
}

// ---------------------------------------------------------------- Codec

TEST(AisCodecTest, ChecksumMatchesKnownSentence) {
  // Standard NMEA checksum example: XOR of all chars between ! and *.
  EXPECT_EQ(AisCodec::Checksum("AIVDM,1,1,,A,?,0"),
            AisCodec::Checksum("AIVDM,1,1,,A,?,0"));
}

TEST(AisCodecTest, PayloadBitsRoundTrip) {
  BitWriter w;
  w.WriteUint(0x3FF, 10);
  w.WriteInt(-12345, 20);
  w.WriteUint(7, 3);
  int fill = 0;
  const std::string payload = AisCodec::BitsToPayload(w.bits(), &fill);
  const auto bits = AisCodec::PayloadToBits(payload, fill);
  ASSERT_EQ(bits.size(), w.bits().size());
  BitReader r(bits);
  EXPECT_EQ(r.ReadUint(10), 0x3FFu);
  EXPECT_EQ(r.ReadInt(20), -12345);
  EXPECT_EQ(r.ReadUint(3), 7u);
}

TEST(AisCodecTest, PositionRoundTrip) {
  const TimeMicros t = TimeMicros{1635811200} * kMicrosPerSecond + 37 * kMicrosPerSecond;
  AisPosition original = MakeReport(237846000, t, 37.94213, 23.64611, 14.3, 135.5);
  original.nav_status = NavStatus::kUnderWayUsingEngine;
  const std::string sentence = AisCodec::EncodePosition(original);
  EXPECT_EQ(sentence.front(), '!');
  StatusOr<AisPosition> decoded = AisCodec::DecodePosition(sentence, t);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mmsi, original.mmsi);
  EXPECT_NEAR(decoded->position.lat_deg, original.position.lat_deg, 1e-5);
  EXPECT_NEAR(decoded->position.lon_deg, original.position.lon_deg, 1e-5);
  EXPECT_NEAR(decoded->sog_knots, original.sog_knots, 0.05);
  EXPECT_NEAR(decoded->cog_deg, original.cog_deg, 0.05);
  EXPECT_EQ(decoded->heading_deg, original.heading_deg);
  EXPECT_EQ(decoded->timestamp, original.timestamp);
  EXPECT_EQ(decoded->nav_status, original.nav_status);
}

TEST(AisCodecTest, PositionRoundTripRandomised) {
  Rng rng(61);
  for (int i = 0; i < 300; ++i) {
    const TimeMicros t = TimeMicros{1600000000} * kMicrosPerSecond +
                         rng.UniformInt(int64_t{0}, int64_t{86400}) * kMicrosPerSecond;
    AisPosition p = MakeReport(
        static_cast<Mmsi>(rng.UniformInt(int64_t{200000000}, int64_t{775999999})),
        t, rng.Uniform(-85.0, 85.0), rng.Uniform(-179.9, 179.9),
        rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 359.9));
    const std::string sentence = AisCodec::EncodePosition(p);
    StatusOr<AisPosition> decoded = AisCodec::DecodePosition(sentence, t);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->mmsi, p.mmsi);
    EXPECT_NEAR(decoded->position.lat_deg, p.position.lat_deg, 2e-6 + 1e-6);
    EXPECT_NEAR(decoded->position.lon_deg, p.position.lon_deg, 2e-6 + 1e-6);
    EXPECT_NEAR(decoded->sog_knots, p.sog_knots, 0.051);
    EXPECT_NEAR(decoded->cog_deg, p.cog_deg, 0.051);
  }
}

TEST(AisCodecTest, SogNotAvailableEncoding) {
  AisPosition p = MakeReport(205000000, kMicrosPerSecond, 40.0, -70.0);
  p.sog_knots = 102.3;
  const std::string sentence = AisCodec::EncodePosition(p);
  StatusOr<AisPosition> decoded =
      AisCodec::DecodePosition(sentence, kMicrosPerSecond);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->sog_knots, 102.3);
}

TEST(AisCodecTest, RejectsCorruptedChecksum) {
  AisPosition p = MakeReport(205000000, kMicrosPerSecond, 40.0, -70.0);
  std::string sentence = AisCodec::EncodePosition(p);
  // Flip one payload character.
  sentence[20] = sentence[20] == 'A' ? 'B' : 'A';
  StatusOr<AisPosition> decoded =
      AisCodec::DecodePosition(sentence, kMicrosPerSecond);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(AisCodecTest, RejectsGarbage) {
  EXPECT_FALSE(AisCodec::DecodePosition("hello world", 0).ok());
  EXPECT_FALSE(AisCodec::DecodePosition("", 0).ok());
  EXPECT_FALSE(AisCodec::DecodePosition("!AIVDM,1,1,,A", 0).ok());
}

TEST(AisCodecTest, StaticRoundTrip) {
  AisStatic original;
  original.mmsi = 239000123;
  original.name = "MARLIN TEST";
  original.type = VesselType::kTanker;
  original.length_m = 240.0;
  original.beam_m = 38.0;
  original.draught_m = 12.4;
  original.destination = "PIRAEUS";
  const auto sentences = AisCodec::EncodeStatic(original);
  ASSERT_EQ(sentences.size(), 2u);
  StatusOr<AisStatic> decoded = AisCodec::DecodeStatic(sentences);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mmsi, original.mmsi);
  EXPECT_EQ(decoded->name, original.name);
  EXPECT_EQ(decoded->type, original.type);
  EXPECT_NEAR(decoded->length_m, original.length_m, 2.0);
  EXPECT_NEAR(decoded->beam_m, original.beam_m, 2.0);
  EXPECT_NEAR(decoded->draught_m, original.draught_m, 0.05);
  EXPECT_EQ(decoded->destination, original.destination);
}

TEST(AisCodecTest, StaticRequiresTwoFragments) {
  EXPECT_FALSE(AisCodec::DecodeStatic({}).ok());
  EXPECT_FALSE(AisCodec::DecodeStatic({"!AIVDM,1,1,,A,0,0*00"}).ok());
}

/// Re-seals `sentence` with a valid NMEA checksum over whatever lies
/// between the leading '!' and the last '*', so a mutation reaches the
/// field parsers instead of stopping at the checksum.
std::string Reseal(const std::string& sentence) {
  const size_t begin = !sentence.empty() && sentence[0] == '!' ? 1 : 0;
  size_t star = sentence.rfind('*');
  if (star == std::string::npos || star < begin) star = sentence.size();
  const std::string body = sentence.substr(begin, star - begin);
  char checksum[8];
  std::snprintf(checksum, sizeof(checksum), "*%02X",
                AisCodec::Checksum(body));
  return "!" + body + checksum;
}

TEST(AisCodecTest, FragmentCountAboveNineIsRejected) {
  // The assembler sizes a group by the claimed count, so a hostile count
  // (up to INT_MAX) must be refused before it reaches Feed's allocation.
  const std::string sentence = Reseal("!AIVDM,10,1,7,A,0,0");
  EXPECT_FALSE(AisCodec::ParseFragmentInfo(sentence).ok());
  AivdmAssembler assembler;
  EXPECT_FALSE(assembler.Feed(sentence).ok());
  EXPECT_EQ(assembler.PendingGroups(), 0u);
}

/// A checksum-correct sentence whose fields are random: numeric-looking
/// fragment fields (sometimes above 9 or negative), a random channel, and a
/// payload drawn from the armouring alphabet or from any byte.
std::string RandomSealedSentence(Rng& rng) {
  auto number = [&rng]() -> std::string {
    switch (rng.UniformInt(uint64_t{6})) {
      case 0:
        return "";
      case 1:
        return std::to_string(rng.UniformInt(int64_t{-3}, int64_t{0}));
      case 2:
        return std::to_string(rng.UniformInt(int64_t{10}, int64_t{99'999}));
      default:
        return std::to_string(rng.UniformInt(int64_t{1}, int64_t{9}));
    }
  };
  std::string payload(rng.UniformInt(uint64_t{120}), '0');
  const bool armoured = rng.UniformInt(uint64_t{4}) != 0;
  for (char& c : payload) {
    c = armoured ? static_cast<char>(48 + rng.UniformInt(uint64_t{64}) +
                                     (rng.UniformInt(uint64_t{2}) * 8))
                 : static_cast<char>(rng.UniformInt(uint64_t{256}));
  }
  std::string body = "AIVDM," + number() + "," + number() + "," + number() +
                     "," + std::string(1, "AB1~"[rng.UniformInt(uint64_t{4})]) +
                     "," + payload + "," +
                     std::to_string(rng.UniformInt(int64_t{-1}, int64_t{9}));
  return Reseal("!" + body);
}

TEST(AisCodecTest, SeededMutationFuzzNeverCrashes) {
  // Byte flips, truncations, splices and checksum-correct garbage fed to
  // every AIVDM entry point. Whatever is accepted must be self-consistent;
  // everything else must fail cleanly. Seeded so a failure replays exactly.
  Rng rng(0xA1D0F2u);
  const TimeMicros t = TimeMicros{1635811200} * kMicrosPerSecond;
  std::vector<std::string> corpus;
  for (int i = 0; i < 16; ++i) {
    AisPosition p = MakeReport(
        static_cast<Mmsi>(rng.UniformInt(int64_t{200000000},
                                         int64_t{775999999})),
        t, rng.Uniform(-85.0, 85.0), rng.Uniform(-179.9, 179.9),
        rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 359.9));
    corpus.push_back(i % 2 == 0 ? AisCodec::EncodePosition(p)
                                : AisCodec::EncodePositionClassB(p));
    AisStatic s;
    s.mmsi = p.mmsi;
    s.name = "FUZZ " + std::to_string(i);
    s.destination = "PORT";
    for (std::string& fragment : AisCodec::EncodeStatic(s)) {
      corpus.push_back(std::move(fragment));
    }
  }

  AivdmAssembler assembler(8);
  int decoded_positions = 0;
  int decoded_statics = 0;
  for (int iter = 0; iter < 160'000; ++iter) {
    const std::string& base = corpus[rng.UniformInt(corpus.size())];
    std::string mutated;
    switch (rng.UniformInt(uint64_t{4})) {
      case 0: {  // byte flips
        mutated = base;
        const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
        for (int f = 0; f < flips; ++f) {
          mutated[rng.UniformInt(mutated.size())] =
              static_cast<char>(rng.UniformInt(uint64_t{256}));
        }
        break;
      }
      case 1:  // truncation
        mutated = base.substr(0, rng.UniformInt(base.size() + 1));
        break;
      case 2: {  // splice two corpus sentences at random cut points
        const std::string& other = corpus[rng.UniformInt(corpus.size())];
        mutated = base.substr(0, rng.UniformInt(base.size() + 1)) +
                  other.substr(rng.UniformInt(other.size() + 1));
        break;
      }
      default:
        mutated = RandomSealedSentence(rng);
        break;
    }
    if (rng.UniformInt(uint64_t{2}) == 0) mutated = Reseal(mutated);

    StatusOr<AisPosition> position = AisCodec::DecodePosition(mutated, t);
    if (position.ok()) {
      ++decoded_positions;
      EXPECT_LT(position->mmsi, Mmsi{1} << 30);
      EXPECT_TRUE(std::isfinite(position->position.lat_deg));
      EXPECT_TRUE(std::isfinite(position->position.lon_deg));
    }
    StatusOr<AisCodec::FragmentInfo> info =
        AisCodec::ParseFragmentInfo(mutated);
    if (info.ok()) {
      EXPECT_GE(info->fragment_number, 1);
      EXPECT_LE(info->fragment_number, info->fragment_count);
      EXPECT_LE(info->fragment_count, 9);
    }
    StatusOr<std::vector<std::string>> group = assembler.Feed(mutated);
    EXPECT_EQ(group.ok(), info.ok());
    EXPECT_LE(assembler.PendingGroups(), 8u);
    if (group.ok() && !group->empty()) {
      for (const std::string& fragment : *group) EXPECT_FALSE(fragment.empty());
      if (AisCodec::DecodeStatic(*group).ok()) ++decoded_statics;
    }
    // A mutated fragment paired with an intact one, in both orders.
    const std::string& intact = corpus[rng.UniformInt(corpus.size())];
    if (AisCodec::DecodeStatic({mutated, intact}).ok()) ++decoded_statics;
    if (AisCodec::DecodeStatic({intact, mutated}).ok()) ++decoded_statics;
  }
  // The reseal step lets a share of mutations through to the decoders.
  EXPECT_GT(decoded_positions, 0);
  EXPECT_GT(decoded_statics, 0);
}

// ---------------------------------------------------------- Downsampler

TEST(DownsamplerTest, EnforcesMinimumInterval) {
  Downsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(0));
  EXPECT_FALSE(ds.Accept(10 * kMicrosPerSecond));
  EXPECT_FALSE(ds.Accept(29 * kMicrosPerSecond));
  EXPECT_TRUE(ds.Accept(30 * kMicrosPerSecond));
  EXPECT_TRUE(ds.Accept(75 * kMicrosPerSecond));
}

TEST(DownsamplerTest, RejectsOutOfOrder) {
  Downsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(100 * kMicrosPerSecond));
  EXPECT_FALSE(ds.Accept(50 * kMicrosPerSecond));
}

TEST(DownsamplerTest, ResetForgetsHistory) {
  Downsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(100 * kMicrosPerSecond));
  ds.Reset();
  EXPECT_TRUE(ds.Accept(0));
}

TEST(FleetDownsamplerTest, IndependentPerVessel) {
  FleetDownsampler ds(30 * kMicrosPerSecond);
  EXPECT_TRUE(ds.Accept(111, 0));
  EXPECT_TRUE(ds.Accept(222, 0));
  EXPECT_FALSE(ds.Accept(111, 10 * kMicrosPerSecond));
  EXPECT_FALSE(ds.Accept(222, 10 * kMicrosPerSecond));
  EXPECT_TRUE(ds.Accept(111, 31 * kMicrosPerSecond));
  EXPECT_EQ(ds.TrackedVessels(), 2u);
}

// ---------------------------------------------------------- Segmentation

TEST(SegmentTrajectoryTest, SplitsOnGaps) {
  std::vector<AisPosition> track;
  TimeMicros t = 0;
  for (int i = 0; i < 10; ++i) {
    track.push_back(MakeReport(1, t, 38.0 + 0.001 * i, 24.0));
    t += kMicrosPerMinute;
  }
  t += 2 * 60 * kMicrosPerMinute;  // 2-hour gap
  for (int i = 0; i < 5; ++i) {
    track.push_back(MakeReport(1, t, 39.0 + 0.001 * i, 24.0));
    t += kMicrosPerMinute;
  }
  const auto segments = SegmentTrajectory(track, 30 * kMicrosPerMinute);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].size(), 10u);
  EXPECT_EQ(segments[1].size(), 5u);
}

TEST(SegmentTrajectoryTest, DropsSingletonSegments) {
  std::vector<AisPosition> track;
  track.push_back(MakeReport(1, 0, 38.0, 24.0));
  track.push_back(MakeReport(1, 100 * kMicrosPerMinute, 38.5, 24.0));
  track.push_back(MakeReport(1, 200 * kMicrosPerMinute, 39.0, 24.0));
  const auto segments = SegmentTrajectory(track, 30 * kMicrosPerMinute);
  EXPECT_TRUE(segments.empty());
}

TEST(SegmentTrajectoryTest, EmptyInput) {
  EXPECT_TRUE(SegmentTrajectory({}, kMicrosPerMinute).empty());
}

TEST(InterpolatePositionTest, LinearBetweenPoints) {
  std::vector<AisPosition> segment;
  segment.push_back(MakeReport(1, 0, 38.0, 24.0));
  segment.push_back(MakeReport(1, 10 * kMicrosPerMinute, 39.0, 25.0));
  StatusOr<LatLng> mid = InterpolatePosition(segment, 5 * kMicrosPerMinute);
  ASSERT_TRUE(mid.ok());
  EXPECT_NEAR(mid->lat_deg, 38.5, 1e-9);
  EXPECT_NEAR(mid->lon_deg, 24.5, 1e-9);
}

TEST(InterpolatePositionTest, ExactEndpoints) {
  std::vector<AisPosition> segment;
  segment.push_back(MakeReport(1, 0, 38.0, 24.0));
  segment.push_back(MakeReport(1, 10 * kMicrosPerMinute, 39.0, 25.0));
  EXPECT_NEAR(InterpolatePosition(segment, 0)->lat_deg, 38.0, 1e-12);
  EXPECT_NEAR(InterpolatePosition(segment, 10 * kMicrosPerMinute)->lat_deg,
              39.0, 1e-12);
}

TEST(InterpolatePositionTest, OutsideSpanFails) {
  std::vector<AisPosition> segment;
  segment.push_back(MakeReport(1, kMicrosPerMinute, 38.0, 24.0));
  segment.push_back(MakeReport(1, 2 * kMicrosPerMinute, 39.0, 25.0));
  EXPECT_FALSE(InterpolatePosition(segment, 0).ok());
  EXPECT_FALSE(InterpolatePosition(segment, 3 * kMicrosPerMinute).ok());
  EXPECT_FALSE(InterpolatePosition({}, 0).ok());
}

// ---------------------------------------------------------- Sample builder

std::vector<AisPosition> StraightTrack(Mmsi mmsi, int points,
                                       TimeMicros interval,
                                       double lat0 = 38.0, double lon0 = 24.0) {
  // Eastward at ~12 knots: about 0.0033 deg lon per minute at lat 38.
  std::vector<AisPosition> track;
  for (int i = 0; i < points; ++i) {
    const double minutes =
        static_cast<double>(i) * static_cast<double>(interval) / kMicrosPerMinute;
    track.push_back(
        MakeReport(mmsi, i * interval, lat0, lon0 + 0.0033 * minutes));
  }
  return track;
}

TEST(BuildSvrfSamplesTest, ProducesFixedShapeSamples) {
  // 1-minute spacing, 120 points = 2 hours. Anchors need 20 history points
  // and 30 minutes of future -> plenty of samples.
  const auto track = StraightTrack(1, 120, kMicrosPerMinute);
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_GT(samples.size(), 10u);
  for (const auto& s : samples) {
    for (const auto& d : s.input.displacements) {
      EXPECT_GT(d.dt_sec, 0.0);
    }
    for (const auto& t : s.targets) {
      EXPECT_DOUBLE_EQ(t.dt_sec, 300.0);
    }
  }
}

TEST(BuildSvrfSamplesTest, TargetsMatchGroundTruthOnStraightTrack) {
  const auto track = StraightTrack(1, 120, kMicrosPerMinute);
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_FALSE(samples.empty());
  // Constant eastward speed: every 5-minute transition is 5*0.0033 deg lon.
  for (const auto& s : samples) {
    for (const auto& t : s.targets) {
      EXPECT_NEAR(t.dlon_deg, 0.0165, 1e-9);
      EXPECT_NEAR(t.dlat_deg, 0.0, 1e-9);
    }
  }
}

TEST(BuildSvrfSamplesTest, TooShortTrackYieldsNothing) {
  const auto track = StraightTrack(1, 15, kMicrosPerMinute);
  EXPECT_TRUE(BuildSvrfSamples(track, SampleBuilderOptions{}).empty());
}

TEST(BuildSvrfSamplesTest, StrideReducesSampleCount) {
  const auto track = StraightTrack(1, 200, kMicrosPerMinute);
  SampleBuilderOptions dense;
  SampleBuilderOptions sparse;
  sparse.stride = 5;
  const auto a = BuildSvrfSamples(track, dense);
  const auto b = BuildSvrfSamples(track, sparse);
  EXPECT_GT(a.size(), b.size() * 3);
}

TEST(BuildSvrfSamplesTest, DownsamplingShrinksDenseTracks) {
  // 10-second spacing gets reduced to >= 30 s spacing first.
  const auto track = StraightTrack(1, 720, 10 * kMicrosPerSecond);
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    for (const auto& d : s.input.displacements) {
      EXPECT_GE(d.dt_sec, 30.0);
    }
  }
}

// ---------------------------------------------------------- VesselHistory

TEST(VesselHistoryTest, BecomesReadyAfter21AcceptedPoints) {
  VesselHistory history;
  TimeMicros t = 0;
  for (int i = 0; i < kSvrfInputLength; ++i) {
    EXPECT_TRUE(history.Push(MakeReport(1, t, 38.0, 24.0 + i * 0.001)));
    EXPECT_FALSE(history.Ready());
    t += kMicrosPerMinute;
  }
  EXPECT_TRUE(history.Push(MakeReport(1, t, 38.0, 25.0)));
  EXPECT_TRUE(history.Ready());
}

TEST(VesselHistoryTest, DownsamplesAndRejectsStale) {
  VesselHistory history;
  EXPECT_TRUE(history.Push(MakeReport(1, kMicrosPerMinute, 38.0, 24.0)));
  // Too soon (< 30 s after).
  EXPECT_FALSE(history.Push(
      MakeReport(1, kMicrosPerMinute + 5 * kMicrosPerSecond, 38.0, 24.0)));
  // Older timestamp.
  EXPECT_FALSE(history.Push(MakeReport(1, 0, 38.0, 24.0)));
  EXPECT_EQ(history.size(), 1u);
}

TEST(VesselHistoryTest, MakeInputUsesMostRecentWindow) {
  VesselHistory history;
  TimeMicros t = 0;
  for (int i = 0; i < 40; ++i) {
    history.Push(MakeReport(1, t, 38.0, 24.0 + i * 0.01));
    t += kMicrosPerMinute;
  }
  ASSERT_TRUE(history.Ready());
  const SvrfInput input = history.MakeInput();
  EXPECT_NEAR(input.anchor.lon_deg, 24.0 + 39 * 0.01, 1e-9);
  for (const auto& d : input.displacements) {
    EXPECT_NEAR(d.dlon_deg, 0.01, 1e-9);
    EXPECT_NEAR(d.dt_sec, 60.0, 1e-9);
  }
}

TEST(VesselHistoryTest, ClearResets) {
  VesselHistory history;
  for (int i = 0; i < 30; ++i) {
    history.Push(MakeReport(1, i * kMicrosPerMinute, 38.0, 24.0));
  }
  history.Clear();
  EXPECT_EQ(history.size(), 0u);
  EXPECT_FALSE(history.Ready());
  EXPECT_EQ(history.Latest(), nullptr);
  EXPECT_TRUE(history.Push(MakeReport(1, 0, 38.0, 24.0)));
}

}  // namespace
}  // namespace marlin
