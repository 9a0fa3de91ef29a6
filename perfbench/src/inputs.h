#ifndef MARLIN_PERFBENCH_INPUTS_H_
#define MARLIN_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ais/preprocess.h"
#include "ais/types.h"
#include "geo/world.h"

namespace perfbench {

/// The shape of one named workload. Every field is fixed by the workload
/// name and the scale; only the fleet seed comes from the command line.
struct WorkloadSpec {
  std::string name;
  int vessels = 0;
  /// Front-loaded arrival span of the fleet (0 = all at sea from t0).
  double arrival_span_sec = 0.0;
  /// Untimed warm-up replay at the head of the stream, counted in setup.
  double warmup_sec = 0.0;
  /// Stream fed in the timed phase after the warm-up: the same fixed
  /// window in every repetition.
  double stream_sec = 0.0;
  /// Stream time fed per closed-loop slice (feed, then AwaitQuiescence).
  double slice_sec = 1.0;
  /// Feed pre-encoded AIVDM sentences through Produce()/PumpIngestion()
  /// instead of decoded reports through Ingest().
  bool broker_path = false;
  /// One /viewport scan at every this many quiescent slice boundaries
  /// (the cheaper reads run at every one).
  int scan_every = 20;
  /// Set-ups per repetition whose median over the run is setup_s: the
  /// repetition's own plus set-up-only ones where set-up is short.
  int setups_per_rep = 1;
};

/// Looks up a workload by name; `small` is the smoke-test scale. Returns
/// false for an unknown name.
bool FindWorkload(const std::string& name, bool small, WorkloadSpec* spec);

/// The generated input of one run: the whole stream in feed order, plus
/// the pre-encoded sentences on the broker path. Built before any timing.
struct Inputs {
  std::vector<marlin::AisPosition> reports;
  std::vector<std::string> sentences;  // broker path only, one per report
  /// Index of the first report of the timed phase (end of the warm-up).
  size_t warmup_end = 0;
  /// Stream time of reports[0] region start (the fleet's t0).
  marlin::TimeMicros t0 = 0;
  /// MMSI of the fleet's first vessel; vessel i has mmsi_base + i.
  marlin::Mmsi mmsi_base = 0;
  /// FNV-1a over every fed byte (report fields or sentence + timestamp).
  uint64_t hash = 0;
};

Inputs GenerateInputs(const WorkloadSpec& spec, const marlin::World& world,
                      uint64_t seed);

/// S-VRF training samples cut from a small separate fleet (harness time).
/// Fixed, not seeded: the trained model is part of the system's set-up,
/// and set-up work must not change with the workload seed.
std::vector<marlin::SvrfSample> GenerateTrainingSamples(
    const marlin::World& world);

}  // namespace perfbench

#endif  // MARLIN_PERFBENCH_INPUTS_H_
