// Pipeline benchmark: runs MaritimePipeline end to end on one named
// workload and prints one JSON line with its measurements and output checks.
//
//   pipeline_bench --workload steady_forecast --seed 1 --seconds 40
//       --trace 0 [--scale full|small] [--out DIR]
//
// A closed loop on one feeding thread feeds one stream-time slice, calls
// AwaitQuiescence(), and moves on. Inputs come from the seeded des::EventFleet
// and are generated once, before any timing. The run repeats set-up (S-VRF
// training, Start() and the warm-up replay), the timed loop over a fixed
// stream window and the read probe on fresh pipelines over the same input
// until --seconds have passed, and reports medians of their CPU-time costs.
// --trace 1 makes one untraced and one traced repetition and reports
// per-layer numbers from the traced one; see perfbench/README.md.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "ais/codec.h"
#include "core/pipeline.h"
#include "geo/world.h"
#include "inputs.h"
#include "middleware/api_service.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "vrf/svrf_model.h"

namespace perfbench {
namespace {

using marlin::AisPosition;
using marlin::Mmsi;
using marlin::TimeMicros;

constexpr int kThreads = 2;
// Records per PumpIngestion call: below the larger surge slices, so the
// consumer carries a backlog between polls that marlin_consumer_lag shows.
constexpr int kPumpBatch = 256;

// ---------------------------------------------------------------- helpers

/// Linear-interpolated quantile (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long total = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &total, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// CPU time used by every thread of this process so far, in ns. The guest
/// kernel leaves out what the host stole (paravirtual steal accounting),
/// and a thread blocked in a wait uses none, so differences measure the
/// work done rather than how the host scheduled it.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

/// Host CPU time stolen from this machine so far (the `steal` column of
/// /proc/stat, all CPUs, in clock ticks); 0 where unavailable.
double StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) : 0.0;
}

/// Time on a CPU of every thread of this process, in ns by kernel thread
/// id, from /proc/self/task/<tid>/schedstat. Empty where unavailable.
std::map<int, double> OnCpuNs() {
  std::map<int, double> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path =
        std::string("/proc/self/task/") + entry->d_name + "/schedstat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long on_cpu = 0;
    if (std::fscanf(f, "%llu", &on_cpu) == 1) {
      out[std::atoi(entry->d_name)] = static_cast<double>(on_cpu);
    }
    std::fclose(f);
  }
  closedir(dir);
  return out;
}

template <typename Num, typename Den>
double Ratio(Num num, Den den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Ordered one-line JSON object writer.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  Json& Obj(const std::string& key, const Json& value) {
    return Raw(key, value.str());
  }
  Json& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------- queries

/// The five read routes.
enum Route {
  kVessel,
  kVesselForecast,
  kVesselEvents,
  kEvents,
  kViewport,
  kRoutes
};
const char* const kRouteNames[kRoutes] = {"vessel", "vessel_forecast",
                                          "vessel_events", "events",
                                          "viewport"};
// A fixed North Sea / Channel box: busy lanes in GlobalWorld.
const char* const kViewportTarget =
    "/viewport?min_lat=48&min_lon=-6&max_lat=58&max_lon=10";

std::string RouteTarget(Route route, Mmsi mmsi) {
  const std::string vessel = "/vessels/" + std::to_string(mmsi);
  switch (route) {
    case kVessel: return vessel;
    case kVesselForecast: return vessel + "/forecast";
    case kVesselEvents: return vessel + "/events";
    case kEvents: return "/events?limit=50";
    default: return kViewportTarget;
  }
}

// ------------------------------------------------------- registry reading

/// Cached handles onto the pipeline's exported marlin_* instruments.
struct Instruments {
  Instruments(marlin::obs::MetricsRegistry* r, const std::string& topic,
              const std::string& group) {
    processed = r->GetCounter("marlin_actor_messages_processed_total", "");
    dropped = r->GetCounter("marlin_actor_messages_dropped_total", "");
    spawned = r->GetCounter("marlin_actor_spawned_total", "");
    live = r->GetGauge("marlin_actor_live", "");
    highwater = r->GetGauge("marlin_actor_mailbox_highwater", "");
    for (const char* op : {"set", "get", "hset", "hget", "hgetall", "del",
                           "scan", "snapshot"}) {
      kv[op] = r->GetCounter("marlin_kv_ops_total", "", {{"op", op}});
    }
    for (const char* s : {"ingest", "position", "forecast", "write"}) {
      stage[s] = r->GetHistogram("marlin_pipeline_stage_nanos", "",
                                 {{"stage", s}});
    }
    nn_batch = r->GetHistogram("marlin_nn_inference_batch_size", "");
    nn_nanos = r->GetHistogram("marlin_nn_inference_nanos", "",
                                {{"mode", "batched"}});
    const marlin::obs::Labels consumer = {{"group", group}, {"topic", topic}};
    lag = r->GetGauge("marlin_consumer_lag", "", consumer);
    polled = r->GetCounter("marlin_broker_poll_records_total", "", consumer);
  }
  marlin::obs::Counter* processed;
  marlin::obs::Counter* dropped;
  marlin::obs::Counter* spawned;
  marlin::obs::Gauge* live;
  marlin::obs::Gauge* highwater;
  std::map<std::string, marlin::obs::Counter*> kv;
  std::map<std::string, marlin::obs::Histogram*> stage;
  marlin::obs::Histogram* nn_batch;
  marlin::obs::Histogram* nn_nanos;
  marlin::obs::Gauge* lag;
  marlin::obs::Counter* polled;
};

/// Counter and histogram values at one instant; deltas give the timed phase.
struct Reading {
  explicit Reading(const Instruments& in) {
    processed = static_cast<double>(in.processed->Value());
    dropped = static_cast<double>(in.dropped->Value());
    spawned = static_cast<double>(in.spawned->Value());
    for (const auto& [op, c] : in.kv) {
      kv_ops += static_cast<double>(c->Value());
      if (op == "set" || op == "hset") {
        kv_writes += static_cast<double>(c->Value());
      }
    }
    for (const auto& [s, h] : in.stage) stage[s] = h->TakeSnapshot();
    nn_batch = in.nn_batch->TakeSnapshot();
    nn_nanos = in.nn_nanos->TakeSnapshot();
    polled = static_cast<double>(in.polled->Value());
  }
  double processed = 0, dropped = 0, spawned = 0, kv_ops = 0, kv_writes = 0;
  double polled = 0;
  std::map<std::string, marlin::obs::Histogram::Snapshot> stage;
  marlin::obs::Histogram::Snapshot nn_batch, nn_nanos;
};

double DeltaMean(const marlin::obs::Histogram::Snapshot& a,
                 const marlin::obs::Histogram::Snapshot& b) {
  return Ratio(b.sum - a.sum, static_cast<double>(b.count - a.count));
}

/// Quantile of the observations made between two snapshots, interpolated
/// inside the histogram's buckets (so only as fine as the bucket bounds).
double DeltaQuantile(const marlin::obs::Histogram::Snapshot& a,
                     const marlin::obs::Histogram::Snapshot& b, double q) {
  const double total = static_cast<double>(b.count - a.count);
  if (total <= 0 || a.buckets.size() != b.buckets.size()) return 0.0;
  double lower = 0.0, below = 0.0;
  for (size_t i = 0; i < b.buckets.size(); ++i) {
    const double cum = static_cast<double>(b.buckets[i].cumulative_count -
                                           a.buckets[i].cumulative_count);
    const double upper = std::isfinite(b.buckets[i].upper_bound)
                             ? b.buckets[i].upper_bound
                             : lower * 4.0;
    if (cum >= q * total) {
      const double in_bucket = cum - below;
      return lower + (upper - lower) * Ratio(q * total - below, in_bucket);
    }
    lower = upper;
    below = cum;
  }
  return lower;
}

// ---------------------------------------------------------------- a run

/// One pipeline lifetime: set-up, the timed closed loop, reads, checks.
class Run {
 public:
  Run(const WorkloadSpec& spec, const Inputs& inputs,
      const std::vector<marlin::SvrfSample>& training, uint64_t seed,
      bool traced)
      : spec_(spec),
        in_(inputs),
        training_(training),
        traced_(traced),
        rng_(seed ^ 0x51CE5EEDULL),
        seen_(static_cast<size_t>(spec.vessels), false) {}

  /// S-VRF training, Start() and the warm-up replay. Returns the CPU
  /// seconds they took.
  double Setup() {
    rss_base_mb_ = RssMb();
    const int64_t t = NowNs();
    const int64_t cpu = CpuNs();
    marlin::SvrfModel::Config model_config;
    model_config.hidden_dim = 12;
    model_config.dense_dim = 12;
    auto model = std::make_shared<marlin::SvrfModel>(model_config);
    marlin::Trainer::Options train;
    train.epochs = 6;
    train.batch_size = 64;
    train.learning_rate = 3e-3;
    model->Train(training_, {}, train);
    std::shared_ptr<const marlin::RouteForecaster> forecaster = model;
    marlin::PipelineConfig config;
    config.metrics = &registry_;
    config.actor_system.num_threads = kThreads;
    if (traced_) {
      forecaster = std::make_shared<TimedForecaster>(forecaster);
      config.actor_system.dispatcher =
          std::make_shared<TimedDispatcher>(kThreads);
    }
    pipeline_ = std::make_unique<marlin::MaritimePipeline>(forecaster, config);
    MARLIN_CHECK(pipeline_->Start().ok());
    api_ = std::make_unique<marlin::ApiService>(pipeline_.get());
    instruments_ = std::make_unique<Instruments>(
        &registry_, config.topic, config.consumer_group);
    fed_end_ = Loop(0, in_.warmup_end, in_.t0, /*timed=*/false);
    setup_s_ = static_cast<double>(CpuNs() - cpu) * 1e-9;
    setup_wall_s_ = static_cast<double>(NowNs() - t) * 1e-9;
    warmup_forecasts_ = pipeline_->Stats().forecasts_generated;
    return setup_s_;
  }

  /// The timed closed loop over the rest of the stream: the same fixed
  /// stream window in every repetition.
  void Timed() {
    before_ = std::make_unique<Reading>(*instruments_);
    stats_before_ = pipeline_->Stats();
    const TimeMicros start =
        in_.t0 + static_cast<TimeMicros>(spec_.warmup_sec *
                                         marlin::kMicrosPerSecond);
    timed_start_ = start;
    tracing_ = traced_;
    Trace::Get().set_enabled(traced_);
    const double steal_before = StealTicks();
    if (traced_) cpu_before_ = OnCpuNs();
    const int64_t t = NowNs();
    phase_start_ns_ = t;
    fed_end_ = Loop(in_.warmup_end, in_.reports.size(), start, true);
    phase_end_ns_ = NowNs();
    if (traced_) cpu_after_ = OnCpuNs();
    Trace::Get().set_enabled(false);
    tracing_ = false;
    wall_s_ = static_cast<double>(phase_end_ns_ - t - probe_ns_) * 1e-9;
    steal_share_ = Ratio((StealTicks() - steal_before) /
                             static_cast<double>(sysconf(_SC_CLK_TCK)),
                         wall_s_ * static_cast<double>(
                                       sysconf(_SC_NPROCESSORS_ONLN)));
    after_ = std::make_unique<Reading>(*instruments_);
    stats_after_ = pipeline_->Stats();
    keys_end_ = static_cast<double>(pipeline_->store().Size());
    live_end_ = static_cast<double>(instruments_->live->Value());
    highwater_ = static_cast<double>(instruments_->highwater->Value());
  }

  /// Output checks derived from the generated input. Returns the names of
  /// the failed checks.
  std::vector<std::string> Check() {
    std::vector<std::string> failures;
    const int64_t fed = static_cast<int64_t>(fed_end_);
    const marlin::PipelineStats stats = pipeline_->Stats();
    if (stats.positions_ingested != fed) {
      failures.push_back("positions_ingested " +
                         std::to_string(stats.positions_ingested) +
                         " != messages fed " + std::to_string(fed));
    }
    // Last fed report per vessel, as the store should hold it.
    std::vector<int64_t> last(static_cast<size_t>(spec_.vessels), -1);
    for (size_t i = 0; i < fed_end_; ++i) {
      last[in_.reports[i].mmsi - in_.mmsi_base] = static_cast<int64_t>(i);
    }
    size_t distinct = 0, ts_mismatch = 0, not_200 = 0, probed = 0;
    marlin::KvStore& store = pipeline_->store();
    for (size_t v = 0; v < last.size(); ++v) {
      if (last[v] < 0) continue;
      ++distinct;
      const size_t i = static_cast<size_t>(last[v]);
      TimeMicros expected = in_.reports[i].timestamp;
      if (spec_.broker_path) {
        auto decoded = marlin::AisCodec::DecodePosition(
            in_.sentences[i], in_.reports[i].timestamp);
        expected = decoded.ok() ? decoded->timestamp : -1;
      }
      const Mmsi mmsi = in_.mmsi_base + static_cast<Mmsi>(v);
      const std::string key = "vessel:" + std::to_string(mmsi);
      auto ts = store.HGet(key, "ts");
      if (!ts.ok() || *ts != std::to_string(expected)) ++ts_mismatch;
      if (distinct % 16 == 1) {  // every 16th vessel through the API
        ++probed;
        if (api_->Handle("GET", "/vessels/" + std::to_string(mmsi)).status !=
            200) {
          ++not_200;
        }
      }
    }
    const size_t keys = store.ScanPrefix("vessel:").size();
    if (keys != distinct) {
      failures.push_back("vessel keys " + std::to_string(keys) +
                         " != distinct MMSIs fed " + std::to_string(distinct));
    }
    if (ts_mismatch != 0) {
      failures.push_back(std::to_string(ts_mismatch) +
                         " vessel hashes whose ts is not the last report");
    }
    if (not_200 != 0) {
      failures.push_back(std::to_string(not_200) + " of " +
                         std::to_string(probed) +
                         " /vessels/{mmsi} reads not 200");
    }
    vessels_fed_ = static_cast<int64_t>(distinct);
    vessel_keys_ = static_cast<int64_t>(keys);
    return failures;
  }

  void Stop() { pipeline_->Stop(); }

  // Results.
  double setup_s() const { return setup_s_; }
  double setup_wall_s() const { return setup_wall_s_; }
  int64_t warmup_forecasts() const { return warmup_forecasts_; }
  int64_t fed() const {
    return static_cast<int64_t>(fed_end_ - in_.warmup_end);
  }
  /// Share of the machine's CPU time the host took away while timed.
  double steal_share() const { return steal_share_; }
  double throughput() const { return Ratio(fed(), wall_s_); }
  /// CPU time of the whole process per message fed, summed over the
  /// timed slices (feeding, every actor and the batcher), in us.
  double cpu_us_per_msg() const {
    double ms = 0.0;
    for (const double v : slice_cpu_ms_) ms += v;
    return Ratio(ms * 1e3, fed());
  }
  const std::vector<double>& slice_ms() const { return slice_ms_; }
  const std::vector<double>& slice_cpu_ms() const { return slice_cpu_ms_; }
  /// forecasts_generated at each timed quiescent slice boundary.
  const std::vector<int64_t>& slice_forecasts() const {
    return slice_forecasts_;
  }
  double rss_mb() const { return rss_peak_mb_ - rss_base_mb_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const {
    // Records the pump dropped, plus actor messages dropped while timed.
    const int64_t pump_drops = spec_.broker_path ? produced_ok_ - pumped_ : 0;
    const int64_t actor_drops =
        after_ ? static_cast<int64_t>(after_->dropped - before_->dropped) : 0;
    return failed_ + pump_drops + actor_drops;
  }
  const std::vector<double>& query_us(Route r) const { return query_us_[r]; }
  const std::vector<double>& query_cpu_us(Route r) const {
    return query_cpu_us_[r];
  }
  /// CPU time of the three Ask routes read back to back, per boundary.
  const std::vector<double>& asks_cpu_us() const { return asks_cpu_us_; }
  int64_t vessels_fed() const { return vessels_fed_; }
  int64_t vessel_keys() const { return vessel_keys_; }
  marlin::PipelineStats stats() const { return pipeline_->Stats(); }

  /// Per-layer metrics of a traced run (call after Stop()).
  Json Layers(double untraced_cpu_us_per_msg,
              std::vector<std::string>* failures,
              Json* self_times) const;

 private:
  /// Feeds reports [begin, end) slice by slice from stream time `start`.
  /// When `timed`, records each slice's wall and CPU time. Returns the
  /// index one past the last report fed.
  size_t Loop(size_t begin, size_t end, TimeMicros start, bool timed) {
    const TimeMicros slice_us =
        static_cast<TimeMicros>(spec_.slice_sec * marlin::kMicrosPerSecond);
    TimeMicros slice_end = start + slice_us;
    size_t next = begin;
    while (next < end) {
      size_t stop = next;
      while (stop < end && in_.reports[stop].timestamp < slice_end) ++stop;
      slice_end += slice_us;
      if (stop == next) continue;
      const bool trace = tracing_;
      const int64_t slice_span = trace ? Trace::Get().Begin(kSlice) : -1;
      if (trace) Trace::Get().set_current_slice(slice_span);
      const int64_t t = NowNs();
      const int64_t cpu = CpuNs();
      if (spec_.broker_path) {
        FeedBroker(next, stop, trace);
      } else {
        FeedDirect(next, stop, trace);
      }
      {
        const int64_t span = trace ? Trace::Get().Begin(kAwait) : -1;
        pipeline_->AwaitQuiescence();
        if (trace) Trace::Get().End(span);
      }
      if (timed) {
        slice_cpu_ms_.push_back(static_cast<double>(CpuNs() - cpu) * 1e-6);
        slice_ms_.push_back(static_cast<double>(NowNs() - t) * 1e-6);
        const int64_t span = trace ? Trace::Get().Begin(kSnapshot) : -1;
        Snapshot(slice_end - slice_us);
        if (trace) Trace::Get().End(span);
        ProbeAtRest();
      }
      if (trace) Trace::Get().End(slice_span);
      next = stop;
    }
    return next;
  }

  void FeedDirect(size_t begin, size_t end, bool trace) {
    for (size_t i = begin; i < end; ++i) {
      const AisPosition& report = in_.reports[i];
      Remember(report.mmsi);
      ++attempted_;
      marlin::Status st;
      if (trace) {
        SpanScope span(kIngest);
        st = pipeline_->Ingest(report);
      } else {
        st = pipeline_->Ingest(report);
      }
      if (!st.ok()) ++failed_;
    }
  }

  void FeedBroker(size_t begin, size_t end, bool trace) {
    for (size_t i = begin; i < end; ++i) {
      Remember(in_.reports[i].mmsi);
      ++attempted_;
      marlin::Status st;
      if (trace) {
        SpanScope span(kProduce);
        st = pipeline_->Produce(in_.sentences[i], in_.reports[i].timestamp);
      } else {
        st = pipeline_->Produce(in_.sentences[i], in_.reports[i].timestamp);
      }
      if (st.ok()) {
        ++produced_ok_;
      } else {
        ++failed_;
      }
    }
    for (;;) {
      int n;
      if (trace) {
        SpanScope span(kPump);
        n = pipeline_->PumpIngestion(kPumpBatch);
        lag_max_ = std::max(lag_max_,
                            static_cast<double>(instruments_->lag->Value()));
      } else {
        n = pipeline_->PumpIngestion(kPumpBatch);
      }
      pumped_ += n;
      if (n == 0) break;
    }
  }

  /// Reads at rest: at each quiescent slice boundary one /vessels/{mmsi}
  /// read and the three Ask routes back to back, and every scan_every-th
  /// boundary one /viewport scan. Their time is excluded from throughput
  /// and the slice metrics.
  void ProbeAtRest() {
    const int64_t t = NowNs();
    Query(kVessel);
    // The Ask routes cost an order of magnitude apart, so they are costed
    // together: a quantile over their pooled samples would fall between
    // routes and jump with the mix.
    const int64_t cpu = CpuNs();
    for (Route r : {kVesselForecast, kVesselEvents, kEvents}) Query(r);
    asks_cpu_us_.push_back(static_cast<double>(CpuNs() - cpu) * 1e-3);
    if (probe_ticks_ % spec_.scan_every == 0) Query(kViewport);
    ++probe_ticks_;
    probe_ns_ += NowNs() - t;
  }

  /// Adds a vessel to the ones reads may ask about, on first sighting.
  void Remember(Mmsi mmsi) {
    const size_t v = mmsi - in_.mmsi_base;  // in range: see GenerateInputs
    if (seen_[v]) return;
    seen_[v] = true;
    seen_order_.push_back(mmsi);
  }

  void Query(Route route) {
    Mmsi mmsi = in_.mmsi_base;
    if (!seen_order_.empty()) {
      mmsi = seen_order_[rng_.UniformInt(seen_order_.size())];
    }
    const std::string target = RouteTarget(route, mmsi);
    ++attempted_;
    const int64_t span = tracing_ ? Trace::Get().Begin(kApi, route) : -1;
    const int64_t t = NowNs();
    const int64_t cpu = CpuNs();
    const marlin::ApiResponse response = api_->Handle("GET", target);
    const int64_t cpu_dt = CpuNs() - cpu;
    const int64_t dt = NowNs() - t;
    if (tracing_) Trace::Get().End(span);
    query_us_[route].push_back(static_cast<double>(dt) * 1e-3);
    query_cpu_us_[route].push_back(static_cast<double>(cpu_dt) * 1e-3);
    if (response.status >= 500) ++failed_;
  }

  /// Slice-boundary snapshot: resident set, forecasts so far (repetitions
  /// over the same input must agree slice by slice), and the state-growth
  /// checkpoints at fixed stream offsets into the timed phase.
  void Snapshot(TimeMicros slice_start) {
    rss_peak_mb_ = std::max(rss_peak_mb_, RssMb());
    slice_forecasts_.push_back(pipeline_->Stats().forecasts_generated);
    if (!tracing_) return;
    const double minutes =
        static_cast<double>(slice_start - timed_start_) / 60e6;
    while (next_checkpoint_ < kCheckpoints.size() &&
           minutes >= kCheckpoints[next_checkpoint_]) {
      checkpoint_keys_[next_checkpoint_] =
          static_cast<double>(pipeline_->store().Size());
      checkpoint_live_[next_checkpoint_] =
          static_cast<double>(instruments_->live->Value());
      ++next_checkpoint_;
    }
  }

 public:
  static constexpr std::array<double, 3> kCheckpoints = {1.0, 2.0, 4.0};

 private:
  const WorkloadSpec& spec_;
  const Inputs& in_;
  const std::vector<marlin::SvrfSample>& training_;
  const bool traced_;
  marlin::Rng rng_;
  std::vector<bool> seen_;
  std::vector<Mmsi> seen_order_;

  marlin::obs::MetricsRegistry registry_;  // declared before the pipeline
  std::unique_ptr<marlin::MaritimePipeline> pipeline_;
  std::unique_ptr<marlin::ApiService> api_;
  std::unique_ptr<Instruments> instruments_;
  std::unique_ptr<Reading> before_, after_;
  marlin::PipelineStats stats_before_, stats_after_;

  bool tracing_ = false;
  double setup_s_ = 0.0, setup_wall_s_ = 0.0, wall_s_ = 0.0;
  double steal_share_ = 0.0;
  double rss_base_mb_ = 0.0, rss_peak_mb_ = 0.0;
  int64_t warmup_forecasts_ = 0;
  size_t fed_end_ = 0;
  TimeMicros timed_start_ = 0;
  int64_t phase_start_ns_ = 0, phase_end_ns_ = 0;
  int64_t attempted_ = 0, failed_ = 0, produced_ok_ = 0, pumped_ = 0;
  int64_t probe_ticks_ = 0, probe_ns_ = 0;
  std::vector<double> slice_ms_, slice_cpu_ms_;
  std::vector<int64_t> slice_forecasts_;
  std::map<int, double> cpu_before_, cpu_after_;
  std::vector<double> query_us_[kRoutes], query_cpu_us_[kRoutes];
  std::vector<double> asks_cpu_us_;
  double lag_max_ = 0.0;
  double keys_end_ = 0.0, live_end_ = 0.0, highwater_ = 0.0;
  size_t next_checkpoint_ = 0;
  std::array<double, 3> checkpoint_keys_ = {-1, -1, -1};
  std::array<double, 3> checkpoint_live_ = {-1, -1, -1};
  int64_t vessels_fed_ = 0, vessel_keys_ = 0;
};

Json Run::Layers(double untraced_cpu_us_per_msg,
                 std::vector<std::string>* failures, Json* self_times) const {
  const auto& threads = Trace::Get().threads();
  auto span_at = [&](int64_t id) -> const Span& {
    return threads[static_cast<size_t>(id >> 40)]
        ->spans[static_cast<size_t>(id & ((int64_t{1} << 40) - 1))];
  };
  // Totals, self times (duration minus same-thread children), and the
  // per-name samples the metrics need.
  std::array<double, kNumSpanNames> total_ns{}, self_ns{};
  std::array<int64_t, kNumSpanNames> count{};
  std::vector<double> ingest_ns, queue_wait_us;
  double batch_items = 0, single_items = 0, slice_children_ns = 0;
  const double wall_ns = static_cast<double>(phase_end_ns_ - phase_start_ns_);
  const int64_t lo = phase_start_ns_, hi = phase_end_ns_;
  std::array<double, kNumSpanNames> busy_ns{};  // drains clipped to the phase
  std::vector<double> thread_busy_ns(threads.size(), 0.0);
  bool overlap = false;
  for (const auto& t : threads) {
    int64_t last_drain_end = 0;
    for (const Span& s : t->spans) {
      if (s.end <= 0) continue;  // never closed: begun outside the phase
      const double dur = static_cast<double>(s.end - s.start);
      ++count[s.name];
      total_ns[s.name] += dur;
      self_ns[s.name] += dur;
      if (s.parent >= 0 && (s.parent >> 40) == t->thread) {
        const Span& parent = span_at(s.parent);
        self_ns[parent.name] -= dur;
        if (parent.name == kSlice) slice_children_ns += dur;
      }
      if (s.name == kIngest) ingest_ns.push_back(dur);
      if (s.name == kForecastBatch) batch_items += static_cast<double>(s.aux);
      if (s.name == kForecast) single_items += 1;
      if (s.name >= kDrainVessel && s.name <= kDrainOther) {
        queue_wait_us.push_back(static_cast<double>(s.start - s.aux) * 1e-3);
        if (s.start < last_drain_end) overlap = true;
        last_drain_end = s.end;
        const double clipped = static_cast<double>(
            std::max<int64_t>(0, std::min(s.end, hi) - std::max(s.start, lo)));
        busy_ns[s.name] += clipped;
        thread_busy_ns[static_cast<size_t>(t->thread)] += clipped;
      }
    }
  }
  for (int32_t n = 0; n < kNumSpanNames; ++n) {
    if (count[n] == 0) continue;
    self_times->Obj(SpanNameString(n),
                    Json()
                        .Int("count", count[n])
                        .Num("total_s", total_ns[n] * 1e-9)
                        .Num("self_s", self_ns[n] * 1e-9));
  }

  // Identity 1: feed-side spans add up to slice wall time; the slices'
  // own self time is loop glue outside every instrumented call.
  const double slice_ns = total_ns[kSlice];
  const double uncovered_pct =
      100.0 * Ratio(slice_ns - slice_children_ns, slice_ns);
  constexpr double kSliceTolerancePct = 5.0;
  // Identity 2: per-actor-kind busy time plus idle time is threads x wall.
  // Busy time comes from the drain spans. Idle time is measured apart from
  // them, by the kernel: a dispatcher thread's wall time minus its time on a
  // CPU (schedstat). The guest's CPU clock leaves out what the host stole,
  // so CPU time is scaled up by the machine's steal share over the phase.
  // The two accounts differ by the time drains spend off a CPU (blocked or
  // preempted) and the time the pool spends on one outside drains.
  double kinds_ns = 0.0, idle_ns = 0.0;
  int dispatcher_threads = 0;
  bool no_cpu_time = false;
  for (int32_t n = kDrainVessel; n <= kDrainOther; ++n) kinds_ns += busy_ns[n];
  for (const auto& t : threads) {
    if (thread_busy_ns[static_cast<size_t>(t->thread)] <= 0) continue;
    ++dispatcher_threads;
    const auto after = cpu_after_.find(t->tid);
    if (after == cpu_after_.end()) {
      no_cpu_time = true;
      continue;
    }
    const auto before = cpu_before_.find(t->tid);
    const double on_cpu =
        after->second - (before == cpu_before_.end() ? 0.0 : before->second);
    idle_ns += wall_ns - on_cpu / (1.0 - std::min(steal_share_, 0.5));
  }
  idle_ns += std::max(0, kThreads - dispatcher_threads) * wall_ns;
  const double capacity_ns = kThreads * wall_ns;
  const double busy_identity_err_pct =
      100.0 * std::abs(kinds_ns + idle_ns - capacity_ns) / capacity_ns;
  constexpr double kBusyTolerancePct = 5.0;
  if (uncovered_pct > kSliceTolerancePct) {
    failures->push_back("feed-side spans cover only " +
                        std::to_string(100.0 - uncovered_pct) +
                        "% of slice wall time");
  }
  if (no_cpu_time) {
    failures->push_back("no schedstat for a dispatcher thread");
  }
  if (overlap || dispatcher_threads > kThreads ||
      busy_identity_err_pct > kBusyTolerancePct) {
    failures->push_back("busy + idle != threads x wall (" +
                        std::to_string(busy_identity_err_pct) + "%, " +
                        std::to_string(dispatcher_threads) + " threads)");
  }

  const Reading& a = *before_;
  const Reading& b = *after_;
  const double fed_msgs = static_cast<double>(fed());
  double drains = 0.0;
  for (int32_t n = kDrainVessel; n <= kDrainOther; ++n) drains += count[n];
  const double vrf_items = batch_items + single_items;
  const double vrf_ns = total_ns[kForecastBatch] + total_ns[kForecast];
  const double events = static_cast<double>(stats_after_.events_detected -
                                            stats_before_.events_detected);
  const double forecasts = static_cast<double>(
      stats_after_.forecasts_generated - stats_before_.forecasts_generated);

  // Decode cost of the workload's own sentences, replayed outside the run.
  double decode_ns = 0.0;
  if (spec_.broker_path && fed_end_ > in_.warmup_end) {
    const int64_t t = NowNs();
    int64_t ok = 0;
    for (size_t i = in_.warmup_end; i < fed_end_; ++i) {
      ok += marlin::AisCodec::DecodePosition(in_.sentences[i],
                                             in_.reports[i].timestamp)
                .ok();
    }
    decode_ns = Ratio(static_cast<double>(NowNs() - t), fed_msgs);
    if (ok != fed()) failures->push_back("sentences that do not decode");
  }

  // On the broker path Ingest() runs inside PumpIngestion(), out of the
  // feeding loop's reach: its quantiles come from the stage histogram.
  const auto& ingest_a = a.stage.at("ingest");
  const auto& ingest_b = b.stage.at("ingest");
  Json m;
  m.Num("core.ingest_ns_p50", spec_.broker_path
                                  ? DeltaQuantile(ingest_a, ingest_b, 0.5)
                                  : Quantile(ingest_ns, 0.5))
      .Num("core.ingest_ns_p99", spec_.broker_path
                                     ? DeltaQuantile(ingest_a, ingest_b, 0.99)
                                     : Quantile(ingest_ns, 0.99))
      .Num("core.await_share", Ratio(total_ns[kAwait], slice_ns))
      .Num("core.position_cost_us_mean",
           DeltaMean(a.stage.at("position"), b.stage.at("position")) * 1e-3);
  for (const char* s : {"ingest", "position", "forecast", "write"}) {
    m.Num(std::string("core.stage_") + s + "_ns_mean",
          DeltaMean(a.stage.at(s), b.stage.at(s)));
  }
  m.Num("stream.produce_ns_mean", Ratio(total_ns[kProduce], count[kProduce]))
      .Num("stream.pump_ns_per_record", Ratio(total_ns[kPump], pumped_))
      .Num("stream.consumer_lag_max", lag_max_)
      .Num("stream.records_polled", b.polled - a.polled)
      .Num("ais.decode_ns_mean", decode_ns)
      .Num("actor.drains", drains)
      .Num("actor.msgs_per_drain", Ratio(b.processed - a.processed, drains))
      .Num("actor.queue_wait_us_p50", Quantile(queue_wait_us, 0.5))
      .Num("actor.queue_wait_us_p99", Quantile(queue_wait_us, 0.99))
      .Num("actor.busy_share", Ratio(kinds_ns, capacity_ns))
      .Num("actor.spawned", b.spawned - a.spawned)
      .Num("actor.live_end", live_end_)
      .Num("actor.mailbox_highwater", highwater_);
  const std::pair<const char*, SpanName> kinds[] = {
      {"vessel", kDrainVessel},   {"cell", kDrainCell},
      {"coll", kDrainColl},       {"writer", kDrainWriter},
      {"traffic", kDrainTraffic}, {"surveillance", kDrainSurveillance}};
  for (const auto& [kind, name] : kinds) {
    m.Num(std::string("actor.") + kind + "_busy_s", busy_ns[name] * 1e-9);
  }
  const double event_busy_ns = busy_ns[kDrainCell] + busy_ns[kDrainColl] +
                               busy_ns[kDrainSurveillance];
  m.Num("vrf.batches", count[kForecastBatch])
      .Num("vrf.items", vrf_items)
      .Num("vrf.batch_size_mean", Ratio(batch_items, count[kForecastBatch]))
      .Num("vrf.ns_per_item", Ratio(vrf_ns, vrf_items))
      .Num("vrf.busy_s", vrf_ns * 1e-9)
      .Num("vrf.forecasts_per_message", Ratio(forecasts, fed_msgs))
      .Num("nn.batch_size_mean", DeltaMean(a.nn_batch, b.nn_batch))
      .Num("nn.inference_ns_per_item", DeltaMean(a.nn_nanos, b.nn_nanos))
      .Num("events.detected", events)
      .Num("events.per_1k_messages", 1000.0 * Ratio(events, fed_msgs))
      .Num("events.busy_s", event_busy_ns * 1e-9)
      .Num("kvstore.ops", b.kv_ops - a.kv_ops)
      .Num("kvstore.keys_end", keys_end_)
      .Num("kvstore.ns_per_write",
           Ratio(busy_ns[kDrainWriter], b.kv_writes - a.kv_writes));
  for (size_t i = 0; i < kCheckpoints.size(); ++i) {
    const std::string at =
        "_t" + std::to_string(static_cast<int>(kCheckpoints[i])) + "m";
    m.Num("kvstore.keys" + at, checkpoint_keys_[i]);
    m.Num("actor.live" + at, checkpoint_live_[i]);
  }
  for (int r = 0; r < kRoutes; ++r) {
    m.Num(std::string("middleware.") + kRouteNames[r] + "_us_p50",
          Quantile(query_us_[r], 0.5));
  }
  int64_t spans = 0;
  for (const int64_t c : count) spans += c;
  m.Num("trace.overhead_pct",
        100.0 * Ratio(cpu_us_per_msg() - untraced_cpu_us_per_msg,
                      untraced_cpu_us_per_msg))
      .Num("trace.spans", spans)
      .Num("trace.slice_uncovered_pct", uncovered_pct)
      .Num("trace.busy_identity_err_pct", busy_identity_err_pct);
  return m;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  bool small = false;
  std::string out = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      if (value != "full" && value != "small") return false;
      args->small = value == "small";
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

/// What one repetition measured.
struct RepResult {
  std::map<std::string, double> e2e;  // per repetition; the run reports medians
  std::vector<double> kv_us, actor_us, scan_us;  // CPU, pooled over reps
  std::vector<int64_t> slice_forecasts;
  marlin::PipelineStats stats;
  int64_t fed = 0, vessels_fed = 0, vessel_keys = 0, slices = 0;
  int64_t attempted = 0, failed = 0, warmup_forecasts = 0;
  double setup_s = 0.0, setup_wall_s = 0.0, steal_share = 0.0;
  double throughput = 0.0, slice_wall_p50_ms = 0.0, slice_wall_p90_ms = 0.0;
};

RepResult Summarize(const Run& run) {
  RepResult r;
  r.kv_us = run.query_cpu_us(kVessel);
  r.actor_us = run.asks_cpu_us();
  r.scan_us = run.query_cpu_us(kViewport);
  r.attempted = run.attempted();
  r.failed = run.failed();
  r.e2e = {
      {"cpu_us_per_msg", run.cpu_us_per_msg()},
      {"slice_cpu_p50_ms", Quantile(run.slice_cpu_ms(), 0.5)},
      {"slice_cpu_p90_ms", Quantile(run.slice_cpu_ms(), 0.9)},
      {"pipeline_rss_mb", run.rss_mb()},
  };
  r.throughput = run.throughput();
  r.slice_wall_p50_ms = Quantile(run.slice_ms(), 0.5);
  r.slice_wall_p90_ms = Quantile(run.slice_ms(), 0.9);
  r.stats = run.stats();
  r.fed = run.fed();
  r.vessels_fed = run.vessels_fed();
  r.vessel_keys = run.vessel_keys();
  r.slices = static_cast<int64_t>(run.slice_ms().size());
  r.slice_forecasts = run.slice_forecasts();
  r.warmup_forecasts = run.warmup_forecasts();
  r.setup_s = run.setup_s();
  r.setup_wall_s = run.setup_wall_s();
  r.steal_share = run.steal_share();
  return r;
}

// Repetitions per run, each on a fresh pipeline over the same input and
// the same timed stream window. An untraced run repeats until --seconds
// have passed, within these limits, and reports medians. A traced run
// makes one untraced and one traced repetition instead.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 15;

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !FindWorkload(args.workload, args.small, &spec)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload steady_forecast|"
                 "arrival_surge --seed N --seconds S --trace 0|1 "
                 "[--scale full|small] [--out DIR]\n");
    return 2;
  }
  marlin::Logger::Instance().set_min_level(marlin::LogLevel::kWarning);
  const marlin::World world = marlin::World::GlobalWorld(7);
  const Inputs inputs = GenerateInputs(spec, world, args.seed);
  const std::vector<marlin::SvrfSample> training =
      GenerateTrainingSamples(world);

  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t start_ns = NowNs();
  std::vector<std::string> failures;
  std::vector<RepResult> results;
  std::vector<double> setups;
  Json layers, self_times;
  for (int rep = 0;; ++rep) {
    if (args.trace ? rep == 2
                   : rep >= kMaxReps ||
                         (rep >= kMinReps && NowNs() - start_ns >= budget_ns)) {
      break;
    }
    const bool traced = args.trace && rep == 1;
    // Set-up-only repetitions, where set-up is short.
    for (int extra = 1; !args.trace && extra < spec.setups_per_rep; ++extra) {
      malloc_trim(0);
      Run run(spec, inputs, training, args.seed, /*traced=*/false);
      setups.push_back(run.Setup());
      run.Stop();
    }
    malloc_trim(0);  // hand the previous pipeline's pages back: clean RSS base
    Run run(spec, inputs, training, args.seed, traced);
    run.Setup();
    run.Timed();
    const std::string tag = "rep " + std::to_string(rep) + ": ";
    for (const std::string& f : run.Check()) failures.push_back(tag + f);
    run.Stop();  // flushes the batcher and drains every mailbox
    results.push_back(Summarize(run));
    setups.push_back(run.setup_s());
    if (traced) {
      layers = run.Layers(results.front().e2e.at("cpu_us_per_msg"), &failures,
                          &self_times);
    }
  }
  // Same input, same stream window, fresh pipelines: once each pipeline
  // has stopped, the deterministic counts must agree.
  //
  // They should agree at every quiescent slice boundary too, but do not
  // always: MaritimePipeline::AwaitQuiescence checks the actor system
  // before the batcher, so it can return while forecast results that a
  // batch running on the flush ticker Told after the actor system went
  // quiet are still queued. That is a defect of the pipeline, not of the
  // input; boundaries where a repetition's forecasts_generated differs
  // from rep 0 are counted and reported, not failed.
  const RepResult& first = results.front();
  int64_t lagging = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    const RepResult& r = results[i];
    const std::string tag = "rep " + std::to_string(i) + ": ";
    if (r.stats.forecasts_generated != first.stats.forecasts_generated) {
      failures.push_back(tag + "forecasts_generated differs from rep 0");
    }
    if (r.slice_forecasts.size() != first.slice_forecasts.size()) {
      failures.push_back(tag + "timed slices differ from rep 0");
      continue;
    }
    lagging += r.warmup_forecasts != first.warmup_forecasts;
    for (size_t k = 0; k < r.slice_forecasts.size(); ++k) {
      lagging += r.slice_forecasts[k] != first.slice_forecasts[k];
    }
  }
  if (first.slice_forecasts.empty()) {
    failures.push_back("no timed slice to compare forecasts_generated over");
  }

  Json out;
  out.Str("workload", spec.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Str("input_hash", Hex(inputs.hash))
      .Int("input_messages", static_cast<int64_t>(inputs.reports.size()))
      .Int("warmup_messages", static_cast<int64_t>(inputs.warmup_end))
      .Int("warmup_forecasts", first.warmup_forecasts)
      .Int("compared_slices",
           static_cast<int64_t>(first.slice_forecasts.size()))
      .Int("lagging_boundaries", lagging);
  // Per-repetition values report their median; read costs pool every
  // repetition's samples, so that the tail rests on enough of them.
  int64_t attempted = 0, failed = 0;
  std::vector<double> kv_us, actor_us, scan_us;
  for (const RepResult& r : results) {
    attempted += r.attempted;
    failed += r.failed;
    kv_us.insert(kv_us.end(), r.kv_us.begin(), r.kv_us.end());
    actor_us.insert(actor_us.end(), r.actor_us.begin(), r.actor_us.end());
    scan_us.insert(scan_us.end(), r.scan_us.begin(), r.scan_us.end());
  }
  Json e2e, reps_json;
  for (const auto& [name, value] : first.e2e) {
    std::vector<double> values;
    for (const RepResult& r : results) values.push_back(r.e2e.at(name));
    e2e.Num(name, Quantile(values, 0.5));
  }
  e2e.Num("setup_s", Quantile(setups, 0.5))
      .Num("success_rate", 1.0 - Ratio(failed, attempted))
      .Num("query_kv_cpu_p50_us", Quantile(kv_us, 0.5))
      .Num("query_kv_cpu_p90_us", Quantile(kv_us, 0.9))
      .Num("query_actor_cpu_p50_us", Quantile(actor_us, 0.5))
      .Num("query_scan_cpu_p50_us", Quantile(scan_us, 0.5));
  for (size_t i = 0; i < results.size(); ++i) {
    const RepResult& r = results[i];
    Json counts;
    counts.Int("messages_fed", r.fed)
        .Int("positions_ingested", r.stats.positions_ingested)
        .Int("forecasts_generated", r.stats.forecasts_generated)
        .Int("events_detected", r.stats.events_detected)
        .Int("vessels_fed", r.vessels_fed)
        .Int("vessel_keys", r.vessel_keys)
        .Int("slices", r.slices)
        .Num("setup_s", r.setup_s)
        .Num("setup_wall_s", r.setup_wall_s)
        .Num("steal_share", r.steal_share)
        .Num("throughput_msg_s", r.throughput)
        .Int("reads", static_cast<int64_t>(r.kv_us.size() + r.actor_us.size() +
                                           r.scan_us.size()));
    for (const auto& [name, value] : r.e2e) counts.Num(name, value);
    reps_json.Obj(std::to_string(i), counts);
  }
  out.Int("attempted", attempted).Int("failed", failed);
  out.Obj("e2e", e2e).Obj("reps", reps_json);
  if (args.trace) {
    // Wall-clock figures of the untraced repetition: they follow the host
    // (steal, vCPU wake-up latency), so they are reported here, ungated.
    layers.Num("wall.throughput_msg_s", first.throughput)
        .Num("wall.slice_p50_ms", first.slice_wall_p50_ms)
        .Num("wall.slice_p90_ms", first.slice_wall_p90_ms)
        .Num("wall.steal_pct", 100.0 * first.steal_share)
        .Num("core.lagging_boundaries", static_cast<double>(lagging));
    out.Obj("layers", layers).Obj("self_times", self_times);
    const std::string path = args.out + "/trace-" + spec.name + "-" +
                             std::to_string(args.seed) + ".bin";
    if (!Trace::Get().Write(path)) failures.push_back("cannot write " + path);
    out.Str("trace_file", path);
  }
  out.Bool("correct", failures.empty());
  out.Raw("failures", JsonList(failures));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
