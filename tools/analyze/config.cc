#include "config.h"

namespace marlin {
namespace analyze {

int Config::LayerOf(const std::string& module) const {
  for (size_t i = 0; i < layers.size(); ++i) {
    for (const std::string& m : layers[i]) {
      if (m == module) return static_cast<int>(i);
    }
  }
  return -1;
}

const Config& ProjectConfig() {
  static const Config* const kConfig = [] {
    auto* config = new Config();  // chk-lint: allow(naked-new) leaky singleton
    // The allowed module dependency order (DESIGN.md §11). Lowest layer
    // first; every module may include its own layer and below. Relative to
    // the draft in ISSUE 7 this ordering makes two corrections the analyzer
    // itself surfaced: the domain-algorithm layer (vrf/events) sits *below*
    // the pipeline layer (core composes forecasters and detectors into
    // actors, never the reverse), and `sim` is a top-layer consumer (the
    // scenario/evaluation harness drives the domain code; after moving the
    // World types into geo, nothing in src/ depends on sim).
    config->layers = {
        {"util"},
        {"geo", "hexgrid", "obs", "ais", "storage"},
        {"stream", "kvstore", "nn"},
        {"vrf", "events"},
        {"actor", "core"},
        {"cluster", "fault", "middleware", "sim", "chk"},
    };
    // Compile-gated instrumentation seams: constant no-ops unless
    // -DMARLIN_CHECKED / -DMARLIN_FAULT arm them, so any module may include
    // them without creating a real layering edge.
    config->crosscut_headers = {
        "chk/chk.h",
        "fault/fault_injector.h",
    };
    // Execution substrates: the only files that may own raw threads. All
    // other code schedules through the Dispatcher seam so the deterministic
    // scheduler (src/chk) can control interleavings.
    config->raw_thread_files = {
        "src/util/thread_pool.h",      "src/util/thread_pool.cc",
        "src/actor/actor_system.h",    "src/actor/actor_system.cc",
        "src/middleware/http_server.h", "src/middleware/http_server.cc",
        "src/cluster/tcp_transport.h", "src/cluster/tcp_transport.cc",
    };
    // Networking substrates: the only modules that may open raw sockets.
    config->raw_socket_modules = {"cluster", "middleware"};
    // Host-time substrates: the only files that may read wall clocks or
    // really sleep. util/clock.h *is* the seam; logging stamps human-read
    // wall timestamps; the actor dispatcher's idle loop backs off with a
    // real micro-sleep. Everything else takes a Clock* so virtual-time
    // runs (DESIGN.md §13) control what "now" means.
    config->raw_clock_files = {
        "src/util/clock.h",
        "src/util/logging.cc",
        "src/actor/actor_system.cc",
    };
    config->messages_header = "src/core/messages.h";
    return config;
  }();
  return *kConfig;
}

}  // namespace analyze
}  // namespace marlin
