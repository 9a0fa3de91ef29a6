// raw-clock: the virtual-time contract (DESIGN.md §13). Wall-clock reads
// (std::chrono::system_clock) and real sleeps (sleep_for / sleep_until)
// bypass the Clock / VirtualClock seam in util/clock.h, so code using them
// cannot run on the discrete-event scheduler's virtual timeline — a 72-hour
// simulated run would take 72 wall-clock hours. Time consumers take a
// `const Clock*`; the handful of substrates that
// legitimately touch host time (the seam itself, log timestamping, the
// dispatcher's idle backoff) are enumerated in Config::raw_clock_files.

#include <set>

#include "rule.h"
#include "rules.h"

namespace marlin {
namespace analyze {

namespace {

class RawClockRule : public Rule {
 public:
  std::string Name() const override { return "raw-clock"; }
  std::string Description() const override {
    return "no std::chrono::system_clock or sleep_for/sleep_until outside "
           "the util/clock.h seam — virtual time (DESIGN.md §13) cannot "
           "reach through them";
  }

  void Run(const Project& project, std::vector<Finding>* findings) const override {
    static const std::set<std::string> kSleeps = {"sleep_for", "sleep_until"};
    for (const SourceFile& file : project.files()) {
      // Applies to src/ modules and tests alike: tests that really sleep
      // flake under load, and fixed-point polls belong on the virtual
      // timeline. Consciously kept host-time code is allowlisted or
      // baselined.
      if (file.module.empty() && !file.in_tests) continue;
      if (project.config().raw_clock_files.count(file.rel)) continue;
      const std::vector<Token>& toks = file.tokens;
      for (size_t i = 0; i < toks.size(); ++i) {
        const Token& tok = toks[i];
        if (tok.kind != TokKind::kIdent) continue;
        if (tok.text == "system_clock") {
          findings->push_back(
              {Name(), file.rel, tok.line,
               "raw std::chrono::system_clock — read time through the Clock "
               "seam (util/clock.h) so virtual-time runs can substitute it"});
          continue;
        }
        const bool called = i + 1 < toks.size() && toks[i + 1].IsPunct("(");
        if (called && kSleeps.count(tok.text)) {
          findings->push_back(
              {Name(), file.rel, tok.line,
               "raw " + tok.text +
                   " — real sleeps stall the virtual timeline; post a future "
                   "event on the des::EventScheduler (or add the file to "
                   "Config::raw_clock_files if it is a genuine substrate)"});
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeRawClockRule() {
  return std::make_unique<RawClockRule>();
}

}  // namespace analyze
}  // namespace marlin
