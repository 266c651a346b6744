// Shared machinery of the end-to-end benchmark: the run configuration
// and result, host-time clocks, the self-time span accounting the traced
// run uses, and the timing wrappers placed around each layer's public
// entry points (protocol handlers, host calls, observers).  Everything
// here lives in the benchmark; the library is used only through its
// public headers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/observer.hpp"
#include "src/protocols/protocol.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for files the run writes (tracelogs, exported traces).
  std::string out_dir;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Files whose contents the Python side re-checks with its own parser.
  std::vector<std::string> json_files;

  void fail(const std::string& why);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// Host seconds on the steady clock.
double now_s();
/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);

/// Self-time accounting for nested spans on one thread: a span adds its
/// duration minus the duration of the spans opened inside it to `sink`,
/// and its full duration to the enclosing span's child time.
class Span {
 public:
  explicit Span(double& sink);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& sink_;
  double* parent_child_;
  double child_ = 0;
  double start_;
};

/// Per-stack counters filled by the timing wrappers.
struct LayerCounters {
  double handler_self_s = 0;  // protocol code, host calls excluded
  double host_self_s = 0;     // engine work reached through Host calls
  std::uint64_t handler_calls = 0;
  std::uint64_t user_packets = 0;
  std::uint64_t control_packets = 0;
  std::uint64_t tag_bytes = 0;
};

/// Wrap `inner` so every instance it creates times its handlers and
/// counts the packets it emits into `counters` (which must outlive the
/// instances).
msgorder::ProtocolFactory timed_factory(msgorder::ProtocolFactory inner,
                                        LayerCounters* counters);

/// Wrap an observer so its self time accumulates into `*sink`.
msgorder::SimObserver timed_observer(msgorder::SimObserver inner,
                                     double* sink);

/// Name a verify target in metric names ("synth:causal" -> "synth-causal").
std::string metric_safe(std::string name);

}  // namespace perfbench
