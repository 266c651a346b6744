// The four workloads.  Each fills a RunResult: end-to-end metrics from
// untraced passes, or per-layer metrics when the config asks for the
// traced run.
#pragma once

#include <cstddef>
#include <functional>

#include "harness.hpp"
#include "src/sim/trace.hpp"

namespace perfbench {

/// Processes in every simulated workload.
constexpr std::size_t kProcesses = 16;
/// Share of red (color 1) messages in every simulated workload.
constexpr double kRedFraction = 0.1;

/// Call `round` once untimed to warm up, then repeatedly until
/// `seconds` have passed, at least `min_rounds` times.
void measure_rounds(double seconds, std::size_t min_rounds,
                    const std::function<void(bool warmup)>& round);

/// The per-layer metrics of one simulated stack: sim.<stack>.* and
/// protocols.<stack>.*, from a traced pass's timings and a run's trace.
void set_stack_layer_metrics(RunResult& result, const std::string& stack,
                             const msgorder::Trace& trace, double engine_s,
                             double handler_s, std::uint64_t handler_calls);

void run_registry_sweep(const RunConfig& config, double start,
                        RunResult& result);
void run_monitored(const RunConfig& config, double start, RunResult& result);
void run_observed(const RunConfig& config, double start, RunResult& result);
void run_verify_scope(const RunConfig& config, double start,
                      RunResult& result);

}  // namespace perfbench
