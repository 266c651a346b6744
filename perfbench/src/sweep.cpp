// registry_sweep: every registry stack under bare simulate(), the
// plain-user path.  The engine (sim) and the protocol handlers do
// nearly all of the work.
#include <algorithm>
#include <cstdio>

#include "checks.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace msgorder;

namespace {

/// Messages per stack, chosen so each stack's pass takes about the same
/// host time (15-30 ms) and its working set stays near a core's L2:
/// passes that spill into the shared L3 spread by ~25% from run to run.
/// kweaker-1's cost grows with the run, so it gets a short one.
std::size_t sweep_messages(const std::string& stack) {
  if (stack == "async") return 32000;
  if (stack == "fifo") return 24000;
  if (stack == "causal-rst") return 5500;
  if (stack == "causal-ses") return 3200;
  if (stack == "kweaker-1") return 350;
  if (stack == "flush") return 24000;
  if (stack == "global-flush") return 2500;
  if (stack == "sync-sequencer") return 20000;
  if (stack == "sync-token") return 32000;
  if (stack == "sync-locks") return 12500;
  return 0;
}

struct SweepStack {
  RegisteredProtocol proto;
  Workload workload;
  std::vector<double> bare_s;    // untraced pass times
  std::vector<double> traced_s;  // traced pass times
  std::vector<double> engine_s;
  std::vector<double> handler_s;
  LayerCounters counters;        // last traced pass
};

}  // namespace

void set_stack_layer_metrics(RunResult& result, const std::string& stack,
                             const Trace& trace, double engine_s,
                             double handler_s, std::uint64_t handler_calls) {
  const std::string sim = "sim." + stack, proto = "protocols." + stack;
  std::size_t events = trace.control_packets();  // control arrivals
  for (const auto& log : trace.logs()) events += log.size();
  const double n = static_cast<double>(trace.universe().size());
  result.set(sim + ".engine_s", engine_s, "s");
  result.set(sim + ".events", static_cast<double>(events), "count");
  result.set(proto + ".handler_s", handler_s, "s");
  result.set(proto + ".handler_calls", static_cast<double>(handler_calls),
             "count");
  result.set(proto + ".tag_bytes_per_msg",
             static_cast<double>(trace.tag_bytes()) / n, "B/msg");
  result.set(proto + ".control_packets_per_msg",
             static_cast<double>(trace.control_packets()) / n, "packets/msg");
  result.set(proto + ".sim_latency_mean", trace.mean_latency(), "simtime");
}

void run_registry_sweep(const RunConfig& config, double start,
                        RunResult& result) {
  // --- set-up: inputs and factories ---
  std::vector<SweepStack> stacks;
  Rng rng(config.seed);
  for (RegisteredProtocol& proto : standard_protocols()) {
    WorkloadOptions options;
    options.n_processes = kProcesses;
    options.n_messages = sweep_messages(proto.name);
    options.red_fraction = kRedFraction;
    if (options.n_messages == 0) {
      result.fail("registry stack " + proto.name + " has no sweep size");
      continue;
    }
    SweepStack stack;
    stack.workload = random_workload(options, rng);
    stack.proto = std::move(proto);
    stacks.push_back(std::move(stack));
  }
  const double setup_s = now_s() - start;

  // --- measured rounds: every stack once per round ---
  const auto bare_pass = [&](SweepStack& s) {
    const double t0 = now_s();
    const SimResult r = simulate(s.workload, s.proto.factory, kProcesses);
    const double t = now_s() - t0;
    if (!r.completed) ++result.failed;
    return t;
  };
  const auto traced_pass = [&](SweepStack& s) {
    s.counters = {};
    const ProtocolFactory factory =
        timed_factory(s.proto.factory, &s.counters);
    const double t0 = now_s();
    simulate(s.workload, factory, kProcesses);
    const double t = now_s() - t0;
    s.traced_s.push_back(t);
    s.handler_s.push_back(s.counters.handler_self_s);
    s.engine_s.push_back(t - s.counters.handler_self_s);
  };
  measure_rounds(config.seconds, 3, [&](bool warmup) {
    for (SweepStack& s : stacks) {
      const double t = bare_pass(s);
      if (!warmup) {
        s.bare_s.push_back(t);
        ++result.attempted;
      }
      if (config.trace && !warmup) traced_pass(s);
    }
  });
  const double rss = peak_rss_mb();

  // --- checks and deterministic counts, on one more pass per stack ---
  if (const std::string e = self_test_order_checks(); !e.empty()) {
    result.fail("self-test: " + e);
  }
  std::vector<double> rates;
  double fastest_round = 0;
  std::size_t total_msgs = 0, tag_bytes = 0, packets = 0;
  for (SweepStack& s : stacks) {
    const SimResult r = simulate(s.workload, s.proto.factory, kProcesses);
    const std::string& name = s.proto.name;
    if (!r.completed) {
      result.fail(name + ": run incomplete: " + r.error);
      continue;
    }
    if (std::string e = check_exactly_once(r.trace, s.workload); !e.empty()) {
      result.fail(name + ": " + e);
    }
    if (std::string e = check_declared_order(name, r.trace); !e.empty()) {
      result.fail(name + ": " + e);
    }
    if (std::string e = oracle_check(name, s.proto.factory, config.seed);
        !e.empty()) {
      result.fail(name + ": " + e);
    }
    const std::size_t n = s.workload.size();
    total_msgs += n;
    tag_bytes += r.trace.tag_bytes();
    packets += r.trace.user_packets() + r.trace.control_packets();
    const double best = *std::min_element(s.bare_s.begin(), s.bare_s.end());
    rates.push_back(static_cast<double>(n) / best);
    fastest_round += best;
    std::fprintf(stderr, "perfbench: %s: fastest of %zu passes %.4f s\n",
                 name.c_str(), s.bare_s.size(), best);
    if (config.trace) {
      set_stack_layer_metrics(result, name, r.trace, median(s.engine_s),
                              median(s.handler_s), s.counters.handler_calls);
    }
  }

  if (config.trace) {
    double overhead = 0;
    for (const SweepStack& s : stacks) {
      overhead += median(s.traced_s) - median(s.bare_s);
    }
    result.set("bench.trace_overhead_s", overhead, "s");
    return;
  }
  const double dm = static_cast<double>(total_msgs);
  result.set("msgs_per_s", geomean(rates), "msgs/s");
  result.set("verdicts_per_s",
             static_cast<double>(stacks.size()) / fastest_round, "verdicts/s");
  result.set("tag_bytes_per_msg", static_cast<double>(tag_bytes) / dm,
             "B/msg");
  result.set("packets_per_msg", static_cast<double>(packets) / dm,
             "packets/msg");
  result.set("peak_rss_mb", rss, "MB");
  result.set("setup_s", setup_s, "s");
}

}  // namespace perfbench
