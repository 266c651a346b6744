// monitored_run: fifo, causal-rst and global-flush, each watched by one
// OnlineMonitor per declared predicate in kAutomaton mode, attached the
// way examples/quickstart.cpp attaches them.  The checker does nearly
// all of the work.
#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "src/checker/monitor.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace msgorder;

namespace {

/// Messages per stack.  A monitor keeps two (2n x 2n)-bit causality
/// matrices, so its cost per event grows with the run; these sizes keep
/// the matrices within a few MB (passes of 10-40 ms).  At 6000+ messages
/// the passes spill into the shared L3 and spread by ~16% across runs.
std::size_t monitored_messages(const std::string& stack) {
  if (stack == "fifo") return 3000;
  if (stack == "causal-rst") return 2000;
  if (stack == "global-flush") return 2500;
  return 0;
}

struct MonitoredStack {
  RegisteredProtocol proto;
  Workload workload;
  std::vector<std::shared_ptr<OnlineMonitor>> monitors;
  std::vector<double> bare_s, traced_s, engine_s, handler_s, checker_s;
  LayerCounters counters;
  WitnessEngine::Stats engine_stats;
};

/// Fresh monitors for one pass; a traced pass times them into
/// `checker_sink` and collects the search engine's counters.
SimOptions monitored_options(MonitoredStack& s, double* checker_sink) {
  SimOptions options;
  for (const std::shared_ptr<OnlineMonitor>& m : s.monitors) {
    m->reset();
    m->set_engine_stats(checker_sink ? &s.engine_stats : nullptr);
    SimObserver observer = monitor_observer(m);
    if (checker_sink) observer = timed_observer(observer, checker_sink);
    options.observers.add(std::move(observer));
  }
  return options;
}

/// The checker must be able to fire: the tagless async stack under a
/// FIFO monitor on a fixed hot input.  The witness pair is confirmed
/// from the trace's own timestamps.
std::string self_test_monitor() {
  Rng rng(20240602);
  WorkloadOptions options;
  options.n_processes = 4;
  options.n_messages = 400;
  options.mean_gap = 0.2;
  const Workload workload = random_workload(options, rng);
  auto monitor = std::make_shared<OnlineMonitor>(
      workload_universe(workload), fifo(), MonitorSearchMode::kAutomaton);
  SimOptions sopts;
  sopts.observers.add(monitor_observer(monitor));
  const SimResult r = simulate(workload, AsyncProtocol::factory(),
                               options.n_processes, sopts);
  if (!r.completed) return "async run incomplete";
  if (!monitor->violated()) return "FIFO monitor silent on async";
  const ViolationWitness& w = *monitor->first_witness();
  if (w.size() != 2 || w[0] == w[1]) return "witness is not a message pair";
  const Message& a = r.trace.universe()[w[0]];
  const Message& b = r.trace.universe()[w[1]];
  if (a.src != b.src || a.dst != b.dst) return "witness pair spans channels";
  const MessageTimes& ta = r.trace.times(w[0]);
  const MessageTimes& tb = r.trace.times(w[1]);
  const bool inverted = (*ta.send < *tb.send) != (*ta.deliver < *tb.deliver);
  if (!inverted) return "witness pair is delivered in send order";
  return "";
}

}  // namespace

void run_monitored(const RunConfig& config, double start, RunResult& result) {
  // --- set-up: inputs, factories, monitors (spec compilation) ---
  std::vector<MonitoredStack> stacks;
  Rng rng(config.seed);
  double compile_s = 0;
  std::size_t compiled = 0, fallback = 0;
  for (RegisteredProtocol& proto : standard_protocols()) {
    const std::size_t n = monitored_messages(proto.name);
    if (n == 0) continue;
    WorkloadOptions options;
    options.n_processes = kProcesses;
    options.n_messages = n;
    options.red_fraction = kRedFraction;
    MonitoredStack s;
    s.workload = random_workload(options, rng);
    const double t0 = now_s();
    for (const ForbiddenPredicate& p : proto.spec.predicates) {
      s.monitors.push_back(std::make_shared<OnlineMonitor>(
          workload_universe(s.workload), p, MonitorSearchMode::kAutomaton));
    }
    compile_s += now_s() - t0;
    for (const auto& m : s.monitors) {
      ++(m->automaton_info().compiled ? compiled : fallback);
    }
    s.proto = std::move(proto);
    stacks.push_back(std::move(s));
  }
  const double setup_s = now_s() - start;

  // --- measured rounds ---
  measure_rounds(config.seconds, 3, [&](bool warmup) {
    for (MonitoredStack& s : stacks) {
      SimOptions options = monitored_options(s, nullptr);
      double t0 = now_s();
      SimResult r = simulate(s.workload, s.proto.factory, kProcesses, options);
      const double t = now_s() - t0;
      if (warmup) continue;
      ++result.attempted;
      if (!r.completed) ++result.failed;
      s.bare_s.push_back(t);
      if (!config.trace) continue;
      s.counters = {};
      s.engine_stats = {};
      double checker = 0;
      options = monitored_options(s, &checker);
      const ProtocolFactory factory =
          timed_factory(s.proto.factory, &s.counters);
      t0 = now_s();
      r = simulate(s.workload, factory, kProcesses, options);
      const double traced = now_s() - t0;
      s.traced_s.push_back(traced);
      s.checker_s.push_back(checker);
      s.handler_s.push_back(s.counters.handler_self_s);
      s.engine_s.push_back(traced - s.counters.handler_self_s - checker);
    }
  });
  const double rss = peak_rss_mb();

  // --- checks and deterministic counts ---
  if (const std::string e = self_test_monitor(); !e.empty()) {
    result.fail("monitor self-test: " + e);
  }
  std::vector<double> rates;
  double fastest_round = 0;
  std::size_t total_msgs = 0, tag_bytes = 0, packets = 0, verdicts = 0;
  double monitor_s = 0, words = 0, candidates = 0;
  for (MonitoredStack& s : stacks) {
    const std::string& name = s.proto.name;
    SimOptions options = monitored_options(s, nullptr);
    const SimResult r =
        simulate(s.workload, s.proto.factory, kProcesses, options);
    if (!r.completed) {
      result.fail(name + ": run incomplete: " + r.error);
      continue;
    }
    for (const auto& m : s.monitors) {
      if (m->violated()) result.fail(name + ": a monitor fired");
    }
    if (std::string e = check_exactly_once(r.trace, s.workload); !e.empty()) {
      result.fail(name + ": " + e);
    }
    if (std::string e = check_declared_order(name, r.trace); !e.empty()) {
      result.fail(name + ": " + e);
    }
    const std::size_t n = s.workload.size();
    total_msgs += n;
    verdicts += s.monitors.size();
    tag_bytes += r.trace.tag_bytes();
    packets += r.trace.user_packets() + r.trace.control_packets();
    const double best = *std::min_element(s.bare_s.begin(), s.bare_s.end());
    rates.push_back(static_cast<double>(n) / best);
    fastest_round += best;
    if (config.trace) {
      set_stack_layer_metrics(result, name, r.trace, median(s.engine_s),
                              median(s.handler_s), s.counters.handler_calls);
      monitor_s += median(s.checker_s);
      words += static_cast<double>(s.engine_stats.words_scanned);
      candidates += static_cast<double>(s.engine_stats.candidates_surviving);
    }
  }

  if (config.trace) {
    double overhead = 0;
    for (const MonitoredStack& s : stacks) {
      overhead += median(s.traced_s) - median(s.bare_s);
    }
    result.set("bench.trace_overhead_s", overhead, "s");
    result.set("checker.monitor_s", monitor_s, "s");
    result.set("checker.predicates_compiled", static_cast<double>(compiled),
               "count");
    result.set("checker.predicates_fallback", static_cast<double>(fallback),
               "count");
    result.set("checker.words_scanned", words, "count");
    result.set("checker.candidates", candidates, "count");
    result.set("spec.compile_s", compile_s, "s");
    return;
  }
  const double dm = static_cast<double>(total_msgs);
  result.set("msgs_per_s", geomean(rates), "msgs/s");
  result.set("verdicts_per_s", static_cast<double>(verdicts) / fastest_round,
             "verdicts/s");
  result.set("tag_bytes_per_msg", static_cast<double>(tag_bytes) / dm,
             "B/msg");
  result.set("packets_per_msg", static_cast<double>(packets) / dm,
             "packets/msg");
  result.set("peak_rss_mb", rss, "MB");
  result.set("setup_s", setup_s, "s");
}

}  // namespace perfbench
