// observed_run: fifo and causal-rst with tracing, attribution and a
// tracelog file on, followed by the Chrome-trace export and a fixed set
// of tracelog queries (load, index, cone/why/cut).  The observability
// layer (obs) does nearly all of the work.  fifo's run has more events
// than TraceLogIndex's dense limit (BFS queries); causal-rst's has fewer
// (dense closure), so both index paths are measured.
#include <algorithm>
#include <cmath>
#include <optional>

#include "checks.hpp"
#include "src/obs/json.hpp"
#include "src/obs/observability.hpp"
#include "src/obs/tracelog_index.hpp"
#include "src/protocols/registry.hpp"
#include "src/sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace msgorder;

namespace {

std::size_t observed_messages(const std::string& stack) {
  if (stack == "fifo") return 4500;        // 18000 events: BFS index
  if (stack == "causal-rst") return 1000;  // 4000 events: dense index
  return 0;
}

/// Queries of each kind per pass.
constexpr std::size_t kQueries = 16;

struct Steps {
  double sim = 0, export_ = 0, load = 0, index = 0, cone = 0, why = 0,
         cut = 0;
  std::size_t chrome_bytes = 0, tracelog_bytes = 0;
};

struct ObservedStack {
  RegisteredProtocol proto;
  Workload workload;
  std::string tracelog_path;
  std::vector<double> pass_s, traced_s, bare_sim_s, engine_s, handler_s;
  std::vector<Steps> steps;
  LayerCounters counters;
};

/// The messages whose deliveries the cone and why queries ask about.
MessageId query_msg(std::size_t i, std::size_t n_msgs) {
  return static_cast<MessageId>((2 * i + 1) * n_msgs / (2 * kQueries));
}

/// What one observed pass leaves for the checks.
struct PassOutput {
  std::optional<SimResult> sim;
  std::unique_ptr<Observability> obs;
  std::string chrome_json;
  std::optional<LoadedTraceLog> log;
  std::vector<std::vector<std::size_t>> cones;
  bool cuts_consistent = true;
};

/// One observed pass: simulate with observability, export, load, index,
/// query.  Each step's host time goes to `steps`.
PassOutput observed_pass(ObservedStack& s, const ProtocolFactory& factory,
                         Steps& steps) {
  PassOutput out;
  double t = now_s();
  ObservabilityOptions oopts;
  oopts.tracing = true;
  oopts.tracelog = s.tracelog_path;
  oopts.label = s.proto.name;
  out.obs = std::make_unique<Observability>(oopts);
  SimOptions sopts;
  sopts.observability = out.obs.get();
  out.sim.emplace(simulate(s.workload, factory, kProcesses, sopts));
  double t1 = now_s();
  steps.sim = t1 - t;
  out.chrome_json = out.obs->tracer()->chrome_trace_json();
  t = now_s();
  steps.export_ = t - t1;
  steps.chrome_bytes = out.chrome_json.size();
  steps.tracelog_bytes = out.obs->tracelog()->bytes_written();
  out.log = load_tracelog(s.tracelog_path);
  t1 = now_s();
  steps.load = t1 - t;
  if (!out.log) return out;
  const TraceLogIndex index = TraceLogIndex::build(*out.log);
  t = now_s();
  steps.index = t - t1;
  const std::size_t n = s.workload.size();
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::optional<std::size_t> ev =
        index.find_event(query_msg(i, n), EventKind::kDeliver);
    out.cones.push_back(ev ? index.causal_past(*ev)
                           : std::vector<std::size_t>{});
  }
  t1 = now_s();
  steps.cone = t1 - t;
  for (std::size_t i = 0; i < kQueries; ++i) {
    why_blocked(*out.log, query_msg(i, n));
  }
  t = now_s();
  steps.why = t - t1;
  const SimTime end = out.log->records.back().time;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const CutResult cut = cut_at(index, end * static_cast<double>(i + 1) /
                                            static_cast<double>(kQueries + 1));
    out.cuts_consistent = out.cuts_consistent && cut.consistent;
  }
  steps.cut = now_s() - t;
  return out;
}

/// Attribution sums equal the trace's delays; every cone equals the
/// causal past computed from the trace's own logs.
void check_observed(const ObservedStack& s, const PassOutput& out,
                    RunResult& result) {
  const std::string& name = s.proto.name;
  const SimResult& r = *out.sim;
  if (!r.completed) {
    result.fail(name + ": observed run incomplete: " + r.error);
    return;
  }
  if (std::string e = check_exactly_once(r.trace, s.workload); !e.empty()) {
    result.fail(name + ": " + e);
  }
  if (std::string e = check_declared_order(name, r.trace); !e.empty()) {
    result.fail(name + ": " + e);
  }
  const DelayAttribution* attribution = out.obs->attribution();
  if (attribution == nullptr) {
    result.fail(name + ": no attribution table");
    return;
  }
  for (MessageId m = 0; m < r.trace.universe().size(); ++m) {
    const MessageTimes& t = r.trace.times(m);
    const double send_gap =
        attribution->held_time(m, HoldPhase::kSend) - t.send_delay();
    const double deliver_gap =
        attribution->held_time(m, HoldPhase::kDelivery) - t.delivery_delay();
    const double tolerance = 1e-9 * (1.0 + *t.deliver);
    if (std::abs(send_gap) > tolerance || std::abs(deliver_gap) > tolerance) {
      result.fail(name + ": attribution of x" + std::to_string(m) +
                  " does not sum to its delays");
      break;
    }
  }
  if (!out.log) {
    result.fail(name + ": tracelog did not load");
    return;
  }
  if (!out.cuts_consistent) result.fail(name + ": a cut is inconsistent");
  if (out.log->events.size() != 4 * s.workload.size()) {
    result.fail(name + ": tracelog holds the wrong number of events");
  }
  const EventGraph graph(r.trace);
  for (std::size_t i = 0; i < kQueries; ++i) {
    std::vector<std::uint64_t> cone;
    for (const std::size_t ev : out.cones[i]) {
      const TraceLogRecord& rec = out.log->records[out.log->events[ev]];
      cone.push_back(4 * static_cast<std::uint64_t>(rec.event.msg) +
                     static_cast<std::uint64_t>(rec.event.kind));
    }
    std::sort(cone.begin(), cone.end());
    const MessageId m = query_msg(i, s.workload.size());
    if (cone != graph.past(m, EventKind::kDeliver)) {
      result.fail(name + ": cone of x" + std::to_string(m) +
                  ".r differs from the trace's causal past");
      break;
    }
  }
}

}  // namespace

void run_observed(const RunConfig& config, double start, RunResult& result) {
  // --- set-up: inputs and factories ---
  std::vector<ObservedStack> stacks;
  Rng rng(config.seed);
  for (RegisteredProtocol& proto : standard_protocols()) {
    const std::size_t n = observed_messages(proto.name);
    if (n == 0) continue;
    WorkloadOptions options;
    options.n_processes = kProcesses;
    options.n_messages = n;
    options.red_fraction = kRedFraction;
    ObservedStack s;
    s.workload = random_workload(options, rng);
    s.tracelog_path = config.out_dir + "/" + proto.name + ".mtlog";
    s.proto = std::move(proto);
    stacks.push_back(std::move(s));
  }
  const double setup_s = now_s() - start;

  // --- measured rounds ---
  measure_rounds(config.seconds, 3, [&](bool warmup) {
    for (ObservedStack& s : stacks) {
      Steps steps;
      const double t0 = now_s();
      {
        const PassOutput out = observed_pass(s, s.proto.factory, steps);
        if (!warmup && !(out.sim && out.sim->completed && out.log)) {
          ++result.failed;
        }
      }
      const double t = now_s() - t0;
      if (warmup) continue;
      ++result.attempted;
      s.pass_s.push_back(t);
      s.steps.push_back(steps);
      if (!config.trace) continue;
      // The same run without observability, for obs.sim_overhead_s.
      double b0 = now_s();
      simulate(s.workload, s.proto.factory, kProcesses);
      s.bare_sim_s.push_back(now_s() - b0);
      s.counters = {};
      Steps traced_steps;
      b0 = now_s();
      observed_pass(s, timed_factory(s.proto.factory, &s.counters),
                    traced_steps);
      s.traced_s.push_back(now_s() - b0);
      s.handler_s.push_back(s.counters.handler_self_s);
      s.engine_s.push_back(traced_steps.sim - s.counters.handler_self_s);
    }
  });
  const double rss = peak_rss_mb();

  // --- checks (one more pass per stack) and deterministic counts ---
  std::vector<double> rates;
  double fastest_round = 0;
  std::size_t total_msgs = 0, tag_bytes = 0, packets = 0, artifact = 0;
  Steps layer;  // per-layer medians, summed over stacks
  double sim_overhead = 0, trace_overhead = 0;
  for (ObservedStack& s : stacks) {
    const std::string& name = s.proto.name;
    Steps steps;
    const PassOutput out = observed_pass(s, s.proto.factory, steps);
    if (!out.sim) continue;
    check_observed(s, out, result);
    const std::string chrome_path = config.out_dir + "/" + name + ".trace.json";
    std::string io_error;
    if (write_text_file(chrome_path, out.chrome_json, &io_error)) {
      result.json_files.push_back(chrome_path);
    } else {
      result.fail(name + ": cannot write " + chrome_path + ": " + io_error);
    }
    const std::size_t n = s.workload.size();
    total_msgs += n;
    tag_bytes += out.sim->trace.tag_bytes();
    packets += out.sim->trace.user_packets() + out.sim->trace.control_packets();
    artifact += steps.chrome_bytes + steps.tracelog_bytes;
    const double best = *std::min_element(s.pass_s.begin(), s.pass_s.end());
    rates.push_back(static_cast<double>(n) / best);
    fastest_round += best;
    if (!config.trace) continue;
    const auto med = [&](double Steps::*field) {
      std::vector<double> v;
      for (const Steps& st : s.steps) v.push_back(st.*field);
      return median(v);
    };
    layer.export_ += med(&Steps::export_);
    layer.load += med(&Steps::load);
    layer.index += med(&Steps::index);
    layer.cone += med(&Steps::cone);
    layer.why += med(&Steps::why);
    layer.cut += med(&Steps::cut);
    layer.chrome_bytes += steps.chrome_bytes;
    layer.tracelog_bytes += steps.tracelog_bytes;
    sim_overhead += med(&Steps::sim) - median(s.bare_sim_s);
    trace_overhead += median(s.traced_s) - median(s.pass_s);
    set_stack_layer_metrics(result, name, out.sim->trace, median(s.engine_s),
                            median(s.handler_s), s.counters.handler_calls);
  }

  if (config.trace) {
    result.set("bench.trace_overhead_s", trace_overhead, "s");
    result.set("obs.sim_overhead_s", sim_overhead, "s");
    result.set("obs.export_s", layer.export_, "s");
    result.set("obs.chrome_trace_bytes",
               static_cast<double>(layer.chrome_bytes), "B");
    result.set("obs.tracelog_bytes", static_cast<double>(layer.tracelog_bytes),
               "B");
    result.set("obs.artifact_bytes_per_msg",
               static_cast<double>(artifact) / static_cast<double>(total_msgs),
               "B/msg");
    result.set("obs.load_s", layer.load, "s");
    result.set("obs.index_s", layer.index, "s");
    result.set("obs.query_cone_s", layer.cone, "s");
    result.set("obs.query_why_s", layer.why, "s");
    result.set("obs.query_cut_s", layer.cut, "s");
    result.set("obs.query_s",
               layer.load + layer.index + layer.cone + layer.why + layer.cut,
               "s");
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
