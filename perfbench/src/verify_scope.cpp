// verify_scope: verify_stack over every verify target (the registry plus
// synth:causal) on the standard scenarios at 3 processes x 6 messages
// plus one seeded random scenario at 3 x 4, reorder channels.  It
// exercises the verifier and the protocols' snapshot/replay path, with
// no simulation engine at all.
#include <algorithm>

#include "src/verify/scenario.hpp"
#include "src/verify/stacks.hpp"
#include "src/verify/verifier.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace msgorder;

namespace {

struct Target {
  VerifyTarget target;
  std::vector<double> bare_s, traced_s, handler_s;
  StackReport report;
  LayerCounters counters;
};

}  // namespace

void run_verify_scope(const RunConfig& config, double start,
                      RunResult& result) {
  // --- set-up: targets and scenarios ---
  std::vector<Target> targets;
  for (VerifyTarget& t : verify_targets(false)) {
    targets.push_back({std::move(t), {}, {}, {}, {}, {}});
  }
  std::vector<Scenario> scenarios = standard_scenarios(3, 6);
  scenarios.push_back(random_scenario(3, 4, config.seed));
  VerifyOptions options;
  options.channel_model = ChannelModel::kReorder;
  const double setup_s = now_s() - start;

  std::size_t scenario_msgs = 0;
  for (const Scenario& sc : scenarios) scenario_msgs += sc.messages.size();

  // --- measured rounds: every target once per round ---
  measure_rounds(config.seconds, 3, [&](bool warmup) {
    for (Target& t : targets) {
      double t0 = now_s();
      t.report = verify_stack(t.target.name, t.target.factory, t.target.spec,
                              scenarios, options);
      const double elapsed = now_s() - t0;
      if (warmup) continue;
      t.bare_s.push_back(elapsed);
      result.attempted += scenarios.size();
      std::size_t verified = 0;
      for (const ScenarioResult& sr : t.report.scenarios) {
        verified += sr.verdict == "verified" ? 1 : 0;
      }
      result.failed += scenarios.size() - verified;
      if (!config.trace) continue;
      t.counters = {};
      t0 = now_s();
      verify_stack(t.target.name, timed_factory(t.target.factory, &t.counters),
                   t.target.spec, scenarios, options);
      t.traced_s.push_back(now_s() - t0);
      t.handler_s.push_back(t.counters.handler_self_s);
    }
  });
  const double rss = peak_rss_mb();

  // --- checks: every target verified, every mutant caught as expected ---
  double fastest_round = 0;
  std::size_t verdicts = 0;
  for (const Target& t : targets) {
    if (t.report.verdict != "verified") {
      result.fail(t.target.name + ": verdict " + t.report.verdict);
    }
    verdicts += t.report.scenarios.size();
    fastest_round += *std::min_element(t.bare_s.begin(), t.bare_s.end());
  }
  for (const VerifyTarget& m : verify_targets(true)) {
    if (!m.is_mutant) continue;
    const StackReport report =
        verify_stack(m.name, m.factory, m.spec, scenarios, options);
    if (report.verdict != m.expected_verdict) {
      result.fail(m.name + ": verdict " + report.verdict + ", expected " +
                  m.expected_verdict);
    }
  }

  if (config.trace) {
    double overhead = 0;
    for (const Target& t : targets) {
      const std::string name = metric_safe(t.target.name);
      result.set("verify." + name + ".s", median(t.bare_s), "s");
      result.set("verify." + name + ".states",
                 static_cast<double>(t.report.states_total), "count");
      result.set("verify." + name + ".transitions",
                 static_cast<double>(t.report.transitions_total), "count");
      if (t.target.name.find(':') == std::string::npos) {
        const std::string proto = "protocols." + name;
        result.set(proto + ".handler_s", median(t.handler_s), "s");
        result.set(proto + ".handler_calls",
                   static_cast<double>(t.counters.handler_calls), "count");
      }
      overhead += median(t.traced_s) - median(t.bare_s);
    }
    result.set("bench.trace_overhead_s", overhead, "s");
    return;
  }

  // Piggybacked bytes and packets per user packet over the whole
  // exploration, counted on one more untimed sweep.
  LayerCounters counts;
  for (const Target& t : targets) {
    verify_stack(t.target.name, timed_factory(t.target.factory, &counts),
                 t.target.spec, scenarios, options);
  }
  const double user_packets = static_cast<double>(counts.user_packets);
  result.set("msgs_per_s",
             static_cast<double>(targets.size() * scenario_msgs) /
                 fastest_round,
             "msgs/s");
  result.set("verdicts_per_s", static_cast<double>(verdicts) / fastest_round,
             "verdicts/s");
  result.set("tag_bytes_per_msg",
             static_cast<double>(counts.tag_bytes) / user_packets, "B/msg");
  result.set("packets_per_msg",
             static_cast<double>(counts.user_packets + counts.control_packets) /
                 user_packets,
             "packets/msg");
  result.set("peak_rss_mb", rss, "MB");
  result.set("setup_s", setup_s, "s");
}

}  // namespace perfbench
