#include "checks.hpp"

#include <algorithm>

#include "src/checker/limit_sets.hpp"
#include "src/checker/violation.hpp"
#include "src/protocols/async.hpp"
#include "src/protocols/flush.hpp"
#include "src/sim/simulator.hpp"
#include "src/spec/library.hpp"

namespace perfbench {

using namespace msgorder;

namespace {

std::string msg_name(MessageId m) {
  std::string name = "x";
  name += std::to_string(m);
  return name;
}

bool is_sync_stack(const std::string& stack) {
  return stack.rfind("sync-", 0) == 0;
}

}  // namespace

std::string check_exactly_once(const Trace& trace, const Workload& workload) {
  const std::vector<Message>& universe = trace.universe();
  // counts[4 * m + kind]
  std::vector<std::uint32_t> counts(4 * universe.size(), 0);
  for (ProcessId p = 0; p < trace.logs().size(); ++p) {
    for (const TimedEvent& te : trace.logs()[p]) {
      const MessageId m = te.event.msg;
      if (m >= universe.size()) return "event for unknown message";
      const bool at_source = te.event.kind == EventKind::kInvoke ||
                             te.event.kind == EventKind::kSend;
      const ProcessId expected = at_source ? universe[m].src : universe[m].dst;
      if (p != expected) {
        return msg_name(m) + " has an event at the wrong process p" +
               std::to_string(p);
      }
      ++counts[4 * static_cast<std::size_t>(m) +
               static_cast<std::size_t>(te.event.kind)];
    }
  }
  for (const InvokeRequest& req : workload) {
    const MessageId m = req.message.id;
    for (std::size_t k = 0; k < 4; ++k) {
      if (counts[4 * static_cast<std::size_t>(m) + k] != 1) {
        return msg_name(m) + " event kind " + std::to_string(k) + " seen " +
               std::to_string(counts[4 * static_cast<std::size_t>(m) + k]) +
               " times";
      }
    }
  }
  if (trace.universe().size() != workload.size()) {
    return "trace universe differs from the workload";
  }
  return "";
}

std::optional<UserClocks> user_clocks(const Trace& trace,
                                      std::string* error) {
  const std::size_t n = trace.logs().size();
  const std::size_t n_msgs = trace.universe().size();
  UserClocks c;
  c.n = n;
  c.send_pos.assign(n_msgs, 0);
  c.deliver_pos.assign(n_msgs, 0);
  c.send_vc.assign(n_msgs * n, 0);
  c.deliver_vc.assign(n_msgs * n, 0);
  c.sends.assign(n, {});
  c.deliveries.assign(n, {});

  // Process the user events in a causally consistent order: a process
  // that reaches a delivery whose send has not been processed waits for
  // it (the sender wakes it).
  std::vector<std::vector<const TimedEvent*>> seq(n);
  for (std::size_t p = 0; p < n; ++p) {
    for (const TimedEvent& te : trace.logs()[p]) {
      if (is_user_kind(te.event.kind)) seq[p].push_back(&te);
    }
  }
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::vector<std::uint32_t>> clock(
      n, std::vector<std::uint32_t>(n, 0));
  std::vector<char> sent(n_msgs, 0);
  std::vector<std::int64_t> waiter(n_msgs, -1);
  std::vector<std::size_t> ready(n);
  for (std::size_t p = 0; p < n; ++p) ready[p] = p;
  while (!ready.empty()) {
    const std::size_t p = ready.back();
    ready.pop_back();
    std::vector<std::uint32_t>& vc = clock[p];
    while (cursor[p] < seq[p].size()) {
      const SystemEvent e = seq[p][cursor[p]]->event;
      const std::size_t m = e.msg;
      if (e.kind == EventKind::kDeliver) {
        if (!sent[m]) {
          waiter[m] = static_cast<std::int64_t>(p);
          break;
        }
        const std::uint32_t* sc = c.sent_clock(e.msg);
        for (std::size_t q = 0; q < n; ++q) vc[q] = std::max(vc[q], sc[q]);
        ++vc[p];
        c.deliver_pos[m] = vc[p];
        std::copy(vc.begin(), vc.end(), c.deliver_vc.begin() + m * n);
        c.deliveries[p].push_back(e.msg);
      } else {
        ++vc[p];
        c.send_pos[m] = vc[p];
        std::copy(vc.begin(), vc.end(), c.send_vc.begin() + m * n);
        c.sends[p].push_back(e.msg);
        sent[m] = 1;
        if (waiter[m] >= 0) {
          ready.push_back(static_cast<std::size_t>(waiter[m]));
          waiter[m] = -1;
        }
      }
      ++cursor[p];
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    if (cursor[p] != seq[p].size()) {
      if (error) *error = "user events of p" + std::to_string(p) +
                          " wait on a send that never happens";
      return std::nullopt;
    }
  }
  return c;
}

std::string check_fifo(const Trace& trace, const UserClocks& c) {
  const std::vector<Message>& universe = trace.universe();
  std::vector<std::uint32_t> last(c.n * c.n, 0);  // [src * n + dst]
  for (std::size_t p = 0; p < c.n; ++p) {
    for (const MessageId m : c.sends[p]) {
      std::uint32_t& prev = last[p * c.n + universe[m].dst];
      if (c.deliver_pos[m] <= prev) {
        return "FIFO: " + msg_name(m) + " overtaken on channel p" +
               std::to_string(p) + "->p" + std::to_string(universe[m].dst);
      }
      prev = c.deliver_pos[m];
    }
  }
  return "";
}

std::string check_causal(const Trace& trace, const UserClocks& c) {
  const std::vector<Message>& universe = trace.universe();
  const std::size_t n = c.n;
  // channel[q * n + d]: send positions (at q) of the messages q -> d in
  // send order; delivered_prefix counts how many of them, from the
  // front, are delivered — together an n x n matrix of delivered
  // per-channel prefixes.
  std::vector<std::vector<std::uint32_t>> channel(n * n);
  std::vector<std::vector<MessageId>> channel_msgs(n * n);
  for (std::size_t q = 0; q < n; ++q) {
    for (const MessageId m : c.sends[q]) {
      channel[q * n + universe[m].dst].push_back(c.send_pos[m]);
      channel_msgs[q * n + universe[m].dst].push_back(m);
    }
  }
  std::vector<char> delivered(universe.size(), 0);
  std::vector<std::size_t> delivered_prefix(n * n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    for (const MessageId y : c.deliveries[d]) {
      delivered[y] = 1;
      const std::size_t cy = universe[y].src * n + d;
      std::size_t& prefix = delivered_prefix[cy];
      while (prefix < channel_msgs[cy].size() &&
             delivered[channel_msgs[cy][prefix]]) {
        ++prefix;
      }
      const std::uint32_t* vc = c.sent_clock(y);
      for (std::size_t q = 0; q < n; ++q) {
        const std::vector<std::uint32_t>& sends = channel[q * n + d];
        const std::size_t before = static_cast<std::size_t>(
            std::upper_bound(sends.begin(), sends.end(), vc[q]) -
            sends.begin());
        if (delivered_prefix[q * n + d] < before) {
          const MessageId x =
              channel_msgs[q * n + d][delivered_prefix[q * n + d]];
          return "causal: " + msg_name(y) + " delivered at p" +
                 std::to_string(d) + " before causally earlier " +
                 msg_name(x);
        }
      }
    }
  }
  return "";
}

std::string check_local_forward_flush(const Trace& trace,
                                      const UserClocks& c, int red) {
  const std::vector<Message>& universe = trace.universe();
  std::vector<std::uint32_t> latest(c.n * c.n, 0);  // max delivery pos
  for (std::size_t p = 0; p < c.n; ++p) {
    for (const MessageId m : c.sends[p]) {
      std::uint32_t& prev = latest[p * c.n + universe[m].dst];
      if (universe[m].color == red && c.deliver_pos[m] <= prev) {
        return "forward flush: red " + msg_name(m) +
               " delivered before an earlier message on its channel";
      }
      prev = std::max(prev, c.deliver_pos[m]);
    }
  }
  return "";
}

std::string check_global_forward_flush(const Trace& trace,
                                       const UserClocks& c, int red) {
  const std::vector<Message>& universe = trace.universe();
  for (MessageId y = 0; y < universe.size(); ++y) {
    if (universe[y].color != red) continue;
    const std::uint32_t* y_send = c.sent_clock(y);
    const ProcessId y_dst = universe[y].dst;
    const std::uint32_t y_deliver = c.deliver_pos[y];
    for (std::size_t q = 0; q < c.n; ++q) {
      for (const MessageId x : c.sends[q]) {
        if (c.send_pos[x] > y_send[q]) break;  // not before y.s
        if (x == y) continue;
        if (c.delivered_clock(x)[y_dst] >= y_deliver) {
          return "global forward flush: " + msg_name(x) +
                 " sent before red " + msg_name(y) +
                 " is delivered causally after it";
        }
      }
    }
  }
  return "";
}

std::string check_declared_order(const std::string& stack,
                                 const Trace& trace) {
  std::string error;
  const std::optional<UserClocks> clocks = user_clocks(trace, &error);
  if (!clocks) return error;
  if (stack == "fifo") return check_fifo(trace, *clocks);
  if (stack == "causal-rst" || stack == "causal-ses") {
    error = check_fifo(trace, *clocks);
    return error.empty() ? check_causal(trace, *clocks) : error;
  }
  if (stack == "flush") {
    return check_local_forward_flush(trace, *clocks, kForwardFlush);
  }
  if (stack == "global-flush") {
    return check_global_forward_flush(trace, *clocks, 1);
  }
  if (is_sync_stack(stack)) return check_causal(trace, *clocks);
  return "";
}

std::string oracle_check(const std::string& stack,
                         const ProtocolFactory& factory, std::uint64_t seed) {
  const bool sync = is_sync_stack(stack);
  if (!sync && stack != "kweaker-1") return "";
  Rng rng(seed ^ 0x6f7261636c65ULL);  // "oracle"
  WorkloadOptions options;
  options.n_processes = 16;
  options.n_messages = 300;
  options.red_fraction = 0.1;
  const Workload workload = random_workload(options, rng);
  const SimResult result = simulate(workload, factory, options.n_processes);
  if (!result.completed) return "oracle run incomplete: " + result.error;
  const std::optional<UserRun> run = result.trace.to_user_run();
  if (!run) return "oracle run has no user view";
  if (sync) return in_sync(*run) ? "" : "in_sync rejects the run";
  return satisfies(*run, k_weaker_causal(1))
             ? ""
             : "satisfies(k_weaker_causal(1)) rejects the run";
}

std::string self_test_order_checks() {
  // Fixed input, independent of the benchmark seed: 4 processes sending
  // hot enough that channel jitter reorders many pairs.
  Rng rng(20240601);
  WorkloadOptions options;
  options.n_processes = 4;
  options.n_messages = 2000;
  options.mean_gap = 0.2;
  options.red_fraction = 0.3;
  const Workload workload = random_workload(options, rng);
  const SimResult result =
      simulate(workload, AsyncProtocol::factory(), options.n_processes);
  if (!result.completed) return "self-test async run incomplete";
  std::string error;
  const std::optional<UserClocks> clocks = user_clocks(result.trace, &error);
  if (!clocks) return "self-test: " + error;
  const Trace& trace = result.trace;
  if (check_fifo(trace, *clocks).empty()) return "FIFO check missed async";
  if (check_causal(trace, *clocks).empty()) return "causal check missed async";
  if (check_local_forward_flush(trace, *clocks, 1).empty()) {
    return "local flush check missed async";
  }
  if (check_global_forward_flush(trace, *clocks, 1).empty()) {
    return "global flush check missed async";
  }
  return "";
}

EventGraph::EventGraph(const Trace& trace)
    : prev_(4 * trace.universe().size(), -1) {
  for (const std::vector<TimedEvent>& log : trace.logs()) {
    std::int64_t previous = -1;
    for (const TimedEvent& te : log) {
      const std::int64_t node = 4 * static_cast<std::int64_t>(te.event.msg) +
                                static_cast<std::int64_t>(te.event.kind);
      prev_[static_cast<std::size_t>(node)] = previous;
      previous = node;
    }
  }
}

std::vector<std::uint64_t> EventGraph::past(MessageId msg,
                                            EventKind kind) const {
  std::vector<char> seen(prev_.size(), 0);
  std::vector<std::uint64_t> out;
  std::vector<std::int64_t> stack = {4 * static_cast<std::int64_t>(msg) +
                                     static_cast<std::int64_t>(kind)};
  while (!stack.empty()) {
    const std::int64_t node = stack.back();
    stack.pop_back();
    if (node < 0 || seen[static_cast<std::size_t>(node)]) continue;
    seen[static_cast<std::size_t>(node)] = 1;
    out.push_back(static_cast<std::uint64_t>(node));
    stack.push_back(prev_[static_cast<std::size_t>(node)]);
    if (node % 4 == static_cast<std::int64_t>(EventKind::kReceive)) {
      stack.push_back(node - 1);  // the message's send
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
