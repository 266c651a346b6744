// Correctness checks the benchmark computes on its own from a run's
// per-process event logs, apart from the library code it measures:
// exactly-once delivery, and the declared orderings checked with vector
// clocks over the user view (send and delivery events, process order
// plus send -> delivery).  Each check returns an empty string when the
// property holds, else a description of the first breach it found.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/trace.hpp"
#include "src/sim/workload.hpp"

namespace perfbench {

/// Every invoked message is invoked and sent once at its source, and
/// received and delivered once at its destination.
std::string check_exactly_once(const msgorder::Trace& trace,
                               const msgorder::Workload& workload);

/// Vector clocks of every user event.  Positions are 1-based indices in
/// the owning process's sequence of user events, so for an event e at
/// process q and any event f, e happened before f iff clock(f)[q] >=
/// pos(e) (and e != f).
struct UserClocks {
  std::size_t n = 0;
  std::vector<std::uint32_t> send_pos;
  std::vector<std::uint32_t> deliver_pos;
  std::vector<std::uint32_t> send_vc;     // n entries per message
  std::vector<std::uint32_t> deliver_vc;  // n entries per message
  /// Per process, the messages it sent, in send order.
  std::vector<std::vector<msgorder::MessageId>> sends;
  /// Per process, the messages it delivered, in delivery order.
  std::vector<std::vector<msgorder::MessageId>> deliveries;

  const std::uint32_t* sent_clock(msgorder::MessageId m) const {
    return &send_vc[static_cast<std::size_t>(m) * n];
  }
  const std::uint32_t* delivered_clock(msgorder::MessageId m) const {
    return &deliver_vc[static_cast<std::size_t>(m) * n];
  }
};

/// Needs a complete run (check_exactly_once first).
std::optional<UserClocks> user_clocks(const msgorder::Trace& trace,
                                      std::string* error);

/// Per channel, deliveries happen in send order.
std::string check_fifo(const msgorder::Trace& trace, const UserClocks& c);
/// If x.s happened before y.s and both go to one process, x is delivered
/// there first (checked per destination with a matrix of delivered
/// per-channel prefixes).
std::string check_causal(const msgorder::Trace& trace, const UserClocks& c);
/// Per channel, a `red` message is delivered after every message sent
/// before it on that channel.
std::string check_local_forward_flush(const msgorder::Trace& trace,
                                      const UserClocks& c, int red);
/// No x with x.s before y.s is delivered causally after a `red` y's
/// delivery (the global forward flush predicate).
std::string check_global_forward_flush(const msgorder::Trace& trace,
                                       const UserClocks& c, int red);

/// The ordering a registry stack declares, checked with the functions
/// above.  Stacks whose ordering is not checked here (async declares
/// none; kweaker-1 and logical synchrony use the program's offline
/// oracle on a small run instead, see oracle_check) only get the
/// checks their ordering implies (causal for the sync stacks).
std::string check_declared_order(const std::string& stack,
                                 const msgorder::Trace& trace);

/// Offline-oracle check on a run small enough for it: in_sync for the
/// sync stacks, satisfies(k_weaker_causal(1)) for kweaker-1.  Empty
/// string for stacks that need none.
std::string oracle_check(const std::string& stack,
                         const msgorder::ProtocolFactory& factory,
                         std::uint64_t seed);

/// The checks must be able to fail: the tagless async stack on a fixed
/// hot input reorders channels, so FIFO, causal and both flush checks
/// must each report a breach.  Returns an empty string when they do.
std::string self_test_order_checks();

/// The causal-past relation of a run's system events, built from the
/// trace's per-process logs: program order plus the send -> receive edge
/// of every message.  Events are encoded as 4 * msg + kind.
class EventGraph {
 public:
  explicit EventGraph(const msgorder::Trace& trace);
  /// Causal past of (msg, kind), the event itself included, sorted.
  std::vector<std::uint64_t> past(msgorder::MessageId msg,
                                  msgorder::EventKind kind) const;

 private:
  /// Previous event at the same process, or -1.
  std::vector<std::int64_t> prev_;
};

}  // namespace perfbench
