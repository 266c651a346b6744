// Tests for the trace-log index + query engine (ISSUE 9): causal cones
// against a dense BitMatrix closure and a brute-force reachability
// check, cones and cuts on a large log and on a receive logged before
// its send, hostile log files, consistent cuts, why-blocked chains on a
// token protocol, the run-divergence bisector on identical and
// deliberately perturbed runs, and the msgorder_query subcommand
// renderings the CI smoke tests grep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/tracelog.hpp"
#include "src/obs/tracelog_index.hpp"
#include "src/protocols/fifo.hpp"
#include "src/protocols/sync_token.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/bitmatrix.hpp"

namespace msgorder {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "msgorder_" + name;
}

struct Fixture {
  std::string path;
  LoadedTraceLog log;
};

/// One recorded sync-token run (tokens mean real wait_token holds with
/// blocking-process references — the why-chain's food).
Fixture record_sync_token(const std::string& name, std::size_t shards = 1,
                          std::uint64_t perturb_xor = 0) {
  Rng rng(404);
  WorkloadOptions wopts;
  wopts.n_processes = 4;
  wopts.n_messages = 50;
  wopts.mean_gap = 0.3;
  const Workload workload = random_workload(wopts, rng);
  Fixture fx;
  fx.path = temp_path(name);
  ObservabilityOptions oopts;
  oopts.tracelog = fx.path;
  Observability obs(oopts);
  SimOptions sopts;
  sopts.seed = 31;
  sopts.network.jitter_mean = 3.0;
  sopts.shards = shards;
  sopts.observability = &obs;
  if (perturb_xor != 0) {
    sopts.network.perturb_channel_xor = perturb_xor;
    sopts.network.perturb_src = workload.front().message.src;
    sopts.network.perturb_dst = workload.front().message.dst;
  }
  const SimResult result =
      simulate(workload, SyncTokenProtocol::factory(), 4, sopts);
  EXPECT_TRUE(result.completed) << result.error;
  std::string error;
  auto log = load_tracelog(fx.path, &error);
  EXPECT_TRUE(log.has_value()) << error;
  if (log.has_value()) fx.log = std::move(*log);
  return fx;
}

/// Brute-force causal reachability: does `from` reach `to` following
/// program order + send->receive edges?  Ground truth for the index.
bool reaches(const TraceLogIndex& index, std::size_t from, std::size_t to) {
  if (from == to) return true;
  std::vector<std::size_t> stack = {from};
  std::set<std::size_t> seen = {from};
  while (!stack.empty()) {
    const std::size_t ev = stack.back();
    stack.pop_back();
    for (std::size_t next = ev + 1; next < index.event_count(); ++next) {
      // Recompute edges naively: program order or channel edge.
      const TraceLogRecord& a = index.event(ev);
      const TraceLogRecord& b = index.event(next);
      bool edge = false;
      if (a.process == b.process) {
        // Program-order edge only to the *next* event at the process.
        bool between = false;
        for (std::size_t mid = ev + 1; mid < next; ++mid) {
          if (index.event(mid).process == a.process) between = true;
        }
        edge = !between;
      }
      if (a.event.kind == EventKind::kSend &&
          b.event.kind == EventKind::kReceive &&
          a.event.msg == b.event.msg) {
        edge = true;
      }
      if (edge && seen.insert(next).second) {
        if (next == to) return true;
        stack.push_back(next);
      }
    }
  }
  return false;
}

TEST(TraceLogIndex, ConesMatchBruteForceAndClosureAtEveryAnchor) {
  const Fixture fx = record_sync_token("index_fixture.tracelog");
  ASSERT_FALSE(fx.log.events.empty());
  const TraceLogIndex index = TraceLogIndex::build(fx.log);
  const std::size_t n = index.event_count();
  ASSERT_EQ(n, fx.log.events.size());

  // Reference: the dense transitive closure of the index's own direct
  // edges.  Every anchor's past and future cone must equal its column
  // and row of the closure, anchor included, in ascending order.
  BitMatrix reach(n);
  for (std::size_t to = 0; to < n; ++to) {
    for (const std::uint32_t from : index.preds(to)) reach.set(from, to);
  }
  reach.transitive_closure();
  for (std::size_t ev = 0; ev < n; ++ev) {
    std::vector<std::size_t> past;
    std::vector<std::size_t> future;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == ev || reach.get(j, ev)) past.push_back(j);
      if (j == ev || reach.get(ev, j)) future.push_back(j);
    }
    EXPECT_EQ(index.causal_past(ev), past) << "past of " << ev;
    EXPECT_EQ(index.causal_future(ev), future) << "future of " << ev;
  }

  // The edges themselves are checked against a brute force that
  // recomputes them from the records; it is quadratic, so sample.
  for (std::size_t ev = 0; ev < n; ev += n / 17 + 1) {
    for (const std::size_t p : index.causal_past(ev)) {
      EXPECT_TRUE(reaches(index, p, ev)) << p << " not an ancestor of " << ev;
    }
  }

  // Exhaustive pairwise check on a small prefix.
  const std::size_t prefix = std::min<std::size_t>(n, 40);
  for (std::size_t a = 0; a < prefix; ++a) {
    const auto past = index.causal_past(a);
    for (std::size_t b = 0; b < prefix; ++b) {
      const bool in_cone =
          std::find(past.begin(), past.end(), b) != past.end();
      EXPECT_EQ(in_cone, reaches(index, b, a))
          << "cone membership of " << b << " in past(" << a << ")";
    }
  }
}

/// Per-anchor DFS: the reference cone for logs too large for a dense
/// closure.  `next(ev)` lists the events one edge away from ev.
template <typename Next>
std::vector<std::size_t> dfs_cone(std::size_t n, std::size_t from,
                                  const Next& next) {
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> stack = {from};
  seen[from] = 1;
  std::vector<std::size_t> out;
  while (!stack.empty()) {
    const std::size_t ev = stack.back();
    stack.pop_back();
    out.push_back(ev);
    for (const std::uint32_t other : next(ev)) {
      if (seen[other] == 0) {
        seen[other] = 1;
        stack.push_back(other);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// An 18000-event log, past the size where a dense closure pays: cones
// match a per-anchor DFS and cuts account for exactly the messages
// straddling them.
TEST(TraceLogIndex, LargeFifoLogConesAndCutsMatchReference) {
  Rng rng(77);
  WorkloadOptions wopts;
  wopts.n_processes = 6;
  wopts.n_messages = 4500;
  wopts.mean_gap = 0.2;
  const Workload workload = random_workload(wopts, rng);
  const std::string path = temp_path("large_fifo.tracelog");
  {
    ObservabilityOptions oopts;
    oopts.tracelog = path;
    Observability obs(oopts);
    SimOptions sopts;
    sopts.seed = 5;
    sopts.network.jitter_mean = 2.0;
    sopts.observability = &obs;
    const SimResult result =
        simulate(workload, FifoProtocol::factory(), 6, sopts);
    ASSERT_TRUE(result.completed) << result.error;
  }
  std::string error;
  const auto log = load_tracelog(path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  const TraceLogIndex index = TraceLogIndex::build(*log);
  const std::size_t n = index.event_count();
  ASSERT_EQ(n, 4 * wopts.n_messages);
  ASSERT_GT(n, 16384u);

  std::multimap<std::size_t, std::uint32_t> succs;
  for (std::size_t to = 0; to < n; ++to) {
    for (const std::uint32_t from : index.preds(to)) {
      ASSERT_LT(from, to) << "edge against log order";
      succs.emplace(from, static_cast<std::uint32_t>(to));
    }
  }
  const auto preds_of = [&index](std::size_t ev) { return index.preds(ev); };
  const auto succs_of = [&succs](std::size_t ev) {
    std::vector<std::uint32_t> out;
    const auto [lo, hi] = succs.equal_range(ev);
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
    return out;
  };
  for (std::size_t ev = 0; ev < n; ev += n / 23 + 1) {
    EXPECT_EQ(index.causal_past(ev), dfs_cone(n, ev, preds_of))
        << "past of " << ev;
    EXPECT_EQ(index.causal_future(ev), dfs_cone(n, ev, succs_of))
        << "future of " << ev;
  }

  // in_flight against the raw send/receive times.
  std::map<MessageId, SimTime> sent_at;
  std::map<MessageId, SimTime> received_at;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceLogRecord& rec = index.event(i);
    if (rec.event.kind == EventKind::kSend) sent_at[rec.event.msg] = rec.time;
    if (rec.event.kind == EventKind::kReceive) {
      received_at[rec.event.msg] = rec.time;
    }
  }
  ASSERT_EQ(sent_at.size(), wopts.n_messages);
  const SimTime end = index.event(n - 1).time;
  bool straddled = false;
  for (int k = 1; k <= 7; ++k) {
    const SimTime t = end * k / 8;
    const CutResult cut = cut_at(index, t);
    std::vector<MessageId> expected;
    for (const auto& [msg, send_time] : sent_at) {
      if (send_time <= t && received_at.at(msg) > t) expected.push_back(msg);
    }
    EXPECT_TRUE(cut.consistent) << "cut at " << t;
    EXPECT_EQ(cut.in_flight, expected) << "cut at " << t;
    straddled = straddled || !expected.empty();
  }
  EXPECT_TRUE(straddled) << "no cut had a message in flight";
  std::remove(path.c_str());
}

// Log order is a topological order of the index's edges only because a
// channel edge is added when the send was already seen.  A receive
// logged before its send gets no backward edge, and the cones and cuts
// around it stay well defined.
TEST(TraceLogIndex, ReceiveLoggedBeforeItsSendGetsNoBackwardEdge) {
  const auto event = [](ProcessId p, MessageId msg, EventKind kind,
                        SimTime t) {
    TraceLogRecord rec;
    rec.type = TraceLogRecord::Type::kEvent;
    rec.event = {msg, kind};
    rec.process = p;
    rec.peer = 1 - p;
    rec.time = t;
    return rec;
  };
  LoadedTraceLog log;
  log.header.n_processes = 2;
  log.records = {event(0, 0, EventKind::kInvoke, 0.0),
                 event(1, 0, EventKind::kReceive, 1.0),
                 event(0, 0, EventKind::kSend, 2.0),
                 event(1, 0, EventKind::kDeliver, 3.0)};
  log.events = {0, 1, 2, 3};
  const TraceLogIndex index = TraceLogIndex::build(log);
  ASSERT_EQ(index.event_count(), 4u);

  EXPECT_TRUE(index.preds(0).empty());
  EXPECT_TRUE(index.preds(1).empty());  // no send seen yet: no edge
  EXPECT_EQ(index.preds(2), std::vector<std::uint32_t>{0});
  EXPECT_EQ(index.preds(3), std::vector<std::uint32_t>{1});

  using Cone = std::vector<std::size_t>;
  EXPECT_EQ(index.causal_past(1), Cone{1});
  EXPECT_EQ(index.causal_past(3), (Cone{1, 3}));
  EXPECT_EQ(index.causal_future(0), (Cone{0, 2}));
  EXPECT_EQ(index.causal_future(2), Cone{2});

  // Before the send: the receive is in the cut, nothing is in flight.
  const CutResult early = cut_at(index, 1.5);
  EXPECT_TRUE(early.consistent);
  EXPECT_EQ(early.events_in_cut, 2u);
  ASSERT_EQ(early.frontier.size(), 2u);
  EXPECT_EQ(early.frontier[0], std::optional<std::size_t>(0));
  EXPECT_EQ(early.frontier[1], std::optional<std::size_t>(1));
  EXPECT_TRUE(early.in_flight.empty());
  // After the send: no receive follows it through a channel edge, so
  // the message counts as in flight until the end of the log.
  const CutResult late = cut_at(index, 2.5);
  EXPECT_TRUE(late.consistent);
  EXPECT_EQ(late.events_in_cut, 3u);
  EXPECT_EQ(late.in_flight, std::vector<MessageId>{0});
}

TEST(TraceLogIndex, SendReceiveEdgeAndLamportAgree) {
  const Fixture fx = record_sync_token("lamport_fixture.tracelog");
  const TraceLogIndex index = TraceLogIndex::build(fx.log);
  // Every receive has its send in the causal past, and Lamport clocks
  // are monotone along cone membership.
  for (std::size_t ev = 0; ev < index.event_count(); ++ev) {
    const TraceLogRecord& rec = index.event(ev);
    if (rec.event.kind != EventKind::kReceive) continue;
    const auto send = index.find_event(rec.event.msg, EventKind::kSend);
    ASSERT_TRUE(send.has_value());
    const auto past = index.causal_past(ev);
    EXPECT_TRUE(std::find(past.begin(), past.end(), *send) != past.end());
    EXPECT_LT(index.event(*send).lamport, rec.lamport);
  }
}

TEST(TraceLogIndex, CutAtIsConsistentAndAccountsInFlight) {
  const Fixture fx = record_sync_token("cut_fixture.tracelog");
  const TraceLogIndex index = TraceLogIndex::build(fx.log);
  const std::size_t mid_ev = index.event_count() / 2;
  const SimTime t = index.event(mid_ev).time;
  const CutResult cut = cut_at(index, t);
  EXPECT_TRUE(cut.consistent);
  EXPECT_GT(cut.events_in_cut, 0u);
  EXPECT_EQ(cut.frontier.size(), fx.log.header.n_processes);
  // Every in-flight message straddles the cut: send <= t, receive > t
  // (or missing).
  for (const MessageId m : cut.in_flight) {
    const auto send = index.find_event(m, EventKind::kSend);
    ASSERT_TRUE(send.has_value());
    EXPECT_LE(index.event(*send).time, t);
    const auto recv = index.find_event(m, EventKind::kReceive);
    if (recv.has_value()) EXPECT_GT(index.event(*recv).time, t);
  }
  // Cuts at the extremes: before the first event, and after the last.
  const CutResult empty = cut_at(index, index.event(0).time - 1.0);
  EXPECT_EQ(empty.events_in_cut, 0u);
  EXPECT_TRUE(empty.in_flight.empty());
  const CutResult full =
      cut_at(index, index.event(index.event_count() - 1).time + 1.0);
  EXPECT_EQ(full.events_in_cut, index.event_count());
  EXPECT_TRUE(full.in_flight.empty());
}

TEST(TraceLogIndex, WhyBlockedWalksToTheRootBlocker) {
  const Fixture fx = record_sync_token("why_fixture.tracelog");
  // Find a message with a hold report; the chain must start there and
  // terminate (root or cycle) within the universe.
  std::optional<MessageId> held;
  for (const TraceLogRecord& rec : fx.log.records) {
    if (rec.type == TraceLogRecord::Type::kHold) {
      held = rec.held_msg;
      break;
    }
  }
  ASSERT_TRUE(held.has_value()) << "sync-token run produced no holds";
  const WhyChain chain = why_blocked(fx.log, *held);
  EXPECT_EQ(chain.msg, *held);
  ASSERT_FALSE(chain.links.empty());
  EXPECT_EQ(chain.links.front().msg, *held);
  EXPECT_GT(chain.links.front().reports, 0u);
  for (std::size_t i = 0; i + 1 < chain.links.size(); ++i) {
    ASSERT_TRUE(chain.links[i].reason.blocking_msg.has_value());
    EXPECT_EQ(*chain.links[i].reason.blocking_msg, chain.links[i + 1].msg);
  }
  if (!chain.cycle) {
    // The root link's reason names no further blocking message that was
    // itself reported held.
    const WhyLink& root = chain.links.back();
    if (root.reason.blocking_msg.has_value()) {
      const WhyChain next = why_blocked(fx.log, *root.reason.blocking_msg);
      EXPECT_TRUE(next.links.empty());
    }
  }
  // A message that was never held reports an empty chain.
  const WhyChain none = why_blocked(fx.log, 9999);
  EXPECT_TRUE(none.links.empty());
}

TEST(Queries, TextAndJsonRenderingsAreWellFormed) {
  const Fixture fx = record_sync_token("query_fixture.tracelog");
  std::string error;

  const QueryOutput summary = query_summary(fx.path);
  EXPECT_EQ(summary.exit_code, 0);
  EXPECT_NE(summary.text.find("engine sequential"), std::string::npos)
      << summary.text;
  EXPECT_NE(summary.text.find("events"), std::string::npos);
  ASSERT_TRUE(json_validate(summary.json, &error)) << error;
  EXPECT_NE(summary.json.find("\"schema\":\"msgorder.query/1\""),
            std::string::npos);
  EXPECT_NE(summary.json.find("\"subcommand\":\"summary\""),
            std::string::npos);

  const QueryOutput cone =
      query_cone(fx.path, 0, EventKind::kDeliver, false, 0);
  EXPECT_EQ(cone.exit_code, 0);
  EXPECT_NE(cone.text.find("<- anchor"), std::string::npos);
  ASSERT_TRUE(json_validate(cone.json, &error)) << error;

  // A limit keeps the tail and reports what it dropped.
  const QueryOutput limited =
      query_cone(fx.path, 0, EventKind::kDeliver, false, 2);
  EXPECT_EQ(limited.exit_code, 0);
  ASSERT_TRUE(json_validate(limited.json, &error)) << error;

  const QueryOutput cut = query_cut(fx.path, 20.0);
  EXPECT_EQ(cut.exit_code, 0);
  EXPECT_NE(cut.text.find("cut at t="), std::string::npos) << cut.text;
  EXPECT_NE(cut.text.find("in flight"), std::string::npos);
  ASSERT_TRUE(json_validate(cut.json, &error)) << error;

  std::optional<MessageId> held;
  for (const TraceLogRecord& rec : fx.log.records) {
    if (rec.type == TraceLogRecord::Type::kHold) {
      held = rec.held_msg;
      break;
    }
  }
  ASSERT_TRUE(held.has_value());
  const QueryOutput why = query_why(fx.path, *held);
  EXPECT_EQ(why.exit_code, 0);
  EXPECT_NE(why.text.find("wait_"), std::string::npos) << why.text;
  ASSERT_TRUE(json_validate(why.json, &error)) << error;

  // Errors: missing file and unknown anchor exit 2 with an "error" key.
  const QueryOutput missing = query_summary(temp_path("nope.tracelog"));
  EXPECT_EQ(missing.exit_code, 2);
  ASSERT_TRUE(json_validate(missing.json, &error)) << error;
  EXPECT_NE(missing.json.find("\"error\""), std::string::npos);
  const QueryOutput bad_anchor =
      query_cone(fx.path, 9999, EventKind::kDeliver, false, 0);
  EXPECT_EQ(bad_anchor.exit_code, 2);

  EXPECT_EQ(parse_event_kind("s*"), EventKind::kInvoke);
  EXPECT_EQ(parse_event_kind("deliver"), EventKind::kDeliver);
  EXPECT_EQ(parse_event_kind("bogus"), std::nullopt);
}

// The acceptance criterion: identical-seed sequential vs sharded logs
// report no divergence; a run with one channel's RNG stream perturbed
// names the exact first diverging record with causal context from both
// sides.
TEST(Diverge, SequentialVsShardedIsCleanAndPerturbedIsBisected) {
  const Fixture seq = record_sync_token("div_seq.tracelog", 1);
  const Fixture shd = record_sync_token("div_shd.tracelog", 4);
  const Fixture pert =
      record_sync_token("div_pert.tracelog", 1, 0x9e3779b97f4a7c15ULL);

  // Clean pair.
  const DivergenceReport clean = diverge_tracelogs(seq.path, shd.path);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_FALSE(clean.diverged);
  EXPECT_EQ(clean.records_compared, seq.log.records.size());
  EXPECT_TRUE(clean.warnings.empty());
  const QueryOutput clean_q = query_diverge(seq.path, shd.path, 12);
  EXPECT_EQ(clean_q.exit_code, 0);
  EXPECT_NE(clean_q.text.find("no divergence"), std::string::npos);
  std::string error;
  ASSERT_TRUE(json_validate(clean_q.json, &error)) << error;
  EXPECT_NE(clean_q.json.find("\"diverged\":false"), std::string::npos);

  // Perturbed pair: the report must name the exact first index at which
  // the two record streams differ — verified against a manual scan.
  const DivergenceReport div = diverge_tracelogs(seq.path, pert.path);
  ASSERT_TRUE(div.ok) << div.error;
  ASSERT_TRUE(div.diverged);
  std::size_t expected = 0;
  const std::size_t common =
      std::min(seq.log.records.size(), pert.log.records.size());
  while (expected < common &&
         seq.log.records[expected] == pert.log.records[expected]) {
    ++expected;
  }
  EXPECT_EQ(div.index, expected);
  EXPECT_FALSE(div.field.empty());
  ASSERT_TRUE(div.record_a.has_value());
  ASSERT_TRUE(div.record_b.has_value());
  EXPECT_FALSE(*div.record_a == *div.record_b);
  // Non-empty causal-past context from BOTH logs.
  EXPECT_FALSE(div.context_a.empty());
  EXPECT_FALSE(div.context_b.empty());

  const QueryOutput div_q = query_diverge(seq.path, pert.path, 12);
  EXPECT_EQ(div_q.exit_code, 1);
  EXPECT_NE(div_q.text.find("diverge"), std::string::npos);
  EXPECT_NE(div_q.text.find("<- diverging record"), std::string::npos);
  ASSERT_TRUE(json_validate(div_q.json, &error)) << error;
  EXPECT_NE(div_q.json.find("\"diverged\":true"), std::string::npos);
  EXPECT_NE(div_q.json.find("\"context_a\""), std::string::npos);
  EXPECT_NE(div_q.json.find("\"context_b\""), std::string::npos);

  // Self-compare is trivially clean.
  const DivergenceReport self = diverge_tracelogs(seq.path, seq.path);
  ASSERT_TRUE(self.ok);
  EXPECT_FALSE(self.diverged);

  std::remove(seq.path.c_str());
  std::remove(shd.path.c_str());
  std::remove(pert.path.c_str());
}

TEST(Diverge, MismatchedSetupsWarnAndMissingFilesError) {
  const Fixture a = record_sync_token("warn_a.tracelog");
  // A log with a different seed: still diffable, but warned about.
  const std::string b_path = temp_path("warn_b.tracelog");
  {
    Rng rng(404);
    WorkloadOptions wopts;
    wopts.n_processes = 4;
    wopts.n_messages = 50;
    wopts.mean_gap = 0.3;
    const Workload workload = random_workload(wopts, rng);
    ObservabilityOptions oopts;
    oopts.tracelog = b_path;
    Observability obs(oopts);
    SimOptions sopts;
    sopts.seed = 32;  // != 31
    sopts.network.jitter_mean = 3.0;
    sopts.observability = &obs;
    const SimResult result =
        simulate(workload, SyncTokenProtocol::factory(), 4, sopts);
    ASSERT_TRUE(result.completed) << result.error;
  }
  const DivergenceReport warned = diverge_tracelogs(a.path, b_path);
  ASSERT_TRUE(warned.ok) << warned.error;
  EXPECT_FALSE(warned.warnings.empty());

  const DivergenceReport missing =
      diverge_tracelogs(a.path, temp_path("absent.tracelog"));
  EXPECT_FALSE(missing.ok);
  EXPECT_FALSE(missing.error.empty());
  const QueryOutput missing_q =
      query_diverge(a.path, temp_path("absent.tracelog"), 12);
  EXPECT_EQ(missing_q.exit_code, 2);

  std::remove(a.path.c_str());
  std::remove(b_path.c_str());
}

/// Little-endian encoders for hand-made log files.
void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// An event record payload (format in src/obs/tracelog.hpp).
std::string event_payload(std::uint8_t kind, std::uint32_t msg,
                          std::uint32_t process, std::uint32_t peer) {
  std::string p;
  put_le(p, 0, 1);  // type: event
  put_le(p, kind, 1);
  put_le(p, msg, 4);
  put_le(p, process, 4);
  put_le(p, peer, 4);
  put_le(p, 0, 4);                      // color
  put_le(p, 0x3ff0000000000000ULL, 8);  // time 1.0
  put_le(p, 0, 8);                      // tiebreak
  put_le(p, 1, 8);                      // lamport
  return p;
}

/// A hold record payload.
std::string hold_payload(std::uint8_t kind, std::uint32_t msg,
                         std::uint32_t process) {
  std::string p;
  put_le(p, 1, 1);  // type: hold
  put_le(p, kind, 1);
  put_le(p, 0, 1);  // flags: no blocking refs
  put_le(p, msg, 4);
  put_le(p, process, 4);
  put_le(p, 0, 4);
  put_le(p, 0, 4);
  put_le(p, 0x3ff0000000000000ULL, 8);
  put_le(p, 0, 8);
  return p;
}

/// Write magic, a header built from `header_fields` (a JSON object's
/// inner text after the schema), and the given record payloads.
std::string write_raw_log(const std::string& name,
                          const std::string& header_fields,
                          const std::vector<std::string>& payloads) {
  const std::string header =
      "{\"schema\":\"msgorder.tracelog/1\",\"engine\":\"sequential\"" +
      header_fields + "}";
  std::string bytes = "MOTLOG1\n";
  put_le(bytes, header.size(), 4);
  bytes += header;
  for (const std::string& p : payloads) {
    put_le(bytes, p.size(), 4);
    bytes += p;
  }
  const std::string path = temp_path(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  if (f != nullptr) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  return path;
}

constexpr const char* kTwoProcs =
    ",\"n_processes\":2,\"n_messages\":1,\"seed\":7";

// A well-formed hand-made log loads, so the rejections below are about
// the one field each case corrupts.
TEST(HostileTraceLog, WellFormedHandMadeLogLoads) {
  const std::string path = write_raw_log(
      "hostile_ok.tracelog", kTwoProcs,
      {event_payload(0, 0, 0, 1), event_payload(1, 0, 0, 1),
       hold_payload(1, 0, 1), event_payload(2, 0, 1, 0),
       event_payload(3, 0, 1, 0)});
  std::string error;
  const auto log = load_tracelog(path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_EQ(log->events.size(), 4u);
  EXPECT_EQ(query_cut(path, 1.0).exit_code, 0);
  std::remove(path.c_str());
}

// Record fields that later index per-process or per-kind tables are
// range-checked by the reader.  Each file must fail to load with an
// error naming the field, and `msgorder_query cut` on it exits 2.  The
// load is asserted first: on a reader that accepted these files the cut
// would size its frontier from the hostile process id.
TEST(HostileTraceLog, OutOfRangeRecordFieldsAreRejected) {
  struct Case {
    const char* name;
    std::string payload;
    const char* field;
  };
  const std::vector<Case> cases = {
      {"process", event_payload(1, 0, 0xFFFFFFFFu, 1), "process"},
      {"process_eq_n", event_payload(1, 0, 2, 1), "process"},
      {"peer", event_payload(1, 0, 0, 2), "peer"},
      {"event_kind", event_payload(4, 0, 0, 1), "kind"},
      {"event_kind_max", event_payload(0xFF, 0, 0, 1), "kind"},
      {"hold_kind", hold_payload(7, 0, 1), "kind"},
      {"hold_process", hold_payload(1, 0, 5), "process"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path =
        write_raw_log(std::string("hostile_") + c.name + ".tracelog",
                      kTwoProcs, {event_payload(0, 0, 0, 1), c.payload});
    std::string error;
    const auto log = load_tracelog(path, &error);
    ASSERT_FALSE(log.has_value());
    EXPECT_NE(error.find(c.field), std::string::npos) << error;
    EXPECT_NE(error.find("record 1"), std::string::npos) << error;
    // The streaming reader (diverge's input) rejects it the same way.
    TraceLogStream stream;
    ASSERT_TRUE(stream.open(path, &error)) << error;
    TraceLogRecord rec;
    EXPECT_EQ(stream.next(&rec, &error), 1) << error;
    EXPECT_EQ(stream.next(&rec, &error), -1);
    const QueryOutput cut = query_cut(path, 1.0);
    EXPECT_EQ(cut.exit_code, 2);
    EXPECT_NE(cut.json.find("\"error\""), std::string::npos) << cut.json;
    EXPECT_EQ(query_summary(path).exit_code, 2);
    EXPECT_EQ(query_diverge(path, path, 12).exit_code, 2);
    std::remove(path.c_str());
  }
}

// Header counts are JSON doubles; only finite non-negative integers up
// to 2^24 become sizes.
TEST(HostileTraceLog, HeaderCountsMustBeSmallNonNegativeIntegers) {
  const std::vector<std::string> bad_values = {
      "-1", "1.5", "1e300", "1e999", "-1e300", "16777217", "4294967296"};
  for (const char* field :
       {"n_processes", "n_messages", "shards", "workers"}) {
    for (const std::string& value : bad_values) {
      SCOPED_TRACE(std::string(field) + "=" + value);
      const std::string path = write_raw_log(
          "hostile_header.tracelog",
          std::string(",\"") + field + "\":" + value, {});
      std::string error;
      const auto log = load_tracelog(path, &error);
      ASSERT_FALSE(log.has_value());
      EXPECT_NE(error.find(field), std::string::npos) << error;
      EXPECT_EQ(query_cut(path, 1.0).exit_code, 2);
      std::remove(path.c_str());
    }
  }
  // A negative or non-finite seed is rejected too.
  for (const std::string value : {"-3", "-1e300", "1e999"}) {
    const std::string path = write_raw_log(
        "hostile_seed.tracelog", ",\"n_processes\":2,\"seed\":" + value, {});
    std::string error;
    EXPECT_FALSE(load_tracelog(path, &error).has_value()) << value;
    EXPECT_NE(error.find("seed"), std::string::npos) << error;
    std::remove(path.c_str());
  }
  // The bound itself is accepted, and absent counts keep their defaults.
  const std::string path = write_raw_log(
      "hostile_bound.tracelog",
      ",\"n_processes\":16777216,\"n_messages\":0,\"shards\":16777216", {});
  std::string error;
  const auto log = load_tracelog(path, &error);
  ASSERT_TRUE(log.has_value()) << error;
  EXPECT_EQ(log->header.n_processes, 16777216u);
  EXPECT_EQ(log->header.shards, 16777216u);
  EXPECT_EQ(log->header.workers, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace msgorder
