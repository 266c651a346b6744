#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace msgorder;

void RunResult::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {
thread_local double* current_child = nullptr;
}  // namespace

Span::Span(double& sink)
    : sink_(sink), parent_child_(current_child), start_(now_s()) {
  current_child = &child_;
}

Span::~Span() {
  const double duration = now_s() - start_;
  sink_ += duration - child_;
  current_child = parent_child_;
  if (parent_child_ != nullptr) *parent_child_ += duration;
}

namespace {

/// Forwards every Host service; the calls that enter the engine are
/// timed as host (engine) time so they are not charged to the protocol.
class CountingHost final : public Host {
 public:
  CountingHost(Host& inner, LayerCounters& counters)
      : inner_(inner), counters_(counters) {}

  void send_packet(Packet packet) override {
    if (packet.is_control) {
      ++counters_.control_packets;
    } else {
      ++counters_.user_packets;
      counters_.tag_bytes += packet.tag_bytes;
    }
    Span span(counters_.host_self_s);
    inner_.send_packet(std::move(packet));
  }
  void deliver(MessageId msg) override {
    Span span(counters_.host_self_s);
    inner_.deliver(msg);
  }
  void set_timer(SimTime delay, std::uint64_t cookie) override {
    Span span(counters_.host_self_s);
    inner_.set_timer(delay, cookie);
  }
  void hold(MessageId msg, const HoldReason& reason) override {
    Span span(counters_.host_self_s);
    inner_.hold(msg, reason);
  }
  bool wants_hold_reasons() const override {
    return inner_.wants_hold_reasons();
  }
  SimTime now() const override { return inner_.now(); }
  ProcessId self() const override { return inner_.self(); }
  std::size_t process_count() const override {
    return inner_.process_count();
  }
  const Message& message(MessageId msg) const override {
    return inner_.message(msg);
  }

 private:
  Host& inner_;
  LayerCounters& counters_;
};

class TimedProtocol final : public Protocol {
 public:
  TimedProtocol(std::unique_ptr<CountingHost> host,
                const ProtocolFactory& inner, LayerCounters& counters)
      : host_(std::move(host)), inner_(inner(*host_)), counters_(counters) {}

  void on_invoke(const Message& m) override {
    ++counters_.handler_calls;
    Span span(counters_.handler_self_s);
    inner_->on_invoke(m);
  }
  void on_packet(const Packet& packet) override {
    ++counters_.handler_calls;
    Span span(counters_.handler_self_s);
    inner_->on_packet(packet);
  }
  void on_timer(std::uint64_t cookie) override {
    ++counters_.handler_calls;
    Span span(counters_.handler_self_s);
    inner_->on_timer(cookie);
  }
  std::string name() const override { return inner_->name(); }
  bool snapshot(std::string& out) const override {
    return inner_->snapshot(out);
  }
  bool quiescent() const override { return inner_->quiescent(); }

 private:
  // Declared before inner_: the wrapped protocol holds a reference to it.
  std::unique_ptr<CountingHost> host_;
  std::unique_ptr<Protocol> inner_;
  LayerCounters& counters_;
};

}  // namespace

ProtocolFactory timed_factory(ProtocolFactory inner, LayerCounters* counters) {
  return [inner = std::move(inner), counters](Host& host) {
    return std::unique_ptr<Protocol>(std::make_unique<TimedProtocol>(
        std::make_unique<CountingHost>(host, *counters), inner, *counters));
  };
}

SimObserver timed_observer(SimObserver inner, double* sink) {
  return [inner = std::move(inner), sink](ProcessId p, SystemEvent e,
                                          SimTime t) {
    Span span(*sink);
    inner(p, e, t);
  };
}

std::string metric_safe(std::string name) {
  for (char& c : name) {
    if (c == ':') c = '-';
  }
  return name;
}

}  // namespace perfbench
