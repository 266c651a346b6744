// perfbench: the end-to-end benchmark driver binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--launched-at <t>]
//
// --launched-at is the steady-clock (CLOCK_MONOTONIC) second at which the
// caller started this process; set-up time counts from there, so it
// includes process start-up.  Without it, set-up counts from main().
//
// Prints, as its last line, one JSON object with the run's verdict,
// operation counts, metrics, and the files the caller re-checks
// (perfbench/run.py wraps this binary).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace perfbench {

void measure_rounds(double seconds, std::size_t min_rounds,
                    const std::function<void(bool warmup)>& round) {
  round(true);
  const double begin = now_s();
  for (std::size_t rounds = 0;
       rounds < min_rounds || now_s() - begin < seconds; ++rounds) {
    round(false);
  }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    char value[64];
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out += first ? "" : ", ";
    out += json_string(name) + ": {\"value\": " + value +
           ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  out += "}, \"json_files\": [";
  for (std::size_t i = 0; i < r.json_files.size(); ++i) {
    out += (i ? ", " : "") + json_string(r.json_files[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <registry_sweep|"
               "monitored_run|observed_run|verify_scope> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--launched-at <t>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double start = now_s();
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--launched-at") {
      start = std::strtod(value.c_str(), nullptr);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.out_dir.empty()) return usage("--out-dir is required");
  if (!(config.seconds > 0)) return usage("--seconds must be positive");

  RunResult result;
  if (config.workload == "registry_sweep") {
    run_registry_sweep(config, start, result);
  } else if (config.workload == "monitored_run") {
    run_monitored(config, start, result);
  } else if (config.workload == "observed_run") {
    run_observed(config, start, result);
  } else if (config.workload == "verify_scope") {
    run_verify_scope(config, start, result);
  } else {
    return usage(("unknown workload " + config.workload).c_str());
  }
  print_result(result);
  return 0;
}
