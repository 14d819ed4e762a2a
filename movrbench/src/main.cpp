// movrbench: the MoVR benchmark executable.
//
//   movrbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a build-and-machine stamp line, then, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exit status 2 = bad arguments, 3 = a build the benchmark
// refuses to time (unoptimized, Debug or sanitized: a different program).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace movrbench;

struct Workload {
  const char* name;
  Result (*run)(const Options&);
  unsigned threads;
};

const Workload kWorkloads[] = {
    {"arena_crowd", run_arena_crowd, 1},
    {"solo_predictive", run_solo_predictive, 1},
    {"soak_logged", run_soak_logged, 1},
    {"coverage_sweep", run_coverage_sweep, 0},
};

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// The -fsanitize flags the build was compiled with, space-separated.
std::string sanitizer_flags() {
  std::string out;
  const std::string_view flags{MOVRBENCH_CXX_FLAGS};
  std::size_t at = 0;
  while ((at = flags.find("-fsanitize", at)) != std::string_view::npos) {
    const std::size_t end = std::min(flags.find(' ', at), flags.size());
    out += (out.empty() ? "" : " ") + std::string{flags.substr(at, end - at)};
    at = end;
  }
  return out;
}

/// Why this build must not be timed, or empty when it may be.
std::string refusal() {
#if !defined(__OPTIMIZE__)
  return "the build is not optimized";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the build is instrumented by a sanitizer";
#endif
  if (const std::string flags = sanitizer_flags(); !flags.empty()) {
    return "the build is compiled with " + flags;
  }
  if (std::string_view{MOVRBENCH_BUILD_TYPE} == "Debug") {
    return "the build type is Debug";
  }
  return {};
}

void usage() {
  std::fprintf(stderr,
               "usage: movrbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
      have_trace = true;
    } else {
      usage();
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr || argc % 2 == 0 || !have_trace ||
      !(options.seconds > 0.0)) {
    usage();
    return 2;
  }

  const unsigned nproc =
      static_cast<unsigned>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const unsigned threads =
      workload->threads != 0 ? workload->threads : sweep_workers();
  std::printf(
      "stamp: {\"compiler\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"sanitize\": %s, \"nproc\": %u, \"cpu\": %s, \"threads\": %u}\n",
      json_string(MOVRBENCH_COMPILER).c_str(),
      json_string(MOVRBENCH_BUILD_TYPE).c_str(),
      json_string(MOVRBENCH_CXX_FLAGS).c_str(),
      json_string(sanitizer_flags()).c_str(), nproc,
      json_string(cpu_model()).c_str(), threads);
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "movrbench: refusing to time this build: %s\n",
                 why.c_str());
    return 3;
  }

  Result result = workload->run(options);
  if (!options.trace) {
    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    result.metric("peak_rss_mb",
                  static_cast<double>(usage_self.ru_maxrss) / 1024.0, "MB");
  }

  std::string line = "{\"correct\": ";
  line += result.checks.failed() == 0 && result.checks.attempted() > 0
              ? "true"
              : "false";
  line += ", \"attempted\": " + std::to_string(result.checks.attempted());
  line += ", \"failed\": " + std::to_string(result.checks.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
