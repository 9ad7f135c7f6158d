// Benchmark entry point:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-file <path>] [--source-id <id>]
// Prints the machine context, notes on the run, then as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer split from the traced run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-file <path>] [--source-id <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-file") {
      config.trace_path = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || config.work_dir.empty() || config.seconds <= 0.0) {
    return Usage("--workload, --work-dir and a positive --seconds are required");
  }

  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\"}}\n",
      JsonEscape(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      config.trace ? 1 : 0, std::thread::hardware_concurrency(),
      JsonEscape(CpuModel()).c_str(), JsonEscape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, JsonEscape(source_id).c_str());
  std::fflush(stdout);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create " + config.work_dir).c_str());

  auto outcome = perfbench::RunWorkload(config);
  std::filesystem::remove_all(config.work_dir, ec);
  if (!outcome.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : outcome->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : outcome->metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome->correct ? "true" : "false",
      static_cast<unsigned long long>(outcome->attempted),
      static_cast<unsigned long long>(outcome->failed), metrics.c_str());
  return 0;
}
