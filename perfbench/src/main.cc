// stap_perfbench: the stap benchmark binary (run it through
// perfbench/run.py, which builds it and checks its output).
//
//   stap_perfbench --workload serve_small|validate_large|approx_pipeline
//                  --seed N --seconds S --trace 0|1 [--smoke]
//
// Prints, on standard output, one line with the host fingerprint, one
// line with the workload's detailed figures, and as the last line the
// result record {"correct", "attempted", "failed", "metrics"}. Exits 0
// once a result is printed (a wrong output shows as "correct": false),
// 2 on bad arguments.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

int Usage() {
  std::cerr << "usage: stap_perfbench --workload "
               "serve_small|validate_large|approx_pipeline --seed N "
               "--seconds S --trace 0|1 [--smoke]\n";
  return 2;
}

// JSON string literal for names and units (they never need escaping
// beyond quotes and backslashes, but escape those anyway).
std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

// All significant digits: runs are compared value by value.
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Host fingerprint: results from different hosts are never compared.
// The source revision is added by run.py, which can see the checkout.
std::string HostJson() {
  utsname names{};
  const std::string kernel = uname(&names) == 0 ? names.release : "unknown";
  return std::string("{\"host\": {\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + Quote(CpuModel()) +
         ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
         ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
         ", \"kernel\": " + Quote(kernel) + "}}";
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_workload) return Usage();

  WorkloadResult result;
  if (options.workload == "serve_small") {
    result = RunServeSmall(options);
  } else if (options.workload == "validate_large") {
    result = RunValidateLarge(options);
  } else if (options.workload == "approx_pipeline") {
    result = RunApproxPipeline(options);
  } else {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return 2;
  }

  for (const std::string& failure : result.failures) {
    std::cerr << "perfbench: " << options.workload << ": " << failure
              << "\n";
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::cout << HostJson() << "\n"
            << "{\"detail\": " << MetricsJson(result.detail) << "}\n"
            << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << MetricsJson(result.metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
