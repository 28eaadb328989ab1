// perfbench --workload drive|serve|train --seed N --seconds S --trace 0|1
//
// Runs one workload and prints its stamp, every metric it measured and its
// output checks, then one machine-readable line:
//   PERFBENCH_RESULT {"workload":...,"correct":...,"attempted":...,
//                     "failed":...,"checks":[...],"stamp":{...},
//                     "metrics":{name:{"value":v,"unit":u}}}
// run.py turns that line into the benchmark's result. Exit code 0 when the
// run completed (checks may still have failed), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "obs/metrics.h"

namespace {

std::string JsonString(const std::string& s) {
  return "\"" + head::obs::JsonEscape(s) + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::cerr << "usage: perfbench --workload drive|serve|train --seed N "
               "--seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return Usage();

  perfbench::Result result;
  if (options.workload == "drive") {
    result = perfbench::RunDrive(options);
  } else if (options.workload == "serve") {
    result = perfbench::RunServe(options);
  } else if (options.workload == "train") {
    result = perfbench::RunTrain(options);
  } else {
    return Usage();
  }

  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) result.Fail(name + " is not finite");
  }
  const bool correct = result.check_failures.empty();

  std::string json = "{\"workload\":" + JsonString(options.workload) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(result.attempted) +
                     ",\"failed\":" + std::to_string(result.failed) +
                     ",\"checks\":[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    json += (i ? "," : "") + JsonString(result.check_failures[i]);
  }
  json += "],\"stamp\":{";
  bool first = true;
  for (const auto& [key, value] : result.stamp) {
    json += (first ? "" : ",") + JsonString(key) + ":" + JsonString(value);
    first = false;
  }
  json += "},\"metrics\":{";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    json += (first ? "" : ",") + JsonString(name) +
            ":{\"value\":" + JsonNumber(metric.value) +
            ",\"unit\":" + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << "PERFBENCH_RESULT " << json << std::endl;
  return 0;
}
