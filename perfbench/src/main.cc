// perfbench — the serve benchmark. One process builds the production
// serving stack on a synthetic road network, drives it over loopback TCP
// from closed-loop client connections, checks the answers against its own
// reference, and prints the metrics of one workload as the last line of
// its output:
//
//   perfbench --workload path-ah|hot-hl|fleet-ch --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of the traced replay (and writes its spans to DIR).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using perfbench::Options;
using perfbench::Result;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload path-ah|hot-hl|fleet-ch --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      o->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || o->seconds < 1 || o->seconds > 600) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (key == "--out-dir") {
      o->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty();
}

void PrintJson(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  Result result;
  try {
    if (options.workload == "path-ah") {
      result = perfbench::RunPathAh(options);
    } else if (options.workload == "hot-hl") {
      result = perfbench::RunHotHl(options);
    } else if (options.workload == "fleet-ch") {
      result = perfbench::RunFleetCh(options);
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  std::fflush(stdout);
  PrintJson(result);
  return 0;
}
