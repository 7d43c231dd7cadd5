// specbench — runs one benchmark workload for both flavors (SpecRPC's
// SpecEngine and TradRPC's rpc::Node) and prints its metrics.
//
//   specbench --workload chain_tcp|chain_miss|rc_geo --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// breakdown from wrapped layers (trace.h) and writes span files to DIR.
// Output: one `metric` line per metric, then a `RESULT {json}` line that
// perfbench/run.py turns into the benchmark's result line. Refuses to run
// from a Debug or sanitizer build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "chain.h"
#include "common/env.h"
#include "rc_geo.h"

namespace {

using specbench::WorkloadResult;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "yes";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr const char* kSanitizer = "yes";
#else
constexpr const char* kSanitizer = "none";
#endif
#else
constexpr const char* kSanitizer = "none";
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: specbench --workload chain_tcp|chain_miss|rc_geo "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  specbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !(opt.seconds > 0)) return usage();

  const std::string build_type = SPECBENCH_BUILD_TYPE;
  if (build_type == "Debug" || std::strcmp(kSanitizer, "none") != 0 ||
      !kAssertsOff) {
    std::fprintf(stderr,
                 "specbench: refusing to report from a %s build (sanitizer: "
                 "%s, asserts %s); build Release\n",
                 build_type.c_str(), kSanitizer, kAssertsOff ? "off" : "on");
    return 3;
  }

  WorkloadResult result;
  if (workload == "chain_tcp") {
    result = specbench::run_chain(specbench::chain_tcp_spec(), opt);
  } else if (workload == "chain_miss") {
    result = specbench::run_chain(specbench::chain_miss_spec(), opt);
  } else if (workload == "rc_geo") {
    result = specbench::run_rc_geo(specbench::RcSpec{}, opt);
  } else {
    std::fprintf(stderr, "specbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  std::vector<std::pair<std::string, std::string>> provenance = {
      {"build_type", build_type},
      {"sanitizer", kSanitizer},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"SPECRPC_LAT_SCALE", json_num(srpc::latency_scale())},
      {"workload", workload},
      {"seed", std::to_string(opt.seed)},
      {"seconds", json_num(opt.seconds)},
      {"trace", opt.trace ? "1" : "0"},
  };
  provenance.insert(provenance.end(), result.knobs.begin(), result.knobs.end());

  for (const auto& m : result.metrics) {
    std::printf("metric %-36s %14.6g %-6s n=%llu%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.contract ? "" : "  (not in BENCHMARK.json)");
  }

  const auto& o = result.outcomes;
  std::string json = "{\"correct\":";
  json += result.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(o.attempted);
  json += ",\"failed\":" + std::to_string(o.failed());
  json += ",\"aborted\":" + std::to_string(o.aborted);
  json += ",\"problems\":[";
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    json += (i ? "," : "") + json_str(result.problems[i]);
  }
  json += "],\"provenance\":{";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    json += (i ? "," : "") + json_str(provenance[i].first) + ":" +
            json_str(provenance[i].second);
  }
  json += "},\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    json += (i ? "," : "") + json_str(m.name) + ":{\"value\":" +
            json_num(m.value) + ",\"unit\":" + json_str(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) +
            ",\"contract\":" + (m.contract ? "true" : "false") + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
