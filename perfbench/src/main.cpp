// perfbench: the campaign benchmark. Runs one workload for a seed, checks
// every campaign's fold against a pinned or freshly computed reference, and
// prints its metrics by name with units; the last stdout line is the JSON
// result. See perfbench/README.md.

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                 [--digests FILE] [--git-sha SHA] [--work-dir DIR] [--smoke RUNS]\n"
    "       perfbench --reference --workload NAME --seed N --reps K [--smoke RUNS]\n"
    "       perfbench --self-test\n"
    "  NAME: caps_mc | bms_guided | acc_server\n"
    "  N: unsigned decimal seed; S: positive whole seconds; RUNS: campaign size,\n"
    "  a multiple of the workload's batch covering at least two batches;\n"
    "  --reference prints the pinned-digest lines of campaigns 0..K-1\n";

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

struct UsageError : BenchError {
  using BenchError::BenchError;
};

/// Whole decimal number, nothing else: no sign, no spaces, no suffix.
std::uint64_t parse_number(const std::string& flag, const std::string& text, bool allow_zero) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || (v == 0 && !allow_zero)) {
    throw UsageError(flag + ": '" + text + "' is not a " +
                     (allow_zero ? "whole number" : "positive whole number"));
  }
  return v;
}

struct Args {
  std::string mode = "run";  // run | reference | self-test
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::size_t smoke = 0;
  std::size_t reps = 0;
  std::string digests, git_sha = "unknown", work_dir = ".bench_build/perfbench-work";
};

Args parse_args(const std::vector<std::string>& argv) {
  Args a;
  std::map<std::string, std::string> flags;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& f = argv[i];
    if (f == "--reference" || f == "--self-test") {
      if (a.mode != "run") throw UsageError("only one of --reference / --self-test");
      a.mode = f.substr(2);
      continue;
    }
    static const char* known[] = {"--workload", "--seed", "--seconds", "--trace",
                                  "--digests",  "--git-sha", "--work-dir", "--smoke", "--reps"};
    if (std::find(std::begin(known), std::end(known), f) == std::end(known)) {
      throw UsageError("unknown argument '" + f + "'");
    }
    if (i + 1 >= argv.size()) throw UsageError(f + " needs a value");
    if (!flags.emplace(f, argv[++i]).second) throw UsageError(f + " given twice");
  }
  const auto need = [&](const char* f) -> const std::string& {
    const auto it = flags.find(f);
    if (it == flags.end()) throw UsageError(std::string(f) + " is required");
    return it->second;
  };
  if (a.mode == "self-test") {
    if (!flags.empty()) throw UsageError("--self-test takes no other arguments");
    return a;
  }
  a.workload = find_workload(need("--workload"));
  if (a.workload == nullptr) throw UsageError("unknown workload '" + flags["--workload"] + "'");
  a.seed = parse_number("--seed", need("--seed"), /*allow_zero=*/true);
  if (flags.count("--smoke") != 0) {
    a.smoke = parse_number("--smoke", flags["--smoke"], false);
    if (a.smoke % a.workload->batch != 0 || a.smoke < 2 * a.workload->batch) {
      throw UsageError("--smoke: must be a multiple of the batch (" +
                       std::to_string(a.workload->batch) + ") covering two batches");
    }
  }
  if (a.mode == "reference") {
    a.reps = parse_number("--reps", need("--reps"), false);
    return a;
  }
  if (flags.count("--reps") != 0) throw UsageError("--reps only goes with --reference");
  a.seconds = parse_number("--seconds", need("--seconds"), false);
  const std::string& trace = need("--trace");
  if (trace != "0" && trace != "1") throw UsageError("--trace: must be 0 or 1");
  a.trace = trace == "1";
  if (flags.count("--digests") != 0) a.digests = flags["--digests"];
  if (flags.count("--git-sha") != 0) a.git_sha = flags["--git-sha"];
  if (flags.count("--work-dir") != 0) a.work_dir = flags["--work-dir"];
  return a;
}

/// Pinned digests of one workload and seed, keyed by (campaign, runs),
/// from "workload seed campaign runs 0xcrc" lines ('#' starts a comment).
std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> pinned_digests(
    const std::string& path, const std::string& workload, std::uint64_t seed) {
  std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> pins;
  if (path.empty()) return pins;
  std::ifstream in(path);
  if (!in) throw BenchError("cannot read digest file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream f(line);
    std::string w, hex;
    std::uint64_t s = 0;
    std::size_t rep = 0, runs = 0;
    std::uint32_t digest = 0;
    const bool ok = (f >> w >> s >> rep >> runs >> hex) && hex.rfind("0x", 0) == 0 &&
                    std::from_chars(hex.data() + 2, hex.data() + hex.size(), digest, 16).ptr ==
                        hex.data() + hex.size();
    if (!ok) throw BenchError("malformed digest line: " + line);
    if (w == workload && s == seed) pins[{rep, runs}] = digest;
  }
  return pins;
}

/// The digest gate, outside every timed window: each folded campaign must
/// match its pinned digest or, unpinned, a one-worker reference fold.
void verify_digests(const WorkloadSpec& w, const Args& a, std::vector<Phase>& phases) {
  const auto pins = pinned_digests(a.digests, w.name, a.seed);
  std::vector<Rep*> unpinned;
  std::vector<vps::fault::CampaignConfig> configs;
  std::size_t pinned = 0;
  for (Phase& p : phases) {
    for (Rep& rep : p.reps) {
      if (!rep.folded) continue;
      const auto pin = pins.find({rep.index, rep.runs});
      if (pin == pins.end()) {
        unpinned.push_back(&rep);
        configs.push_back(campaign_config(w, a.seed, rep.index, a.smoke));
        continue;
      }
      ++pinned;
      if (rep.digest != pin->second) {
        rep.fail(rep.runs, "fold digest differs from the pinned digest");
      }
    }
  }
  const std::vector<std::uint32_t> refs = reference_digests(w, configs);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (unpinned[i]->digest != refs[i]) {
      unpinned[i]->fail(unpinned[i]->runs, "fold digest differs from the 1-worker reference");
    }
  }
  std::printf("fold digests: %zu campaigns checked against pins, %zu against 1-worker references\n",
              pinned, refs.size());
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const MetricSet& metrics, std::size_t attempted, std::size_t failed,
                  const std::map<std::string, std::size_t>& failures) {
  std::printf("\n%-28s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics.all()) {
    std::printf("%-28s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %22.6f  fraction (%zu of %zu runs failed)\n", "error_rate",
              static_cast<double>(failed) / static_cast<double>(attempted), failed, attempted);
  for (const auto& [why, campaigns] : failures) {
    std::printf("FAILED: %s (%zu campaigns)\n", why.c_str(), campaigns);
  }
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.all().size(); ++i) {
    const Metric& m = metrics.all()[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& a) {
  if (!kOptimized && !a.trace) {
    throw BenchError("refusing to report end-to-end numbers from an unoptimized build");
  }
  const WorkloadSpec& w = *a.workload;
  const vps::fault::CampaignConfig config = campaign_config(w, a.seed, 0, a.smoke);
  std::printf("env: {\"nproc\": %u, \"compiler\": \"%s\", \"optimized\": %s, \"ndebug\": %s, "
              "\"git_sha\": \"%s\"}\n",
              std::thread::hardware_concurrency(), __VERSION__, kOptimized ? "true" : "false",
              kNdebug ? "true" : "false", a.git_sha.c_str());
  std::printf("workload: %s  seed: %llu  campaign: %s, %zu runs, batch %zu, %zu %s\n", w.name,
              static_cast<unsigned long long>(a.seed), w.scenario_spec, config.runs, w.batch,
              w.threads, w.remote ? "forked pool workers behind a CampaignServer" : "pool threads");
  std::fflush(stdout);

  std::filesystem::create_directories(a.work_dir);
  const bool smoke = a.smoke != 0;
  const std::uint64_t deadline = now_ns() + 150'000'000'000ULL;
  const auto seconds = static_cast<double>(a.seconds);
  MetricSet metrics;
  std::vector<Phase> phases;
  if (!a.trace) {
    phases.push_back(run_phase(w, a.seed, a.smoke, 0, false,
                               {seconds, smoke ? 1u : 3u, smoke ? 0u : 250u, 0, deadline},
                               a.work_dir));
    end_to_end_metrics(phases.back(), smoke, metrics);
  } else {
    phases.push_back(run_phase(w, a.seed, a.smoke, 0, false,
                               {seconds / 2, smoke ? 1u : 3u, 0, 0, deadline}, a.work_dir));
    phases.push_back(run_phase(w, a.seed, a.smoke, phases[0].reps.size(), true,
                               {seconds, smoke ? 1u : 3u, 0, smoke ? 0u : 1000u, deadline},
                               a.work_dir));
    traced_metrics(w, phases.back(), smoke, metrics);
    probe_fault(w, config, metrics);
    metrics.add("dist.codec_us_per_run", w.remote ? probe_codec_us_per_run(w, config) : 0.0,
                "us");
    probe_layers(metrics);
    metrics.add("trace_overhead_frac",
                cpu_ms_per_run(phases[1]) / cpu_ms_per_run(phases[0]) - 1.0, "fraction");
  }
  std::error_code ignored;  // the work dir stays if it holds anything else
  std::filesystem::remove(a.work_dir, ignored);
  verify_digests(w, a, phases);

  std::size_t attempted = 0, failed = 0;
  std::map<std::string, std::size_t> failures;  // message -> campaigns
  for (const Phase& p : phases) {
    for (const Rep& rep : p.reps) {
      attempted += rep.runs;
      failed += rep.failed;
      if (!rep.failure.empty()) ++failures[rep.failure];
    }
  }
  print_result(metrics, attempted, failed, failures);
  return failed == 0 ? 0 : 1;
}

// --- self-test -------------------------------------------------------------------

int self_test() {
  int bad = 0;
  const auto check = [&bad](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("self-test FAILED: %s\n", what.c_str());
      ++bad;
    }
  };
  const auto throws = [](const std::function<void()>& f) {
    try {
      f();
    } catch (const BenchError&) {
      return true;
    }
    return false;
  };
  // Highest percentile with at least ten samples beyond it.
  const std::pair<std::size_t, double> ladder[] = {
      {0, 0.0},    {19, 0.0},  {20, 0.5},   {39, 0.5},    {40, 0.75},   {99, 0.75},
      {100, 0.9},  {199, 0.9}, {200, 0.95}, {999, 0.95},  {1000, 0.99}, {9999, 0.99},
      {10000, 0.999}};
  for (const auto& [n, p] : ladder) {
    check(resolvable_percentile(n) == p, "resolvable_percentile(" + std::to_string(n) + ")");
  }
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  check(tail(hundred, 0.9, "t", false) == 90.0, "p90 of 1..100 is 90");
  check(throws([&] { (void)tail(hundred, 0.95, "t", false); }), "p95 of 100 samples refused");
  check(tail(hundred, 0.95, "t", true) == 95.0, "smoke runs may read p95 of 100 samples");
  check(throws([] { (void)median({}, "m"); }), "median of no samples refused");
  check(median({3, 1, 2}, "m") == 2.0 && median({4, 1, 3, 2}, "m") == 2.5, "median");
  check(throws([] { (void)ratio(1, 0, "r"); }), "zero time base refused");
  MetricSet m;
  check(throws([&] { m.add("x", 0.0 / 0.0, "s"); }), "NaN metric refused");
  check(throws([&] { m.add("x", 1.0 / 0.0, "s"); }), "inf metric refused");
  // Command-line rejections.
  const std::vector<std::vector<std::string>> rejected = {
      {},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10"},
      {"--workload", "nope", "--seed", "1", "--seconds", "10", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "x1", "--seconds", "10", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "-1", "--seconds", "10", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1x", "--seconds", "10", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "0", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "-3", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10s", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", " 10", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10", "--trace", "2"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10", "--trace", "0", "--smoke", "7"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10", "--trace", "0", "--smoke", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seed", "2", "--seconds", "10", "--trace", "0"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10", "--trace", "0", "--extra"},
      {"--workload", "caps_mc", "--seed", "1", "--seconds", "10", "--trace", "0", "--reps", "2"},
      {"--reference", "--workload", "caps_mc", "--seed", "1"},
  };
  for (const auto& argv : rejected) {
    std::string joined;
    for (const auto& s : argv) joined += s + " ";
    check(throws([&] { (void)parse_args(argv); }), "rejects: " + joined);
  }
  const Args ok = parse_args({"--workload", "acc_server", "--seed", "0", "--seconds", "10",
                              "--trace", "1", "--smoke", "48"});
  check(ok.workload != nullptr && ok.seed == 0 && ok.seconds == 10 && ok.trace && ok.smoke == 48,
        "accepts a well-formed command line");
  std::printf("self-test: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(std::vector<std::string>(argv + 1, argv + argc));
    if (a.mode == "self-test") return self_test();
    if (a.mode == "reference") {
      std::vector<vps::fault::CampaignConfig> configs;
      for (std::size_t rep = 0; rep < a.reps; ++rep) {
        configs.push_back(campaign_config(*a.workload, a.seed, rep, a.smoke));
      }
      const std::vector<std::uint32_t> digests = reference_digests(*a.workload, configs);
      for (std::size_t rep = 0; rep < a.reps; ++rep) {
        std::printf("%s %llu %zu %zu %s\n", a.workload->name,
                    static_cast<unsigned long long>(a.seed), rep, configs[rep].runs,
                    hex32(digests[rep]).c_str());
      }
      return 0;
    }
    return run(a);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench: %s\n%s", e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
