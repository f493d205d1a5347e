#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "vps/apps/registry.hpp"
#include "vps/dist/server.hpp"
#include "vps/dist/transport.hpp"
#include "vps/dist/worker.hpp"
#include "vps/fault/codec.hpp"
#include "vps/support/crc.hpp"
#include "workloads.hpp"

namespace perfbench {

using vps::fault::CampaignConfig;
using vps::fault::CampaignResult;
using vps::fault::Outcome;
using vps::fault::Strategy;

namespace {

constexpr const char* kHost = "127.0.0.1";

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

vps::fault::ScenarioFactory plain_factory(const std::string& spec) {
  return [spec] { return vps::apps::make_scenario(spec); };
}

vps::fault::ScenarioFactory timed_factory(const std::string& spec, SpanLog& log) {
  return [spec, &log] {
    return std::make_unique<TimedScenario>(vps::apps::make_scenario(spec), log, 0);
  };
}

/// Records the instant of every batch barrier, and the process CPU time at
/// the first one.
class BarrierClock final : public vps::obs::CampaignMonitor {
 public:
  void on_progress(const vps::obs::CampaignProgress&) override {
    barriers.push_back(now_ns());
    if (barriers.size() == 1) cpu_at_first = cpu_seconds_self();
  }
  void on_complete(const vps::obs::CampaignProgress&) override {}

  std::vector<std::uint64_t> barriers;
  double cpu_at_first = 0.0;
};

/// The per-campaign part of the correctness gate: every verdict present
/// and no simulator crash. The digest is compared later.
void check_result(Rep& rep, const CampaignResult& result) {
  rep.folded = true;
  rep.digest = fold_digest(result);
  if (result.interrupted || result.records.size() != rep.runs) {
    rep.fail(rep.runs - std::min(rep.runs, result.records.size()), "missing verdicts");
  }
  if (const auto crashes = result.count(Outcome::kSimCrash); crashes != 0) {
    rep.fail(crashes, "simulator crash (kSimCrash)");
  }
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    if (result.records[i].fault.id != i + 1) throw BenchError("run index != descriptor id - 1");
  }
}

void finish_rep(Rep& rep, const BarrierClock& clock, const CampaignConfig& config,
                std::size_t batch) {
  rep.barriers = clock.barriers;
  if (!rep.barriers.empty()) rep.runs_after_first = config.runs - std::min(config.runs, batch);
}

Rep run_inprocess(const WorkloadSpec& w, const CampaignConfig& config, bool traced) {
  Rep rep;
  rep.runs = config.runs;
  SpanLog log;
  rep.start_ns = now_ns();
  vps::fault::ParallelCampaign campaign(
      traced ? timed_factory(w.scenario_spec, log) : plain_factory(w.scenario_spec), config);
  BarrierClock clock;
  campaign.set_monitor(&clock);
  CampaignResult result;
  bool ran = false;
  try {
    result = campaign.run();
    ran = true;
  } catch (const std::exception& e) {
    rep.fail(rep.runs, std::string("campaign threw: ") + e.what());
  }
  rep.end_ns = now_ns();
  rep.cpu_s = cpu_seconds_self() - clock.cpu_at_first;
  finish_rep(rep, clock, config, w.batch);
  if (ran) check_result(rep, result);
  rep.spans = log.take();
  return rep;
}

/// Forks one standing-pool worker. The child drops every inherited fd (the
/// server's listener above all), serves until SHUTDOWN and, when traced,
/// writes its replay spans to `<work_dir>/spans.<pid>` before exiting.
pid_t fork_pool_worker(std::uint16_t port, bool traced, const std::string& work_dir) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw BenchError("fork failed");
  if (pid != 0) return pid;
  for (int fd = 3; fd < 1024; ++fd) ::close(fd);
  int code = 3;
  try {
    SpanLog log;
    const auto lane = static_cast<std::uint64_t>(::getpid());
    vps::dist::Channel channel(vps::dist::tcp_connect(kHost, port));
    code = vps::dist::serve_pool(
        channel, [&](const vps::dist::SetupMsg& setup) -> std::unique_ptr<vps::fault::Scenario> {
          auto scenario = vps::apps::make_scenario(setup.scenario_spec);
          if (!traced) return scenario;
          return std::make_unique<TimedScenario>(std::move(scenario), log, lane);
        });
    if (traced) log.write_file(work_dir + "/spans." + std::to_string(lane));
  } catch (...) {
    code = 4;
  }
  ::_exit(code);
}

double server_counter(const std::string& jsonl, const std::string& name) {
  const std::string key = "{\"metric\":\"" + name + "\",\"kind\":\"counter\",\"value\":";
  const auto at = jsonl.find(key);
  return at == std::string::npos ? 0.0 : std::stod(jsonl.substr(at + key.size()));
}

Rep run_remote(const WorkloadSpec& w, const CampaignConfig& config, bool traced,
               const std::string& work_dir) {
  Rep rep;
  rep.runs = config.runs;
  SpanLog log;
  std::vector<pid_t> pool;
  const double children_cpu0 = cpu_seconds_children();
  double self_cpu = 0.0;
  BarrierClock clock;
  rep.start_ns = now_ns();
  {
    vps::dist::CampaignServer server{vps::dist::ServerConfig{}};
    for (std::size_t i = 0; i < w.threads; ++i) {
      pool.push_back(fork_pool_worker(server.port(), traced, work_dir));
    }
    server.start();
    vps::dist::DistConfig dc;
    dc.campaign = config;
    dc.server_host = kHost;
    dc.server_port = server.port();
    dc.tenant = "perfbench";
    dc.scenario_spec = w.scenario_spec;
    vps::dist::DistCampaign campaign(
        traced ? timed_factory(w.scenario_spec, log) : plain_factory(w.scenario_spec), dc);
    campaign.set_monitor(&clock);
    CampaignResult result;
    bool ran = false;
    try {
      result = campaign.run();
      ran = true;
    } catch (const std::exception& e) {
      rep.fail(rep.runs, std::string("campaign threw: ") + e.what());
    }
    rep.end_ns = now_ns();
    self_cpu = cpu_seconds_self() - clock.cpu_at_first;
    rep.fleet = campaign.fleet_stats();
    server.stop();
    const std::string m = server.metrics().to_jsonl();
    rep.relayed = server_counter(m, "server.results_relayed");
    rep.requeued = server_counter(m, "server.requeued_runs");
    rep.rejected = server_counter(m, "server.jobs_rejected");
    if (ran) check_result(rep, result);
    if (rep.relayed != static_cast<double>(rep.runs) || rep.requeued != 0.0 ||
        rep.rejected != 0.0) {
      rep.fail(rep.runs, "server relayed/requeued/rejected counters off");
    }
  }
  for (const pid_t pid : pool) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      rep.fail(rep.runs, "pool worker did not exit cleanly");
    }
  }
  rep.cpu_s = self_cpu + (cpu_seconds_children() - children_cpu0);
  finish_rep(rep, clock, config, w.batch);
  rep.spans = log.take();
  if (traced) {
    for (const pid_t pid : pool) {
      const std::string path = work_dir + "/spans." + std::to_string(pid);
      for (Span& s : SpanLog::read_file(path)) rep.spans.push_back(std::move(s));
      std::filesystem::remove(path);
    }
  }
  return rep;
}

std::size_t timed_replays(const Phase& phase) {
  std::size_t n = 0;
  for (const Rep& rep : phase.reps) {
    n += static_cast<std::size_t>(std::count_if(rep.spans.begin(), rep.spans.end(),
                                                [](const Span& s) { return s.name == "replay"; }));
  }
  return n;
}

std::size_t batch_intervals(const Phase& phase) {
  std::size_t n = 0;
  for (const Rep& rep : phase.reps) n += rep.barriers.empty() ? 0 : rep.barriers.size() - 1;
  return n;
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return b > a ? static_cast<double>(b - a) * 1e-9 : 0.0;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"caps_mc", "caps:crash", Strategy::kMonteCarlo, 6, 192, 3, false},
      {"bms_guided", "bms:runaway:prov", Strategy::kGuided, 16, 512, 3, false},
      {"acc_server", "acc", Strategy::kGuided, 16, 2048, 3, true},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void Rep::fail(std::size_t n, const std::string& why) {
  failed = std::min(runs, failed + n);
  if (failure.empty()) failure = why;
}

CampaignConfig campaign_config(const WorkloadSpec& w, std::uint64_t seed, std::size_t rep,
                               std::size_t runs) {
  CampaignConfig c;
  c.runs = runs != 0 ? runs : w.runs;
  c.seed = splitmix64(splitmix64(seed) + rep) | 1;
  c.strategy = w.strategy;
  c.batch_size = w.batch;
  c.workers = w.threads;
  return c;
}

std::uint32_t fold_digest(const CampaignResult& result) {
  vps::support::Crc32 crc;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    std::string line = "{\"kind\":\"record\"";
    vps::fault::codec::append_record(line, result.records[i], i);
    line += "}\n";
    crc.update({reinterpret_cast<const std::uint8_t*>(line.data()), line.size()});
  }
  for (const std::uint64_t count : result.outcome_counts) crc.update_u64(count);
  return crc.value();
}

std::vector<std::uint32_t> reference_digests(const WorkloadSpec& w,
                                             const std::vector<CampaignConfig>& configs) {
  std::vector<std::uint32_t> digests(configs.size());
  std::vector<std::string> errors(configs.size());
  std::atomic<std::size_t> next{0};
  const auto fold = [&] {
    for (std::size_t i = next++; i < configs.size(); i = next++) {
      CampaignConfig one = configs[i];
      one.workers = 1;
      try {
        vps::fault::ParallelCampaign reference(plain_factory(w.scenario_spec), one);
        digests[i] = fold_digest(reference.run());
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  {
    std::vector<std::jthread> folders;
    for (int t = 0; t < 3; ++t) folders.emplace_back(fold);
  }
  for (const std::string& e : errors) {
    if (!e.empty()) throw BenchError("reference fold failed: " + e);
  }
  return digests;
}

Phase run_phase(const WorkloadSpec& w, std::uint64_t seed, std::size_t runs,
                std::size_t first_rep, bool traced, const PhaseLimits& limits,
                const std::string& work_dir) {
  Phase phase;
  phase.start_ns = now_ns();
  for (std::size_t index = first_rep;; ++index) {
    const CampaignConfig config = campaign_config(w, seed, index, runs);
    phase.reps.push_back(w.remote ? run_remote(w, config, traced, work_dir)
                                  : run_inprocess(w, config, traced));
    phase.reps.back().index = index;
    const std::uint64_t now = now_ns();
    const bool done = seconds_between(phase.start_ns, now) >= limits.seconds &&
                      phase.reps.size() >= limits.min_reps &&
                      batch_intervals(phase) >= limits.min_batches &&
                      timed_replays(phase) >= limits.min_replays;
    if (done) break;
    if (now > limits.deadline_ns) {
      throw BenchError(std::string(w.name) + ": sample minimums not reached before the deadline");
    }
  }
  phase.end_ns = now_ns();
  return phase;
}

double cpu_ms_per_run(const Phase& phase) {
  std::vector<double> per_rep;
  for (const Rep& rep : phase.reps) {
    if (rep.runs_after_first != 0) {
      per_rep.push_back(rep.cpu_s * 1e3 / static_cast<double>(rep.runs_after_first));
    }
  }
  return median(per_rep, "cpu_ms_per_run");
}

void end_to_end_metrics(const Phase& phase, bool allow_unresolved, MetricSet& out) {
  std::vector<double> runs_per_s, batch_ms, setup_s;
  for (const Rep& rep : phase.reps) {
    if (rep.barriers.empty()) continue;
    runs_per_s.push_back(ratio(static_cast<double>(rep.runs_after_first),
                               seconds_between(rep.barriers.front(), rep.end_ns), "runs_per_s"));
    setup_s.push_back(seconds_between(rep.start_ns, rep.barriers.front()));
    for (std::size_t k = 1; k < rep.barriers.size(); ++k) {
      batch_ms.push_back(seconds_between(rep.barriers[k - 1], rep.barriers[k]) * 1e3);
    }
  }
  out.add("runs_per_s", median(runs_per_s, "runs_per_s"), "1/s");
  out.add("cpu_ms_per_run", cpu_ms_per_run(phase), "ms");
  out.add("batch_ms_p50", median(batch_ms, "batch_ms_p50"), "ms");
  out.add("batch_ms_p90", tail(batch_ms, 0.9, "batch_ms_p90", allow_unresolved), "ms");
  out.add("setup_s", median(setup_s, "setup_s"), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void traced_metrics(const WorkloadSpec& w, const Phase& phase, bool allow_unresolved,
                    MetricSet& out) {
  std::vector<Span> tree;
  tree.push_back({"workload", -1, phase.start_ns, phase.end_ns, 0, -1});
  std::vector<double> golden_ms, first_ms, replay_ms, barrier_ms, dispatch_ms, straggler_ms;
  double busy_s = 0.0, window_s = 0.0, runs_after = 0.0, runs_total = 0.0;
  double frames = 0.0, bytes = 0.0, relayed = 0.0, requeued = 0.0, rejected = 0.0;
  std::size_t first_replays = 0;

  for (const Rep& rep : phase.reps) {
    if (rep.barriers.empty()) throw BenchError(std::string(w.name) + ": campaign without barriers");
    const std::size_t batches = rep.barriers.size();
    // Parents: the setup span owns batch 0, a batch span owns each later batch.
    std::vector<int> owner(batches);
    owner[0] = static_cast<int>(tree.size());
    tree.push_back({"setup", 0, rep.start_ns, rep.barriers[0], 0, 0});
    for (std::size_t k = 1; k < batches; ++k) {
      owner[k] = static_cast<int>(tree.size());
      tree.push_back({"batch", static_cast<std::int64_t>(k), rep.barriers[k - 1], rep.barriers[k],
                      0, 0});
    }
    std::vector<std::uint64_t> first_start(batches, UINT64_MAX), last_end(batches, 0);
    std::vector<std::map<std::uint64_t, std::uint64_t>> lane_end(batches);
    for (const Span& s : rep.spans) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      if (s.name == "golden") {
        golden_ms.push_back(ms);
        Span g = s;
        g.parent = owner[0];
        tree.push_back(std::move(g));
        continue;
      }
      const auto k = static_cast<std::size_t>(s.key) / w.batch;
      if (s.key < 0 || k >= batches) throw BenchError("replay span outside the campaign");
      (s.name == "first_replay" ? first_ms : replay_ms).push_back(ms);
      if (s.name == "first_replay") ++first_replays;
      first_start[k] = std::min(first_start[k], s.start_ns);
      last_end[k] = std::max(last_end[k], s.end_ns);
      auto& le = lane_end[k][s.lane];
      le = std::max(le, s.end_ns);
      if (s.start_ns >= rep.barriers[0]) {
        busy_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
      Span r = s;
      r.parent = owner[k];
      tree.push_back(std::move(r));
    }
    for (std::size_t k = 0; k < batches; ++k) {
      if (last_end[k] == 0) throw BenchError("batch without replay spans");
      barrier_ms.push_back(seconds_between(last_end[k], rep.barriers[k]) * 1e3);
      tree.push_back({"barrier", static_cast<std::int64_t>(k),
                      std::min(last_end[k], rep.barriers[k]), rep.barriers[k], 0, owner[k]});
      if (k > 0) dispatch_ms.push_back(seconds_between(rep.barriers[k - 1], first_start[k]) * 1e3);
      std::uint64_t lo = UINT64_MAX, hi = 0;
      for (const auto& [lane, end] : lane_end[k]) {
        lo = std::min(lo, end);
        hi = std::max(hi, end);
      }
      straggler_ms.push_back(seconds_between(lo, hi) * 1e3);
    }
    window_s += seconds_between(rep.barriers[0], rep.end_ns);
    runs_after += static_cast<double>(rep.runs_after_first);
    runs_total += static_cast<double>(rep.runs);
    frames += static_cast<double>(rep.fleet.frames_sent + rep.fleet.frames_received);
    bytes += static_cast<double>(rep.fleet.bytes_sent + rep.fleet.bytes_received);
    relayed += rep.relayed;
    requeued += rep.requeued;
    rejected += rep.rejected;
  }

  std::printf("\nself time, traced phase (%zu campaigns):\n%s\n", phase.reps.size(),
              self_time_table(tree).c_str());

  const double reps = static_cast<double>(phase.reps.size());
  const double lanes_s = static_cast<double>(w.threads) * window_s;
  const double replay_p50 = median(replay_ms, "apps.replay_ms_p50");
  std::vector<double> capture_ms;
  for (const double ms : first_ms) capture_ms.push_back(ms - replay_p50);
  out.add("apps.golden_ms", median(golden_ms, "apps.golden_ms"), "ms");
  out.add("apps.epoch_capture_ms", median(capture_ms, "apps.epoch_capture_ms"), "ms");
  out.add("apps.epoch_captures", static_cast<double>(first_replays) / reps, "count");
  out.add("apps.replay_ms_p50", replay_p50, "ms");
  out.add("apps.replay_ms_p99", tail(replay_ms, 0.99, "apps.replay_ms_p99", allow_unresolved),
          "ms");
  out.add("apps.pool_busy_frac", ratio(busy_s, lanes_s, "apps.pool_busy_frac"), "fraction");
  out.add("fault.barrier_ms_p50", median(barrier_ms, "fault.barrier_ms_p50"), "ms");
  out.add("fault.dispatch_ms_p50", median(dispatch_ms, "fault.dispatch_ms_p50"), "ms");
  out.add("fault.straggler_ms_p50", median(straggler_ms, "fault.straggler_ms_p50"), "ms");
  out.add("dist.frames_per_run", w.remote ? ratio(frames, runs_total, "dist.frames_per_run") : 0.0,
          "count");
  out.add("dist.bytes_per_run", w.remote ? ratio(bytes, runs_total, "dist.bytes_per_run") : 0.0,
          "B");
  out.add("dist.hop_us_per_run",
          w.remote ? ratio((lanes_s - busy_s) * 1e6, runs_after, "dist.hop_us_per_run") : 0.0,
          "us");
  out.add("server.results_relayed", relayed / reps, "count");
  out.add("server.requeued_runs", requeued / reps, "count");
  out.add("server.jobs_rejected", rejected / reps, "count");
}

}  // namespace perfbench
