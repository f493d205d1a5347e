#pragma once

// The three campaign workloads, the fold digest that gates their results,
// and the layer probes the traced run adds.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "vps/dist/coordinator.hpp"
#include "vps/fault/campaign.hpp"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  const char* scenario_spec;  ///< apps::make_scenario spec
  vps::fault::Strategy strategy;
  std::size_t batch;    ///< runs between barriers
  std::size_t runs;     ///< runs of one campaign (a multiple of batch)
  std::size_t threads;  ///< pool threads, or forked pool workers when remote
  bool remote;          ///< submit to an in-process CampaignServer over TCP
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// The campaign a workload runs as campaign number `rep` of a benchmark
/// seed: every campaign of a run draws its own faults. `runs` overrides the
/// workload's campaign size (smoke runs); 0 keeps it.
[[nodiscard]] vps::fault::CampaignConfig campaign_config(const WorkloadSpec& w,
                                                         std::uint64_t seed, std::size_t rep,
                                                         std::size_t runs);

/// CRC-32 over the result's checkpoint-codec record lines followed by its
/// outcome counts.
[[nodiscard]] std::uint32_t fold_digest(const vps::fault::CampaignResult& result);
/// Digests of one-worker in-process ParallelCampaigns of these configs,
/// folded three campaigns at a time.
[[nodiscard]] std::vector<std::uint32_t> reference_digests(
    const WorkloadSpec& w, const std::vector<vps::fault::CampaignConfig>& configs);

/// One campaign from construction to completion.
struct Rep {
  std::size_t index = 0;                  ///< campaign number within the run
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;               ///< run() returned
  std::vector<std::uint64_t> barriers;    ///< on_progress instants
  double cpu_s = 0.0;                     ///< self CPU after the first barrier + pool children
  std::size_t runs = 0;                   ///< runs attempted
  std::size_t runs_after_first = 0;       ///< runs folded after the first barrier
  std::size_t failed = 0;
  std::string failure;                    ///< first failure, empty when none
  bool folded = false;                    ///< run() returned a result
  std::uint32_t digest = 0;               ///< fold_digest of that result
  vps::dist::FleetStats fleet;            ///< remote only
  double relayed = 0.0, requeued = 0.0, rejected = 0.0;  ///< server counters, remote only
  std::vector<Span> spans;                ///< decorator spans when traced

  /// Counts `n` more runs as failed (at most all of them).
  void fail(std::size_t n, const std::string& why);
};

/// Consecutive campaigns of one workload, all with tracing on or all off.
struct Phase {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<Rep> reps;
};

struct PhaseLimits {
  double seconds = 10.0;        ///< run campaigns until at least this much wall time
  std::size_t min_reps = 3;     ///< campaigns, so setup_s is a median
  std::size_t min_batches = 0;  ///< batch intervals after the first barrier
  std::size_t min_replays = 0;  ///< timed replays (traced phases)
  std::uint64_t deadline_ns = UINT64_MAX;  ///< steady-clock instant past which the phase fails
};

/// Runs campaigns first_rep, first_rep + 1, ... of `seed` until the limits
/// are met. Digests are recorded, not checked: the caller compares them
/// with the pinned or reference folds outside every timed window.
[[nodiscard]] Phase run_phase(const WorkloadSpec& w, std::uint64_t seed, std::size_t runs,
                              std::size_t first_rep, bool traced, const PhaseLimits& limits,
                              const std::string& work_dir);

/// runs_per_s, cpu_ms_per_run, batch_ms_p50/p90, setup_s, peak_rss_mb.
void end_to_end_metrics(const Phase& phase, bool allow_unresolved, MetricSet& out);
[[nodiscard]] double cpu_ms_per_run(const Phase& phase);

/// apps.*, fault.barrier/dispatch/straggler, dist.frames/bytes/hop,
/// server.* from a traced phase; prints the self-time table to stdout.
void traced_metrics(const WorkloadSpec& w, const Phase& phase, bool allow_unresolved,
                    MetricSet& out);

// --- probes (probes.cpp) -------------------------------------------------------

/// fault.generate_us, fault.learn_us, fault.classify_ns.
void probe_fault(const WorkloadSpec& w, const vps::fault::CampaignConfig& config,
                 MetricSet& out);
/// ASSIGN + RESULT encode, frame and decode per run, in microseconds.
[[nodiscard]] double probe_codec_us_per_run(const WorkloadSpec& w,
                                            const vps::fault::CampaignConfig& config);
/// hw.*, tlm.*, can.frames, sim.*, ecu.snapshot/restore, sim.kernel_snapshot/restore.
void probe_layers(MetricSet& out);

}  // namespace perfbench
