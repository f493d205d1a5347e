#pragma once

// Shared pieces of the campaign benchmark: the error type every check
// throws, sample statistics with an explicit resolvability rule, the named
// metric list the result line is printed from, in-memory spans, and the
// Scenario decorator that times replays from outside the library.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "vps/fault/scenario.hpp"

namespace perfbench {

/// Any condition that makes a run's numbers meaningless (bad input, a
/// metric without samples, a zero time base). main() turns it into a
/// non-zero exit without a result line.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Process CPU time (user + system) of this process or of its reaped
/// children, in seconds.
[[nodiscard]] double cpu_seconds_self();
[[nodiscard]] double cpu_seconds_children();
/// max(peak RSS of this process image, ru_maxrss of reaped children) in MiB.
[[nodiscard]] double peak_rss_mb();

// --- statistics --------------------------------------------------------------

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that still has at
/// least ten of `n` samples beyond it (nearest rank); 0 when not even the
/// median qualifies (n < 20).
[[nodiscard]] double resolvable_percentile(std::size_t n) noexcept;
/// Median; throws BenchError naming `metric` when there are no samples.
[[nodiscard]] double median(std::vector<double> v, const std::string& metric);
/// Nearest-rank tail percentile p in (0.5, 1). Throws BenchError when the
/// samples cannot resolve p (resolvable_percentile(n) < p) unless
/// `allow_unresolved`, which smoke runs use: they then get the largest
/// sample rank available.
[[nodiscard]] double tail(std::vector<double> v, double p, const std::string& metric,
                          bool allow_unresolved);
/// a / b; throws BenchError naming `metric` when b is not positive.
[[nodiscard]] double ratio(double a, double b, const std::string& metric);

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  /// Throws BenchError on a non-finite value.
  void add(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t key = -1;       ///< run index for replays, batch index for batches
  std::uint64_t start_ns = 0;  ///< steady clock, comparable across processes
  std::uint64_t end_ns = 0;
  std::uint64_t lane = 0;      ///< pool thread (in-process) or worker pid
  int parent = -1;             ///< index into the span vector; -1 for the root
};

/// Thread-safe in-memory span sink; written out only at the end.
class SpanLog {
 public:
  void add(Span span);
  [[nodiscard]] std::vector<Span> take();
  /// One span per line; used by forked pool workers at exit.
  void write_file(const std::string& path);
  [[nodiscard]] static std::vector<Span> read_file(const std::string& path);

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-name count, total and self time; self time is a span's duration
/// minus the union of its children's intervals.
[[nodiscard]] std::string self_time_table(const std::vector<Span>& spans);

/// Scenario decorator: forwards every call and records a span per run():
/// "golden" for fault-free runs, "first_replay" for the first faulty replay
/// on this instance (it pays the golden re-run and epoch capture), and
/// "replay" otherwise, keyed by run index (descriptor id - 1).
class TimedScenario final : public vps::fault::Scenario {
 public:
  TimedScenario(std::unique_ptr<vps::fault::Scenario> inner, SpanLog& log, std::uint64_t lane);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] vps::sim::Time duration() const override { return inner_->duration(); }
  [[nodiscard]] std::vector<vps::fault::FaultType> fault_types() const override {
    return inner_->fault_types();
  }
  [[nodiscard]] vps::fault::Observation run(const vps::fault::FaultDescriptor* fault,
                                            std::uint64_t seed) override;

 private:
  std::unique_ptr<vps::fault::Scenario> inner_;
  SpanLog& log_;
  std::uint64_t lane_;  ///< 0 = the calling thread's lane number
  bool replayed_ = false;
};

}  // namespace perfbench
