#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

namespace {

double rusage_cpu(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

long rusage_maxrss_kb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return ru.ru_maxrss;
}

/// Lane number of the calling thread, assigned on first use (1, 2, ...).
std::uint64_t thread_lane() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t lane = next.fetch_add(1);
  return lane;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv, std::uint64_t lo,
                      std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      total += e - s;
      cursor = e;
    }
  }
  return total;
}

}  // namespace

double cpu_seconds_self() { return rusage_cpu(RUSAGE_SELF); }
double cpu_seconds_children() { return rusage_cpu(RUSAGE_CHILDREN); }
double peak_rss_mb() {
  // VmHWM, not ru_maxrss of self: across execve the kernel carries the
  // launcher's peak into ru_maxrss, which would report run.py's Python.
  long self_kb = -1;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  if (self_kb <= 0) throw BenchError("peak_rss_mb: no VmHWM in /proc/self/status");
  return static_cast<double>(std::max(self_kb, rusage_maxrss_kb(RUSAGE_CHILDREN))) / 1024.0;
}

// --- statistics --------------------------------------------------------------

double resolvable_percentile(std::size_t n) noexcept {
  for (const double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    if (n >= rank + 10) return p;
  }
  return 0.0;
}

double median(std::vector<double> v, const std::string& metric) {
  if (v.empty()) throw BenchError(metric + ": no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double tail(std::vector<double> v, double p, const std::string& metric, bool allow_unresolved) {
  if (v.empty()) throw BenchError(metric + ": no samples");
  if (resolvable_percentile(v.size()) < p && !allow_unresolved) {
    throw BenchError(metric + ": " + std::to_string(v.size()) +
                     " samples cannot resolve this percentile (needs 10 beyond it); "
                     "run longer");
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()) - 1e-9));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double a, double b, const std::string& metric) {
  if (!(b > 0.0)) throw BenchError(metric + ": zero time or count base");
  return a / b;
}

void MetricSet::add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) throw BenchError(name + ": value is not finite");
  metrics_.push_back({name, value, unit});
}

// --- spans -------------------------------------------------------------------

void SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

void SpanLog::write_file(const std::string& path) {
  std::ofstream out(path);
  for (const Span& s : take()) {
    out << s.name << ' ' << s.key << ' ' << s.start_ns << ' ' << s.end_ns << ' ' << s.lane
        << '\n';
  }
}

std::vector<Span> SpanLog::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BenchError("cannot read worker span file " + path);
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Span s;
    if (!(fields >> s.name >> s.key >> s.start_ns >> s.end_ns >> s.lane) ||
        s.end_ns < s.start_ns) {
      throw BenchError("malformed worker span line in " + path);
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

std::string self_time_table(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  double root_ms = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::uint64_t self = dur - covered(children[i], s.start_ns, s.end_ns);
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += static_cast<double>(dur) / 1e6;
    r.self_ms += static_cast<double>(self) / 1e6;
    if (s.parent < 0) root_ms += static_cast<double>(dur) / 1e6;
  }
  std::string out = "span            count     total_ms      self_ms  self/root\n";
  char buf[160];
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-14s %6zu %12.1f %12.1f %9.3f\n", name.c_str(), r.count,
                  r.total_ms, r.self_ms, root_ms > 0.0 ? r.self_ms / root_ms : 0.0);
    out += buf;
  }
  return out;
}

// --- scenario decorator ------------------------------------------------------

TimedScenario::TimedScenario(std::unique_ptr<vps::fault::Scenario> inner, SpanLog& log,
                             std::uint64_t lane)
    : inner_(std::move(inner)), log_(log), lane_(lane) {}

vps::fault::Observation TimedScenario::run(const vps::fault::FaultDescriptor* fault,
                                           std::uint64_t seed) {
  inner_->set_snapshot_replay(snapshot_replay());
  const char* kind = fault == nullptr ? "golden" : (replayed_ ? "replay" : "first_replay");
  if (fault != nullptr) replayed_ = true;
  Span span{kind, fault == nullptr ? -1 : static_cast<std::int64_t>(fault->id) - 1, now_ns(), 0,
            lane_ != 0 ? lane_ : thread_lane(), -1};
  try {
    vps::fault::Observation obs = inner_->run(fault, seed);
    span.end_ns = now_ns();
    log_.add(std::move(span));
    return obs;
  } catch (...) {
    span.end_ns = now_ns();
    log_.add(std::move(span));
    throw;
  }
}

}  // namespace perfbench
