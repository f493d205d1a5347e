// Probe loops for the traced run. Each drives one layer's public API from
// the benchmark and reports a per-call cost next to the layer's own work
// counters, so a change to that layer shows up here before it shows up in
// a workload's end-to-end numbers.

#include <algorithm>
#include <array>
#include <functional>
#include <memory>

#include "vps/apps/registry.hpp"
#include "vps/can/bus.hpp"
#include "vps/dist/protocol.hpp"
#include "vps/ecu/os.hpp"
#include "vps/ecu/platform.hpp"
#include "vps/sim/kernel.hpp"
#include "vps/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = vps::sim;
using vps::fault::CampaignState;
using vps::fault::FaultDescriptor;
using vps::fault::Outcome;

namespace {

constexpr int kRepeats = 5;

/// Median wall time in ns of `kRepeats` calls of `body`.
double median_ns(const std::function<void()>& body, const std::string& metric) {
  std::vector<double> ns;
  for (int i = 0; i < kRepeats; ++i) {
    const std::uint64_t t0 = now_ns();
    body();
    ns.push_back(static_cast<double>(now_ns() - t0));
  }
  return median(ns, metric);
}

// --- CAPS-shaped ECU rig -------------------------------------------------------

/// Firmware poll loop of the CAPS airbag twin: kick the watchdog, poll the
/// CAN RX count, read and pop a frame when one is pending.
constexpr const char* kPollFirmware = R"(
      j main
    main:
      li   r1, 0x40005000    ; CAN controller
      li   r2, 0x40002000    ; watchdog
      addi r3, r0, 2000
      sw   r3, 4(r2)         ; period 2000us
      addi r3, r0, 1
      sw   r3, 0(r2)         ; enable
      addi r9, r0, 0
    loop:
      sw   r0, 8(r2)         ; kick watchdog
      lw   r5, 20(r1)        ; RX_COUNT
      beq  r5, r0, loop
      lw   r6, 32(r1)        ; RX_DATA_LO
      sw   r0, 40(r1)        ; RX_POP
      add  r9, r9, r6
      j    loop
)";

/// The same core with no bus traffic beyond instruction fetch.
constexpr const char* kComputeFirmware = R"(
      j main
    main:
      addi r9, r0, 0
      addi r5, r0, 0
    loop:
      addi r5, r5, 1
      xori r6, r5, 0x55
      add  r9, r9, r6
      j    loop
)";

/// 1 kHz CAN sender, the rate of the CAPS accelerometer node.
class FrameSource final : public vps::can::CanNode {
 public:
  FrameSource(sim::Kernel& kernel, vps::can::CanBus& bus) : bus_(bus) {
    bus.attach(*this);
    kernel.spawn("probe.sensor", loop());
  }
  void on_frame(const vps::can::CanFrame&) override {}

 private:
  sim::Coro loop() {
    for (;;) {
      const std::uint8_t payload[3] = {n_, static_cast<std::uint8_t>(~n_), n_};
      ++n_;
      bus_.submit(*this, vps::can::CanFrame::make(0x050, payload));
      co_await sim::delay(sim::Time::ms(1));
    }
  }

  vps::can::CanBus& bus_;
  std::uint8_t n_ = 0;
};

struct EcuRig {
  sim::Kernel kernel;
  vps::can::CanBus bus{kernel, "can0", 500000};
  vps::ecu::EcuPlatform ecu{kernel, "ecu"};
  std::unique_ptr<FrameSource> source;

  explicit EcuRig(const char* firmware) {
    ecu.attach_can(bus);
    ecu.load_program(firmware);
    source = std::make_unique<FrameSource>(kernel, bus);
  }
};

constexpr sim::Time kEcuRun = sim::Time::ms(20);  // one CAPS scenario length

// --- BMS-shaped OS rig ---------------------------------------------------------

struct OsRig {
  sim::Kernel kernel;
  vps::ecu::OsScheduler os{kernel, "os"};

  OsRig() {
    using sim::Time;
    const auto task = [this](const char* name, Time period, Time wcet, int priority) {
      os.add_task({.name = name, .period = period, .wcet = wcet, .priority = priority, .body = {}});
    };
    task("cell_voltage", Time::ms(100), Time::ms(2), 4);
    task("thermal", Time::ms(500), Time::ms(3), 3);
    task("soc", Time::sec(5), Time::ms(4), 2);
    task("telemetry", Time::ms(500), Time::ms(1), 1);
  }
};

constexpr sim::Time kOsRun = sim::Time::sec(3600);

/// Median per-call microseconds of `op` over batches of `n` calls.
double per_call_us(int n, const std::function<void()>& op, const std::string& metric) {
  return median_ns(
             [&] {
               for (int i = 0; i < n; ++i) op();
             },
             metric) /
         n / 1e3;
}

std::vector<FaultDescriptor> descriptors(CampaignState& state, std::uint64_t seed,
                                         std::size_t n) {
  const vps::support::Xorshift base(seed);
  std::vector<FaultDescriptor> out;
  for (std::size_t i = 0; i < n; ++i) {
    vps::support::Xorshift rng = base.fork(i);
    out.push_back(state.generate(i, rng));
  }
  return out;
}

}  // namespace

void probe_fault(const WorkloadSpec& w, const vps::fault::CampaignConfig& config,
                 MetricSet& out) {
  const auto scenario = vps::apps::make_scenario(w.scenario_spec);
  const std::size_t runs = 4096 / w.batch * w.batch;
  // Generation and learning alternate batch by batch, as at the barrier.
  std::vector<double> gen_ns, learn_ns;
  for (int r = 0; r < kRepeats; ++r) {
    CampaignState state(scenario->fault_types(), scenario->duration(), config);
    const vps::support::Xorshift base(config.seed);
    vps::support::Xorshift outcomes(config.seed ^ 0x5EED);
    std::uint64_t gen = 0, learn = 0;
    std::vector<FaultDescriptor> batch;
    for (std::size_t next = 0; next < runs; next += w.batch) {
      batch.clear();
      const std::uint64_t t0 = now_ns();
      for (std::size_t b = 0; b < w.batch; ++b) {
        vps::support::Xorshift rng = base.fork(next + b);
        batch.push_back(state.generate(next + b, rng));
      }
      const std::uint64_t t1 = now_ns();
      for (const FaultDescriptor& f : batch) {
        (void)state.learn(f, static_cast<Outcome>(outcomes.index(6)));
      }
      const std::uint64_t t2 = now_ns();
      gen += t1 - t0;
      learn += t2 - t1;
    }
    gen_ns.push_back(static_cast<double>(gen) / static_cast<double>(runs));
    learn_ns.push_back(static_cast<double>(learn) / static_cast<double>(runs));
  }
  out.add("fault.generate_us", median(gen_ns, "fault.generate_us") / 1e3, "us");
  out.add("fault.learn_us", median(learn_ns, "fault.learn_us") / 1e3, "us");

  const vps::fault::Observation golden = scenario->run(nullptr, config.seed);
  std::array<vps::fault::Observation, 4> faulty{golden, golden, golden, golden};
  faulty[1].output_signature ^= 1;
  faulty[2].detected += 1;
  faulty[3].hazard = !golden.hazard;
  std::size_t dangerous = 0;
  constexpr int kCalls = 1 << 20;
  const double ns = median_ns(
      [&] {
        for (int i = 0; i < kCalls; ++i) {
          dangerous += vps::fault::classify(golden, faulty[i & 3]) == Outcome::kHazard;
        }
      },
      "fault.classify_ns");
  if (dangerous == 0 && golden.completed && !golden.hazard) {
    throw BenchError("fault.classify_ns: classify never reported the flipped hazard");
  }
  out.add("fault.classify_ns", ns / kCalls, "ns");
}

double probe_codec_us_per_run(const WorkloadSpec& w, const vps::fault::CampaignConfig& config) {
  namespace dist = vps::dist;
  const auto scenario = vps::apps::make_scenario(w.scenario_spec);
  CampaignState state(scenario->fault_types(), scenario->duration(), config);
  const std::vector<FaultDescriptor> faults = descriptors(state, config.seed, 1024);
  std::size_t decoded = 0;
  const double ns = median_ns(
      [&] {
        dist::FrameReader reader;
        for (std::size_t i = 0; i < faults.size(); ++i) {
          const std::string assign = dist::encode_frame(
              dist::MsgType::kAssign, dist::encode_assign({1, i, 0, faults[i]}));
          dist::ResultMsg result;
          result.job = 1;
          result.run = i;
          result.replay_ns = 500'000;
          result.replay.outcome = static_cast<Outcome>(i % 6);
          const std::string verdict =
              dist::encode_frame(dist::MsgType::kResult, dist::encode_result(result));
          reader.feed(assign.data(), assign.size());
          reader.feed(verdict.data(), verdict.size());
          decoded += dist::decode_assign(reader.next()->payload).run == i;
          decoded += dist::decode_result(reader.next()->payload).run == i;
        }
      },
      "dist.codec_us_per_run");
  if (decoded != 2 * faults.size() * kRepeats) {
    throw BenchError("codec probe: round trip lost a message");
  }
  return ns / static_cast<double>(faults.size()) / 1e3;
}

void probe_layers(MetricSet& out) {
  // ISS + TLM + CAN: the poll loop against the compute-only loop.
  vps::hw::Cpu::Stats poll{};
  std::uint64_t transactions = 0, frames = 0;
  const double poll_ns = median_ns(
      [&] {
        EcuRig rig(kPollFirmware);
        rig.kernel.run(kEcuRun);
        poll = rig.ecu.cpu().stats();
        transactions = rig.ecu.bus().forwarded();
        frames = rig.bus.stats().frames_delivered;
      },
      "tlm.ns_per_transaction");
  std::uint64_t compute_instructions = 0;
  const double compute_ns = median_ns(
      [&] {
        EcuRig rig(kComputeFirmware);
        rig.kernel.run(kEcuRun);
        compute_instructions = rig.ecu.cpu().stats().instructions;
      },
      "hw.mips");
  const double ns_per_instruction =
      ratio(compute_ns, static_cast<double>(compute_instructions), "hw.mips");
  out.add("hw.instructions", static_cast<double>(poll.instructions), "count");
  out.add("hw.mips", 1e3 / ns_per_instruction, "MIPS");
  out.add("hw.bus_access_frac",
          ratio(static_cast<double>(poll.bus_accesses), static_cast<double>(poll.instructions),
                "hw.bus_access_frac"),
          "fraction");
  out.add("tlm.transactions", static_cast<double>(transactions), "count");
  out.add("tlm.ns_per_transaction",
          ratio(poll_ns - static_cast<double>(poll.instructions) * ns_per_instruction,
                static_cast<double>(transactions), "tlm.ns_per_transaction"),
          "ns");
  out.add("can.frames", static_cast<double>(frames), "count");

  // Kernel scheduling under BMS-shaped multi-rate OS tasks.
  vps::sim::KernelStats ks{};
  const double os_ns = median_ns(
      [&] {
        OsRig rig;
        rig.kernel.run(kOsRun);
        ks = rig.kernel.stats();
      },
      "sim.ns_per_activation");
  out.add("sim.activations", static_cast<double>(ks.activations), "count");
  out.add("sim.delta_cycles", static_cast<double>(ks.delta_cycles), "count");
  out.add("sim.ns_per_activation",
          ratio(os_ns, static_cast<double>(ks.activations), "sim.ns_per_activation"), "ns");

  // The fork path: platform and kernel images at a quiescent instant.
  EcuRig rig(kPollFirmware);
  rig.kernel.run(kEcuRun);
  vps::ecu::EcuPlatform::Snapshot ecu_image = rig.ecu.snapshot();
  out.add("ecu.snapshot_us",
          per_call_us(200, [&] { ecu_image = rig.ecu.snapshot(); }, "ecu.snapshot_us"), "us");
  out.add("ecu.restore_us",
          per_call_us(200, [&] { rig.ecu.restore(ecu_image); }, "ecu.restore_us"), "us");
  OsRig os;
  os.kernel.run(sim::Time::sec(60));
  sim::KernelSnapshot kernel_image = os.kernel.snapshot();
  out.add("sim.kernel_snapshot_us",
          per_call_us(2000, [&] { kernel_image = os.kernel.snapshot(); }, "sim.kernel_snapshot_us"),
          "us");
  out.add("sim.kernel_restore_us",
          per_call_us(2000, [&] { os.kernel.restore(kernel_image); }, "sim.kernel_restore_us"),
          "us");
}

}  // namespace perfbench
