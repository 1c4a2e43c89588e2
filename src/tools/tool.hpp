// Measurement-tool framework.
//
// A tool runs as a simulation process on a Smartphone: it emits probe
// packets toward a target server, matches responses by probe id, applies its
// own reporting quirks (quantization, runtime overheads) and produces a
// ToolRun. Two probe schedules exist in the paper's tool zoo:
//  * periodic  — ping-style: probes leave every `interval` regardless of
//    outstanding responses;
//  * sequential — httping/MobiPerf-style: the next probe waits for the
//    previous response (or its timeout) plus the interval gap.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "phone/smartphone.hpp"
#include "sim/simulator.hpp"

namespace acute::tools {

/// One probe's outcome.
struct ProbeRecord {
  /// 0-based position in the tool's probe schedule.
  int index = 0;
  /// RTT as the tool reports it, in **milliseconds** — after the tool's
  /// output-quantization quirks, so this is what the user reads, not the
  /// raw measurement. 0 when `timed_out`.
  double reported_rtt_ms = 0;
  /// True when no response arrived within the tool's timeout.
  bool timed_out = false;
  /// The response as delivered to the app, with all layer stamps (each
  /// stamp a sim::TimePoint with **microsecond** resolution — the Fig. 1
  /// vantage points are recovered from these, not from reported_rtt_ms).
  /// Empty on timeout.
  std::optional<net::Packet> response;
};

/// A completed tool execution: every probe's record, in schedule order.
struct ToolRun {
  /// The producing tool's display name (MeasurementTool::name()).
  std::string tool_name;
  /// One record per scheduled probe, sorted by ProbeRecord::index.
  std::vector<ProbeRecord> probes;

  /// Reported RTTs (milliseconds) of the successful probes, in probe order.
  [[nodiscard]] std::vector<double> reported_rtts_ms() const;
  /// Number of probes that timed out.
  [[nodiscard]] std::size_t loss_count() const;
  /// Number of probes that completed with a response.
  [[nodiscard]] std::size_t success_count() const;
};

/// Base class of the tool zoo: owns probe matching, timeouts and schedule
/// sequencing; subclasses supply the probe packets and reporting quirks.
class MeasurementTool {
 public:
  /// Probe schedule shared by every tool.
  struct Config {
    /// Total probes to send (must be > 0).
    int probe_count = 100;
    /// Inter-probe interval (periodic) or inter-probe gap (sequential).
    sim::Duration interval = sim::Duration::seconds(1);
    /// Per-probe response deadline (must be positive); a probe with no
    /// response by then is recorded as lost.
    sim::Duration timeout = sim::Duration::seconds(1);
    /// Node id of the measurement server the probes target.
    net::NodeId target = 0;
    /// false = periodic schedule, true = each probe waits for the previous
    /// exchange (sequential tools force this in their constructors).
    bool sequential = false;
  };

  virtual ~MeasurementTool();

  MeasurementTool(const MeasurementTool&) = delete;
  MeasurementTool& operator=(const MeasurementTool&) = delete;

  /// Completion callback, invoked once with the finished run (AcuteMon
  /// stops its background timer through it).
  using DoneFn = std::function<void(const ToolRun&)>;

  /// Initializes the per-run state; every tool's constructor ends with
  /// it, and a reused tool runs it again. Requires probe_count > 0 and a
  /// positive timeout. A new flow id is drawn from the phone's allocator,
  /// all matching and schedule state clears in place with storage kept
  /// warm, and start() may be called again. Overrides adapt `config`
  /// (e.g. sequential tools set `sequential`), call this base version,
  /// then initialize their own state.
  virtual void reinitialize(Config config);

  /// Launches the probe schedule; calling it a second time is a contract
  /// violation — enforced here, at the single non-virtual entry point, for
  /// every tool in the zoo (NVI: subclasses with a richer launch protocol,
  /// e.g. AcuteMon's warm-up + background thread, override launch()).
  /// `done` (optional) fires on completion.
  void start(DoneFn done = nullptr);

  /// True once every scheduled probe has completed or timed out.
  [[nodiscard]] bool finished() const { return finished_; }
  /// The run so far; once finished() is true, the tool's one outcome:
  /// every probe's record, sorted into schedule order (probes can complete
  /// out of order when a timeout outlives later responses). The campaign's
  /// results pipeline reads its probe events from here.
  [[nodiscard]] const ToolRun& result() const { return run_; }
  /// Display name ("ping", "httping", ...), also stored in ToolRun.
  [[nodiscard]] virtual std::string name() const = 0;
  /// The schedule of the current run (after any adaptation, e.g.
  /// sequential tools setting `sequential`).
  [[nodiscard]] const Config& config() const { return config_; }
  /// The flow id this tool's probes travel on (drawn from the phone's
  /// allocator by reinitialize()). Passive observers use it to attribute
  /// the flow's traffic back to the tool (MopEye-style).
  [[nodiscard]] std::uint32_t flow_id() const { return flow_id_; }

 protected:
  /// Binds the tool to `phone`'s stack; the tool must not outlive the
  /// phone. The most-derived (final) tool's constructor then calls
  /// reinitialize(), so each override runs exactly once.
  explicit MeasurementTool(phone::Smartphone& phone);

  /// Launch hook behind start()'s once-only guard. The default arms the
  /// base probe schedule immediately; tools with a lead-in protocol
  /// (AcuteMon) override it and call begin_probes() when the lead elapses.
  virtual void launch(DoneFn done);

  /// Arms the base probe schedule: registers the response flow and starts
  /// the periodic/sequential probe clock. Only reachable from launch()
  /// overrides (the guard in start() has already fired).
  void begin_probes(DoneFn done);

  /// The runtime the tool's process executes in (native C by default).
  [[nodiscard]] virtual phone::ExecMode exec_mode() const {
    return phone::ExecMode::native_c;
  }

  /// Emits the probe exchange for `index`. Implementations build packets via
  /// new_probe() and send them with send_packet(). The base class handles
  /// matching, timeout and scheduling.
  virtual void send_probe(int index) = 0;

  /// Called when a response for `index` arrives; implementations return the
  /// RTT the tool would *report* (quantization quirks applied), given the
  /// raw measured value, or std::nullopt if the exchange continues (e.g.
  /// httping's connect phase). Default: report the raw value.
  virtual std::optional<double> on_probe_response(int index,
                                                  const net::Packet& response,
                                                  double raw_rtt_ms);

  /// Creates a probe packet bound to this tool's flow and `index`.
  [[nodiscard]] net::Packet new_probe(int index, net::PacketType type,
                                      net::Protocol protocol,
                                      std::uint32_t size_bytes);

  /// Sends a packet through the phone in this tool's exec mode.
  void send_packet(net::Packet&& packet);

  /// The phone this tool runs on.
  [[nodiscard]] phone::Smartphone& phone() { return *phone_; }
  /// The phone's simulator (every schedule lands here).
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

 private:
  struct Outstanding {
    std::uint64_t probe_id = 0;
    int index = 0;
    sim::TimePoint sent_at;
    sim::EventHandle timeout;
  };

  void launch_probe(int index);
  void handle_response(net::Packet&& response);
  void handle_timeout(std::uint64_t probe_id);
  [[nodiscard]] std::vector<Outstanding>::iterator find_outstanding(
      std::uint64_t probe_id);
  void complete_probe(int index, ProbeRecord record);
  void maybe_finish();

  phone::Smartphone* phone_;
  sim::Simulator* sim_;
  Config config_;
  std::uint32_t flow_id_ = 0;
  // Probes awaiting a response or their timeout, in send order. At most
  // about timeout / interval of them are live, so lookups scan; clear()
  // keeps the storage warm across reinitialize().
  std::vector<Outstanding> outstanding_;
  int launched_ = 0;
  int completed_ = 0;
  bool started_ = false;
  bool finished_ = false;
  ToolRun run_;
  DoneFn done_;
};

}  // namespace acute::tools
