#include "testbed/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "core/layer_sample.hpp"
#include "passive/per_app.hpp"
#include "passive/pping.hpp"
#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "stats/digest_io.hpp"
#include "testbed/campaign_ledger.hpp"
#include "tools/factory.hpp"

namespace acute::testbed {

using sim::Duration;
using sim::expects;

namespace {

/// FNV-1a over the fields that determine a shard's outcome: the campaign
/// probe schedule plus the scenario's shape. Stamped into every checkpoint
/// record so a resume with an edited spec (different probe counts, grid
/// axes, phone mix, ...) rejects the stale shards instead of silently
/// merging them — the seed check alone cannot see spec edits.
class SpecHash {
 public:
  SpecHash() = default;
  /// Resumes from a value() taken earlier: mixing on continues that stream.
  explicit SpecHash(std::uint64_t state) : hash_(state) {}

  SpecHash& mix(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
    return *this;
  }
  SpecHash& mix(const Duration& duration) {
    return mix(static_cast<std::uint64_t>(duration.count_nanos()));
  }
  SpecHash& mix(double value) { return mix(stats::double_bits(value)); }
  SpecHash& mix(bool value) { return mix(std::uint64_t{value}); }
  SpecHash& mix(phone::RadioKind radio) {
    return mix(static_cast<std::uint64_t>(radio));
  }
  SpecHash& mix(const std::string& text) {
    for (const char c : text) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    return mix(text.size());
  }
  SpecHash& mix(const phone::LatencyDist& dist) {
    return mix(dist.mu_ms).mix(dist.sigma_ms).mix(dist.lo_ms).mix(dist.hi_ms);
  }
  /// Every behavior-determining profile field — a profile edited under an
  /// unchanged name must still change the hash.
  SpecHash& mix(const phone::PhoneProfile& profile) {
    mix(profile.name)
        .mix(static_cast<std::uint64_t>(profile.vendor))
        .mix(profile.cpu_scale)
        .mix(profile.bus_watchdog)
        .mix(static_cast<std::uint64_t>(profile.bus_idletime_ticks))
        .mix(profile.bus_wake_tx)
        .mix(profile.bus_wake_rx)
        .mix(profile.bus_clk_request)
        .mix(profile.bus_clk_idle_threshold)
        .mix(profile.bus_transfer_mbps)
        .mix(profile.system_traffic_mean_interval)
        .mix(std::uint64_t{profile.system_traffic_bytes});
    mix(profile.driver_tx_base)
        .mix(profile.driver_rx_base)
        .mix(profile.driver_netif)
        .mix(profile.irq_latency)
        .mix(profile.kernel_tx)
        .mix(profile.kernel_rx);
    return mix(profile.native_send)
        .mix(profile.native_recv)
        .mix(profile.dvm_send)
        .mix(profile.dvm_recv)
        .mix(profile.dvm_gc_prob)
        .mix(profile.dvm_gc_pause)
        .mix(profile.psm_timeout)
        .mix(profile.psm_tick)
        .mix(static_cast<std::uint64_t>(profile.associated_listen_interval))
        .mix(profile.beacon_miss_probability)
        .mix(std::uint64_t{profile.ping_integer_ms_above_100})
        .mix(profile.ping_resolution_ms);
  }
  SpecHash& mix(const cellular::RrcConfig& rrc) {
    return mix(rrc.idle_to_dch)
        .mix(rrc.fach_to_dch)
        .mix(rrc.promotion_jitter)
        .mix(rrc.dch_inactivity)
        .mix(rrc.fach_inactivity)
        .mix(rrc.dch_latency)
        .mix(rrc.fach_latency)
        .mix(std::uint64_t{rrc.fach_size_threshold});
  }
  SpecHash& mix(const WorkloadSpec& workload) {
    return mix(static_cast<std::uint64_t>(workload.tool))
        .mix(static_cast<std::uint64_t>(workload.probe_count))
        .mix(workload.interval)
        .mix(workload.timeout)
        .mix(static_cast<std::uint64_t>(workload.passive));
  }
  SpecHash& mix(const PhoneSpec& phone) {
    return mix(phone.profile)
        .mix(phone.label)  // selects the phone's rng streams
        .mix(phone.radio)
        .mix(phone.rrc)
        .mix(phone.workload);
  }
  /// One grid axis: its length, then each entry in order.
  template <class Entry>
  SpecHash& mix_axis(const std::vector<Entry>& axis) {
    mix(axis.size());
    for (const auto& entry : axis) mix(entry);
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// The two halves of a shard hash. The phones prefix (the campaign probe
/// schedule, then the phone list) is the FNV-1a state the scenario tail
/// (the scenario's scalar fields) continues from. In a grid the prefix
/// depends only on the (phone count, profile, radio, workload) axis tuple,
/// so Campaign computes each tuple's prefix once and every shard pays only
/// for its tail; explicit scenario lists run both halves per scenario.
SpecHash phones_prefix(const CampaignSpec& spec,
                       const std::vector<PhoneSpec>& phones) {
  SpecHash hash;
  hash.mix(static_cast<std::uint64_t>(spec.probes_per_phone))
      .mix(spec.probe_interval)
      .mix(spec.probe_timeout)
      .mix(spec.settle);
  hash.mix(phones.size());
  for (const PhoneSpec& phone : phones) hash.mix(phone);
  return hash;
}

std::uint64_t scenario_tail(SpecHash hash, const ScenarioSpec& scenario) {
  hash.mix(scenario.emulated_rtt)
      .mix(scenario.netem_jitter)
      .mix(scenario.congested_phy)
      .mix(scenario.cross_connections)
      .mix(scenario.cross_flow_mbps)
      .mix(scenario.send_ttl_exceeded)
      .mix(scenario.sniffer_noise)
      .mix(scenario.sniffer_count)
      .mix(scenario.cellular_core_rtt)
      .mix(scenario.netem_loss)
      .mix(scenario.netem_reorder);
  return hash.value();
}

/// Shared axis validation of expand(), at() and the Campaign constructor.
void validate_grid(const ScenarioGrid& grid) {
  expects(!grid.phone_counts.empty() && !grid.profiles.empty() &&
              !grid.radios.empty() && !grid.emulated_rtts.empty() &&
              !grid.cross_traffic.empty() && !grid.loss_rates.empty() &&
              !grid.reorder.empty() && !grid.workloads.empty(),
          "ScenarioGrid axes must all be non-empty");
  for (const double loss : grid.loss_rates) {
    expects(loss >= 0.0 && loss < 1.0,
            "ScenarioGrid loss rates must be in [0, 1)");
  }
  for (const std::size_t count : grid.phone_counts) {
    expects(count > 0, "ScenarioGrid phone counts must be positive");
  }
}

/// One scenario's position on each grid axis.
struct AxisDigits {
  std::size_t count, profile, radio, rtt, cross, loss, reorder, workload;
};

/// Decodes `index` as mixed-radix digits, innermost (workload) first — the
/// inverse of expand()'s nesting order. `index` must be below grid.size().
AxisDigits decode(const ScenarioGrid& grid, std::size_t index) {
  auto digit = [&index](std::size_t radix) {
    const std::size_t d = index % radix;
    index /= radix;
    return d;
  };
  AxisDigits at{};
  at.workload = digit(grid.workloads.size());
  at.reorder = digit(grid.reorder.size());
  at.loss = digit(grid.loss_rates.size());
  at.cross = digit(grid.cross_traffic.size());
  at.rtt = digit(grid.emulated_rtts.size());
  at.radio = digit(grid.radios.size());
  at.profile = digit(grid.profiles.size());
  at.count = digit(grid.phone_counts.size());
  return at;
}

/// The flat slot of `at`'s (phone count, profile, radio, workload) tuple,
/// in expand()'s nesting order: Campaign's phones-prefix table index.
std::size_t phones_slot(const ScenarioGrid& grid, const AxisDigits& at) {
  return ((at.count * grid.profiles.size() + at.profile) *
              grid.radios.size() +
          at.radio) *
             grid.workloads.size() +
         at.workload;
}

/// The one scenario-construction routine behind expand(), at(), at_into()
/// and the grid shard hash, in two halves: the phone list (which only the
/// phones-prefix tuple determines) and the scalar fields. Sharing it is
/// what makes at(i) == expand()[i] hold element for element, and
/// Campaign::shard_hash(i) == shard_hash(at(i)) hold bit for bit, by
/// construction. Fills in place: each half first assigns a default spec
/// wholesale, so every field, present or future, is overwritten, then sets
/// its axes. The phones vector plus the strings inside reuse out's
/// capacity, so a shape-stable grid iteration is allocation-free (the
/// shard-context pool's build path).
void phones_from_axes(const ScenarioGrid& grid, const AxisDigits& at,
                      std::vector<PhoneSpec>& out) {
  static const PhoneSpec default_phone;
  out.resize(grid.phone_counts[at.count]);
  for (PhoneSpec& phone : out) {
    phone = default_phone;
    phone.profile = grid.profiles[at.profile];
    phone.radio = grid.radios[at.radio];
    phone.workload = grid.workloads[at.workload];
  }
}

void fields_from_axes(const ScenarioGrid& grid, const AxisDigits& at,
                      ScenarioSpec& out) {
  // Phone-less, so the assignment copies no phone; out's own phones move
  // out and back in to keep their capacity.
  static const ScenarioSpec defaults{.phones = {}};
  std::vector<PhoneSpec> phones = std::move(out.phones);
  out = defaults;
  out.phones = std::move(phones);
  out.emulated_rtt = grid.emulated_rtts[at.rtt];
  out.congested_phy = grid.cross_traffic[at.cross];
  out.netem_loss = grid.loss_rates[at.loss];
  out.netem_reorder = grid.reorder[at.reorder];
}

void scenario_from_axes_into(const ScenarioGrid& grid, const AxisDigits& at,
                             ScenarioSpec& out) {
  fields_from_axes(grid, at, out);
  phones_from_axes(grid, at, out.phones);
}

}  // namespace

std::uint64_t CampaignSpec::shard_hash(const ScenarioSpec& scenario) const {
  return scenario_tail(phones_prefix(*this, scenario.phones), scenario);
}

std::uint64_t CampaignSpec::spec_hash() const {
  SpecHash hash;
  const std::size_t count = grid.has_value() ? grid->size() : scenarios.size();
  hash.mix(count);
  if (!grid.has_value()) {
    for (const ScenarioSpec& scenario : scenarios) {
      hash.mix(shard_hash(scenario));
    }
    return hash.value();
  }
  // A grid determines every scenario, so its axes (in nesting order, each
  // with its length) and the probe schedule identify the campaign in
  // O(axes). Scenario 0's shard hash adds the fields no axis names — the
  // ScenarioSpec/PhoneSpec defaults — so two builds that disagree on a
  // default still disagree here.
  return hash.mix(static_cast<std::uint64_t>(probes_per_phone))
      .mix(probe_interval)
      .mix(probe_timeout)
      .mix(settle)
      .mix_axis(grid->phone_counts)
      .mix_axis(grid->profiles)
      .mix_axis(grid->radios)
      .mix_axis(grid->emulated_rtts)
      .mix_axis(grid->cross_traffic)
      .mix_axis(grid->loss_rates)
      .mix_axis(grid->reorder)
      .mix_axis(grid->workloads)
      .mix(shard_hash(grid->at(0)))
      .value();
}

std::vector<ScenarioSpec> ScenarioGrid::expand() const {
  validate_grid(*this);
  std::vector<ScenarioSpec> scenarios;
  scenarios.reserve(size());
  for (std::size_t c = 0; c < phone_counts.size(); ++c) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      for (std::size_t r = 0; r < radios.size(); ++r) {
        for (std::size_t t = 0; t < emulated_rtts.size(); ++t) {
          for (std::size_t x = 0; x < cross_traffic.size(); ++x) {
            for (std::size_t l = 0; l < loss_rates.size(); ++l) {
              for (std::size_t o = 0; o < reorder.size(); ++o) {
                for (std::size_t w = 0; w < workloads.size(); ++w) {
                  ScenarioSpec& scenario = scenarios.emplace_back();
                  scenario_from_axes_into(*this,
                                          AxisDigits{c, p, r, t, x, l, o, w},
                                          scenario);
                }
              }
            }
          }
        }
      }
    }
  }
  return scenarios;
}

ScenarioSpec ScenarioGrid::at(std::size_t index) const {
  ScenarioSpec scenario;
  at_into(index, scenario);
  return scenario;
}

void ScenarioGrid::at_into(std::size_t index, ScenarioSpec& out) const {
  validate_grid(*this);
  expects(index < size(), "ScenarioGrid::at index out of range");
  scenario_from_axes_into(*this, decode(*this, index), out);
}

std::size_t ScenarioGrid::size() const {
  // Guarded mixed-radix product: eight axis lists can overflow std::size_t
  // long before they could ever run, and a silently-wrapped size would make
  // at()'s range check accept garbage indices. Fail loudly instead.
  const std::size_t axes[] = {phone_counts.size(),  profiles.size(),
                              radios.size(),        emulated_rtts.size(),
                              cross_traffic.size(), loss_rates.size(),
                              reorder.size(),       workloads.size()};
  std::size_t total = 1;
  for (const std::size_t axis : axes) {
    if (axis == 0) return 0;
    expects(total <= std::numeric_limits<std::size_t>::max() / axis,
            "ScenarioGrid::size overflows std::size_t "
            "(cross product of axis lengths is too large)");
    total *= axis;
  }
  return total;
}

stats::MergingDigest CampaignReport::rtt_digest() const {
  stats::MergingDigest all;
  for (const report::WorkloadDigest& digest : workload_digests()) {
    all.merge(digest.reported_rtt_ms);
  }
  return all;
}

void write_report_digests(std::ostream& out, const CampaignReport& report) {
  const auto digest = [&out](const stats::MergingDigest& value) {
    out << ' ';
    stats::write_digest(out, value);
  };
  std::string sim_seconds;
  stats::append_hex64(sim_seconds,
                      stats::double_bits(report.total_sim_seconds()));
  out << "shards " << report.completed_shards() << ' ' << report.shard_count()
      << '\n';
  out << "totals " << report.total_probes() << ' ' << report.total_lost()
      << ' ' << report.total_frames() << ' ' << report.total_events() << ' '
      << sim_seconds << '\n';
  for (const report::WorkloadDigest& w : report.workload_digests()) {
    out << "workload " << tools::grid_name(w.tool) << ' ' << w.probes << ' '
        << w.lost;
    digest(w.reported_rtt_ms);
    digest(w.du_ms);
    digest(w.dk_ms);
    digest(w.dv_ms);
    digest(w.dn_ms);
    out << ' ' << w.passive_sniffer_samples << ' ' << w.passive_app_samples;
    digest(w.passive_sniffer_rtt_ms);
    digest(w.passive_app_rtt_ms);
    out << '\n';
  }
}

Campaign::Campaign(CampaignSpec spec)
    : spec_(std::move(spec)),
      shard_count_(spec_.grid.has_value() ? spec_.grid->size()
                                          : spec_.scenarios.size()) {
  expects(spec_.scenarios.empty() || !spec_.grid.has_value(),
          "Campaign takes scenarios OR a lazy grid, not both");
  // Validated once here, so scenario_into() decodes a shard without the
  // per-call checks ScenarioGrid::at_into keeps for outside callers.
  if (spec_.grid.has_value()) validate_grid(*spec_.grid);
  expects(shard_count_ > 0, "Campaign requires at least one scenario");
  expects(spec_.probes_per_phone > 0,
          "Campaign requires probes_per_phone > 0");
  expects(spec_.probe_timeout > Duration{},
          "Campaign requires a positive probe timeout");
  expects(!spec_.keep_samples && !spec_.retain_shards,
          "CampaignSpec::keep_samples and retain_shards are retired and must "
          "stay false: campaigns always fold through the merge frontier; "
          "record per-probe samples through CampaignSpec::sinks");
  if (spec_.grid.has_value()) {
    // Every (phone count, profile, radio, workload) tuple's phones prefix,
    // in phones_slot() order, so shard_hash(i) hashes only a scenario tail.
    const ScenarioGrid& grid = *spec_.grid;
    std::vector<PhoneSpec> phones;
    AxisDigits at{};
    for (at.count = 0; at.count < grid.phone_counts.size(); ++at.count) {
      for (at.profile = 0; at.profile < grid.profiles.size(); ++at.profile) {
        for (at.radio = 0; at.radio < grid.radios.size(); ++at.radio) {
          for (at.workload = 0; at.workload < grid.workloads.size();
               ++at.workload) {
            phones_from_axes(grid, at, phones);
            phones_prefixes_.push_back(phones_prefix(spec_, phones).value());
          }
        }
      }
    }
  }
}

std::uint64_t Campaign::shard_hash(std::size_t index) const {
  expects(index < scenario_count(), "Campaign::shard_hash index out of range");
  if (!spec_.grid.has_value()) return spec_.shard_hash(spec_.scenarios[index]);
  const AxisDigits at = decode(*spec_.grid, index);
  ScenarioSpec tail{.phones = {}};  // no phones: allocation-free
  fields_from_axes(*spec_.grid, at, tail);
  return scenario_tail(SpecHash(phones_prefixes_[phones_slot(*spec_.grid, at)]),
                       tail);
}

std::uint64_t Campaign::shard_seed(std::uint64_t campaign_seed,
                                   std::size_t shard_index) {
  return sim::Rng(campaign_seed)
      .fork(static_cast<std::uint64_t>(shard_index))
      .seed();
}

/// Everything a worker keeps warm between shards. Lives in this TU (pimpl)
/// because it composes campaign-internal scratch with the full Testbed.
struct ShardContext::Impl {
  /// The simulator every testbed (re)build of this context schedules on.
  sim::Simulator sim;
  /// The warm node graph; engaged on the context's first shard, then
  /// rebuild()-reset into each subsequent scenario.
  std::optional<Testbed> testbed;
  /// One measurement tool per phone index, reused while both the tool kind
  /// and the phone object still match (reinitialize() is the tool's one
  /// init body); replaced wholesale otherwise.
  struct ToolSlot {
    tools::ToolKind kind = tools::ToolKind::icmp_ping;
    phone::Smartphone* phone = nullptr;
    std::unique_ptr<tools::MeasurementTool> tool;
  };
  std::vector<ToolSlot> tools;
  std::vector<tools::MeasurementTool*> running;
  /// Scenario scratch scenario_into() fills per shard (capacity-reusing).
  ScenarioSpec scenario;
  /// Built-in sink scratch, re-added to the chain by reference per shard;
  /// the user factory's per-shard sinks are chain-owned.
  report::SinkChain chain;
  report::DigestSink digests;
  /// Passive vantage points (warm tables; reset per shard, attached only
  /// when a workload asks for them).
  passive::PpingEstimator pping;
  passive::PerAppMonitor per_app;
  std::size_t shards_run = 0;
  std::size_t reuses = 0;
};

ShardContext::ShardContext() : impl_(std::make_unique<Impl>()) {}
ShardContext::~ShardContext() = default;
ShardContext::ShardContext(ShardContext&& other) noexcept = default;
ShardContext& ShardContext::operator=(ShardContext&& other) noexcept = default;

std::size_t ShardContext::shards_run() const { return impl_->shards_run; }
std::size_t ShardContext::reuses() const { return impl_->reuses; }

void Campaign::scenario_into(std::size_t index, ScenarioSpec& out) const {
  expects(index < scenario_count(), "Campaign scenario index out of range");
  if (spec_.grid.has_value()) {
    scenario_from_axes_into(*spec_.grid, decode(*spec_.grid, index), out);
  } else {
    out = spec_.scenarios[index];  // copy-assign reuses out's capacity
  }
}

report::ShardCheckpoint Campaign::run_shard_record(
    std::size_t scenario_index, ShardContext& context) const {
  return run_shard(scenario_index, /*run_sequence=*/0, nullptr,
                   /*hash=*/true, nullptr, context);
}

report::ShardCheckpoint Campaign::run_shard(
    std::size_t scenario_index, std::size_t run_sequence,
    report::CheckpointWriter* checkpoint, bool hash, StageSeconds* stage,
    ShardContext& context) const {
  expects(scenario_index < scenario_count(),
          "Campaign::run_shard index out of range");
  expects(context.impl_ != nullptr,
          "Campaign::run_shard on a moved-from ShardContext");
  ShardContext::Impl& ctx = *context.impl_;
  const auto stage_start = std::chrono::steady_clock::now();
  auto stage_lap = [last = stage_start]() mutable {
    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(now - last).count();
    last = now;
    return seconds;
  };

  // Sink scratch first: normal completion leaves it empty, but a shard
  // that threw mid-stream must not leak partial folds (or its owned
  // per-shard sinks) into this one.
  ctx.chain.clear();
  ctx.digests.reset();
  ctx.pping.reset();
  ctx.per_app.reset();

  ScenarioSpec& scenario = ctx.scenario;
  scenario_into(scenario_index, scenario);
  scenario.seed = shard_seed(spec_.seed, scenario_index);

  report::ShardCheckpoint record;
  report::ShardSummary& summary = record.summary;
  summary.info = report::ShardInfo{scenario_index, scenario.seed,
                                   scenario.phones.size(), run_sequence};

  // The shard's sink chain: the built-in DigestSink (context-resident,
  // added by reference), then whatever CampaignSpec::sinks plugs in.
  report::SinkChain& chain = ctx.chain;
  chain.add_ref(ctx.digests);
  if (spec_.sinks) {
    for (auto& sink : spec_.sinks(summary.info)) chain.add(std::move(sink));
  }
  chain.shard_started(summary.info);

  // Prune stale tools BEFORE the rebuild: ~MeasurementTool unregisters its
  // flow on the phone it was bound to, so it must run while that phone is
  // still alive — rebuild() destroys phones whose slot changes radio kind
  // (and any beyond the next scenario's count). A tool survives only when
  // the next scenario keeps the same tool kind on a phone build_graph will
  // reset in place (same slot, same radio kind — stable address).
  if (ctx.testbed.has_value()) {
    const std::size_t next_count = scenario.phones.size();
    if (ctx.tools.size() > next_count) ctx.tools.resize(next_count);
    for (std::size_t i = 0; i < ctx.tools.size(); ++i) {
      ShardContext::Impl::ToolSlot& slot = ctx.tools[i];
      if (slot.tool == nullptr) continue;
      const bool phone_survives =
          i < ctx.testbed->phone_count() &&
          slot.phone == &ctx.testbed->phone(i) &&
          ctx.testbed->phone(i).radio_kind() == scenario.phones[i].radio;
      if (!phone_survives || slot.kind != scenario.phones[i].workload.tool) {
        slot.tool.reset();
        slot.phone = nullptr;
      }
    }
  }

  // Reuse the warm testbed — rebuild() replays the construction order on
  // the reset simulator, bit-identical to a fresh build — or construct it
  // into the context slot on first use.
  if (ctx.testbed.has_value()) {
    ctx.testbed->rebuild(scenario);
    ++ctx.reuses;
  } else {
    ctx.testbed.emplace(scenario, ctx.sim);
  }
  Testbed& testbed = *ctx.testbed;
  if (stage != nullptr) stage->build += stage_lap();
  testbed.settle(spec_.settle);
  if (testbed.spec().congested_phy) {
    testbed.start_cross_traffic();
    testbed.settle(Duration::seconds(2));  // reach saturation
  }

  // One tool per phone, selected by the phone's WorkloadSpec; workload
  // fields left at zero fall back to the campaign-wide schedule defaults.
  const std::size_t phone_count = testbed.phone_count();
  if (ctx.tools.size() > phone_count) ctx.tools.resize(phone_count);
  ctx.running.clear();
  // Passive vantage points: rebuild()/reset() detached every observer and
  // tap, so attachment is strictly per shard. The sniffer-side estimator
  // attaches once (sniffer 0 — all sniffers see the same frames); both it
  // and the per-app monitor must be wired BEFORE any tool starts, because
  // sequential tools launch probe 0 synchronously inside start().
  bool sniffer_vantage = false;
  for (const PhoneSpec& phone : testbed.spec().phones) {
    sniffer_vantage |= passive::wants_sniffer(phone.workload.passive);
  }
  if (sniffer_vantage && testbed.sniffer_count() > 0) {
    testbed.sniffer(0).attach_capture_observer(&ctx.pping);
  }
  for (std::size_t i = 0; i < phone_count; ++i) {
    const WorkloadSpec& workload = testbed.spec().phones[i].workload;
    tools::MeasurementTool::Config config;
    config.probe_count = workload.probe_count > 0 ? workload.probe_count
                                                  : spec_.probes_per_phone;
    config.interval = workload.interval.is_zero() ? spec_.probe_interval
                                                  : workload.interval;
    config.timeout = workload.timeout.is_zero() ? spec_.probe_timeout
                                                : workload.timeout;
    config.target = Testbed::kServerId;
    if (i == ctx.tools.size()) ctx.tools.emplace_back();
    ShardContext::Impl::ToolSlot& slot = ctx.tools[i];
    if (slot.tool != nullptr && slot.kind == workload.tool &&
        slot.phone == &testbed.phone(i)) {
      // Same tool kind bound to the same (reset) phone object: run the
      // reinitialize() every tool constructor ends with.
      slot.tool->reinitialize(config);
    } else {
      slot.tool = tools::make_tool(workload.tool, testbed.phone(i), config);
      slot.kind = workload.tool;
      slot.phone = &testbed.phone(i);
    }
    if (passive::wants_sniffer(workload.passive) &&
        testbed.sniffer_count() > 0) {
      ctx.pping.watch_flow(Testbed::phone_id(i), slot.tool->flow_id(), i,
                           workload.tool);
    }
    if (passive::wants_exec_env(workload.passive)) {
      testbed.phone(i).exec_env().attach_flow_tap(&ctx.per_app);
      ctx.per_app.watch_flow(Testbed::phone_id(i), slot.tool->flow_id(), i,
                             workload.tool);
    }
    slot.tool->start();
    ctx.running.push_back(slot.tool.get());
  }
  testbed.run_until_all_finished(ctx.running);
  if (stage != nullptr) stage->simulate += stage_lap();

  // Canonical event delivery: phones in scenario order, probes in schedule
  // order within each phone — the ordering contract report::ResultSink
  // documents. A finished tool's result() is already in schedule order
  // (probes can *complete* out of it when a timeout outlives later
  // responses).
  // Passive samples ride the same canonical sweep: after a phone's active
  // probes come its sniffer-vantage samples, then its per-app samples, each
  // in emission order. Passive events never count as probes (sent or lost).
  auto flush_passive = [&chain, scenario_index](
                           const std::vector<passive::RttSample>& samples,
                           std::size_t phone, report::Vantage vantage) {
    for (const passive::RttSample& sample : samples) {
      if (sample.phone_index != phone) continue;
      report::ProbeEvent event;
      event.scenario_index = scenario_index;
      event.phone_index = phone;
      event.probe_index = sample.ordinal;
      event.tool = sample.tool;
      event.vantage = vantage;
      event.reported_rtt_ms = sample.rtt_ms;
      chain.probe_completed(event);
    }
  };
  for (std::size_t i = 0; i < phone_count; ++i) {
    const ShardContext::Impl::ToolSlot& slot = ctx.tools[i];
    for (const tools::ProbeRecord& record : slot.tool->result().probes) {
      report::ProbeEvent event;
      event.scenario_index = scenario_index;
      event.phone_index = i;
      event.probe_index = record.index;
      event.tool = slot.kind;
      event.timed_out = record.timed_out;
      event.reported_rtt_ms = record.reported_rtt_ms;
      if (!record.timed_out && record.response.has_value()) {
        // The reported (tool-level) RTT overrides the stamp-derived du, as
        // in the paper's user-level vantage point.
        const auto sample = core::LayerSample::from_response(
            *record.response, record.reported_rtt_ms);
        if (sample.has_value()) {
          event.layers = report::LayerBreakdown{sample->du_ms, sample->dk_ms,
                                                sample->dv_ms, sample->dn_ms};
        }
      }
      summary.probes_sent += 1;
      if (event.timed_out) summary.probes_lost += 1;
      chain.probe_completed(event);
    }
    flush_passive(ctx.pping.samples(), i, report::Vantage::passive_sniffer);
    flush_passive(ctx.per_app.samples(), i, report::Vantage::passive_app);
  }

  record.digests = ctx.digests.take_digests();
  if (testbed.cross_traffic_running()) testbed.stop_cross_traffic();
  summary.frames_on_air = testbed.channel().frames_transmitted();
  summary.events_fired = testbed.simulator().events_fired();
  summary.sim_seconds =
      (testbed.simulator().now() - sim::TimePoint::epoch()).to_seconds();
  chain.shard_finished(summary);
  // The checkpoint append comes after every user sink's shard_finished: a
  // kill in between re-runs the shard (detectable duplicate JSONL records)
  // rather than never exporting it. It also precedes the caller's merge,
  // so a shard is durable before it is folded. The hash covers only the
  // outcome-determining shape fields, so the seed written above is moot.
  if (hash || checkpoint != nullptr) {
    record.spec_hash = shard_hash(scenario_index);
  }
  if (checkpoint != nullptr) checkpoint->append(record);
  // Destroy the per-shard owned sinks now (matching the fresh path, where
  // the whole chain died here); the context-resident built-ins stay warm.
  chain.clear();
  if (stage != nullptr) stage->sink += stage_lap();
  ++ctx.shards_run;
  return record;
}

namespace {

/// The work-claim cursor on its own cache line: workers of a big campaign
/// hammer this one atomic, and without the padding it false-shares with
/// whatever the compiler packs next to it on run()'s stack.
struct alignas(64) ClaimCursor {
  std::atomic<std::size_t> next{0};
};

/// Per-worker accumulators, one cache line each so workers never
/// false-share their hot counters while shards retire.
struct alignas(64) WorkerLane {
  StageSeconds stage;
  std::size_t shards_run = 0;
};

}  // namespace

CampaignReport Campaign::run(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  CampaignLedger ledger(*this);
  const std::vector<std::size_t>& pending = ledger.pending();
  report::CheckpointWriter* checkpoint = ledger.checkpoint();

  // Never spawn more threads than pending shards: a tiny incremental tick
  // (or a fully-restored rerun) must not pay pool spin-up for workers that
  // would find the claim cursor already exhausted.
  workers = std::min(workers, std::max<std::size_t>(pending.size(), 1));
  // Claims are *batched* — one fetch_add leases `batch` consecutive
  // sequences — so a million-shard sweep performs O(shards / batch) RMWs on
  // the shared cursor line instead of one per shard. Batches stay small
  // enough that tail imbalance is at most one batch per worker.
  const std::size_t batch = std::clamp<std::size_t>(
      pending.size() / (workers * 8), std::size_t{1}, std::size_t{16});
  // The park bound is two claim batches per worker: room for the whole
  // pool to keep parking while one worker folds, and a cap on the held map
  // when the producers outrun that single folder.
  ledger.start(/*park_bound=*/2 * workers * batch);

  // Work-stealing by atomic cursor: each worker owns the slots it claims,
  // so no locking is needed; determinism comes from per-shard seeding, not
  // from the claim order.
  std::vector<std::exception_ptr> failures(pending.size());
  ClaimCursor cursor;
  std::vector<WorkerLane> lanes(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([this, &cursor, &ledger, &failures, &pending,
                       checkpoint, &lane = lanes[w], batch] {
      // Each worker owns one warm context for its whole claim stream:
      // every shard after the first reuses the simulator, node graph,
      // tools and sink scratch (per-shard seeding keeps results
      // independent of which worker ran what).
      ShardContext context;
      while (true) {
        const std::size_t begin =
            cursor.next.fetch_add(batch, std::memory_order_relaxed);
        if (begin >= pending.size()) return;
        const std::size_t end = std::min(begin + batch, pending.size());
        for (std::size_t p = begin; p < end; ++p) {
          const std::size_t index = pending[p];
          try {
            report::ShardCheckpoint record =
                run_shard(index, /*run_sequence=*/p, checkpoint,
                          /*hash=*/false, &lane.stage, context);
            ++lane.shards_run;
            // Retire into the in-order fold: the record parks, and this
            // worker folds every ready shard only if no other worker is
            // folding. It waits only while another worker folds and the
            // park bound is full. The shard's digests are freed as soon
            // as the fold consumes them.
            ledger.submit(index, std::move(record));
          } catch (...) {
            failures[p] = std::current_exception();
            // Release the slot so the fold cannot stall behind a failed
            // shard; the exception is rethrown below after the join.
            ledger.abandon(index);
          }
        }
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  CampaignReport report = ledger.finish();
  for (const WorkerLane& lane : lanes) {
    report.stage.build += lane.stage.build;
    report.stage.simulate += lane.stage.simulate;
    report.stage.sink += lane.stage.sink;
  }
  for (const std::exception_ptr& failure : failures) {
    if (failure != nullptr) std::rethrow_exception(failure);
  }
  return report;
}

}  // namespace acute::testbed
