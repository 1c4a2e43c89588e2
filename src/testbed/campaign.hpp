// Fleet-scale measurement campaigns: many scenarios, many cores, one report.
//
// The paper's methodology pays off at scale — the du/dk/dv/dn decomposition
// must be swept across handsets, loads and stack configurations the way
// crowdsourced systems (MopEye-style per-app measurement) sweep device
// fleets. Campaign is that sweep engine:
//
//   * One *shard* = one ScenarioSpec executed on its own sim::Simulator
//     (fully independent state) with one measurement tool per phone, picked
//     per phone by WorkloadSpec through tools::make_tool().
//   * A pool of worker threads pulls shard indices from an atomic counter.
//   * Shard i runs its scenario with seed Rng(campaign_seed).fork(i), so a
//     shard's result is a pure function of (spec, campaign seed, i) — the
//     merged report is bit-identical for ANY worker count.
//   * Each shard narrates its execution as typed report:: events (shard
//     started, one per completed probe, shard finished) through a per-shard
//     report::ResultSink chain: the built-in DigestSink folds them into
//     fixed-size per-workload stats::MergingDigest accumulators, and
//     CampaignSpec::sinks plugs arbitrary consumers (JSONL export, raw
//     per-probe recorders) into the same stream. A shard's outcome is one
//     report::ShardCheckpoint (counters, spec hash, digests) — the same
//     record in memory, on disk and on the fabric wire.
//   * Completed shards fold into the campaign totals through the merge
//     frontier in ascending scenario order and are freed at once, so report
//     memory is O(workers), not O(shards).
//   * CampaignSpec::checkpoint_path persists every completed shard, so a
//     killed sweep resumes from the last completed shard bit-identically
//     (CampaignLedger: restore, validate, compact, classify, fold).
//
// ScenarioGrid expands axis lists (phone count x profile x radio x RTT x
// cross traffic x loss x reorder x workload) into the scenario vector, in a
// fixed nesting order. The full contract (sharding, seed derivation,
// results pipeline, checkpoint format) is documented in docs/campaigns.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "phone/profile.hpp"
#include "phone/smartphone.hpp"
#include "report/checkpoint.hpp"
#include "report/digest_sink.hpp"
#include "report/sink.hpp"
#include "stats/digest.hpp"
#include "testbed/shard_context.hpp"
#include "testbed/testbed.hpp"
#include "tools/factory.hpp"

namespace acute::testbed {

/// Axis lists expanded into a scenario vector (cross product). Empty axes
/// are contract violations — an empty grid is almost certainly a bug.
struct ScenarioGrid {
  std::vector<std::size_t> phone_counts{1};
  std::vector<phone::PhoneProfile> profiles{phone::PhoneProfile::nexus5()};
  std::vector<phone::RadioKind> radios{phone::RadioKind::wifi};
  std::vector<sim::Duration> emulated_rtts{sim::Duration::millis(30)};
  /// true = congested PHY + iPerf cross traffic running during probing.
  std::vector<bool> cross_traffic{false};
  /// Netem loss probability on the server egress, each in [0, 1).
  std::vector<double> loss_rates{0.0};
  /// true = the netem egress may reorder packets under jitter.
  std::vector<bool> reorder{false};
  /// Measurement workloads (tool kind + schedule overrides); every phone of
  /// a scenario runs the same workload. Defaults to one stock-ping entry.
  std::vector<WorkloadSpec> workloads{WorkloadSpec{}};

  /// The cross product, nesting (outer to inner): phone count, profile,
  /// radio, emulated RTT, cross traffic, loss rate, reorder, workload. All
  /// phones of a scenario share the profile, radio and workload; seeds are
  /// assigned by Campaign, not here. The loss/reorder/workload axes default
  /// to single lossless stock-ping entries, so pre-existing grids expand to
  /// byte-identical scenario vectors.
  [[nodiscard]] std::vector<ScenarioSpec> expand() const;

  /// The scenario expand()[index] would hold, built on demand — the O(1)
  /// memory iteration path of big campaigns (CampaignSpec::grid). at(i) and
  /// expand() share one construction routine, so they are identical
  /// element for element by construction (pinned by test_campaign_lazy).
  [[nodiscard]] ScenarioSpec at(std::size_t index) const;

  /// at(), but filled into `out` in place: every field is overwritten (the
  /// non-axis fields with their ScenarioSpec defaults), and the phones
  /// vector / label strings reuse out's existing capacity — the
  /// allocation-free iteration path of the shard-context pool. at(),
  /// expand() and at_into() share one construction routine, so all three
  /// are identical element for element by construction.
  void at_into(std::size_t index, ScenarioSpec& out) const;

  /// Number of scenarios expand() will produce / at() accepts.
  [[nodiscard]] std::size_t size() const;
};

struct CampaignSpec {
  /// Campaign seed S; shard i derives its scenario seed as Rng(S).fork(i).
  std::uint64_t seed = 42;
  /// The scenarios to execute, one shard each (usually ScenarioGrid output).
  /// Leave empty and set `grid` instead for big sweeps.
  std::vector<ScenarioSpec> scenarios;
  /// Lazy alternative to `scenarios`: shard i builds its ScenarioSpec on
  /// demand from grid->at(i), so campaign spec memory is O(1) instead of
  /// O(shards) — the 10^5–10^6-shard mode. Exactly one of `scenarios` /
  /// `grid` may be set; shard indices, seeds, shard hashes, checkpoints and
  /// merge order are identical to running grid->expand() materialized (only
  /// the campaign-wide spec_hash() differs).
  std::optional<ScenarioGrid> grid;
  /// Default per-phone probe schedule; a phone's WorkloadSpec may override
  /// any of the three fields (its zero/<=0 fields fall back to these).
  int probes_per_phone = 20;
  sim::Duration probe_interval = sim::Duration::millis(200);
  sim::Duration probe_timeout = sim::Duration::seconds(8);
  /// Idle time before probing starts (power-save machinery steady state).
  sim::Duration settle = sim::Duration::millis(800);
  /// Extra per-shard result sinks (streaming results pipeline): invoked once
  /// per shard, concurrently from worker threads, so the factory must be
  /// thread-safe; see report::ResultSink for the event-delivery contract and
  /// report::jsonl_sink_factory for a ready-made JSONL exporter. Per-probe
  /// values (raw RTT and du/dk/dv/dn samples) reach callers only here.
  report::SinkFactory sinks;
  /// Non-empty: checkpoint/resume. Every completed shard appends its record
  /// here; Campaign::run restores the shards already present instead of
  /// re-executing them, so a killed sweep resumes from the last completed
  /// shard with bit-identical merged digests.
  std::string checkpoint_path;
  /// 0 = run every pending shard. Otherwise at most this many pending shards
  /// execute in this invocation and the rest stay incomplete — the knob
  /// behind kill/resume tests and incremental ("N shards per cron tick")
  /// checkpointed sweeps.
  std::size_t max_shards = 0;
  /// Retired modes: campaigns keep no raw sample vectors and always fold
  /// through the merge frontier. Both must stay false (Campaign's
  /// constructor rejects true); record per-probe values through `sinks`.
  bool keep_samples = false;
  bool retain_shards = false;

  /// FNV-1a fingerprint of everything that determines one shard's outcome
  /// besides the seed: the campaign probe schedule plus `scenario`'s shape.
  /// Stamped into every checkpoint record (see report::ShardCheckpoint) so
  /// a resume against an edited spec rejects the stale shards loudly — the
  /// one hash both checkpoint validation and the fabric wire protocol use.
  /// The reference form: Campaign::shard_hash(i) gives the same bits for
  /// shard i without materializing its scenario.
  [[nodiscard]] std::uint64_t shard_hash(const ScenarioSpec& scenario) const;

  /// Shape-only fingerprint of the whole campaign, never the seed (the
  /// fabric handshake carries the seed as its own field so a seed mismatch
  /// gets its own loud message); the hello's campaign identity.
  ///   * A grid hashes the scenario count, the probe schedule and every
  ///     axis vector in nesting order with its length — a grid determines
  ///     every scenario, so this is O(axes), not O(shards) — plus scenario
  ///     0's shard_hash(), which carries the ScenarioSpec/PhoneSpec
  ///     defaults no axis names, so builds that disagree on a default
  ///     still fail the hello.
  ///   * An explicit `scenarios` list hashes its count plus every
  ///     scenario's shard_hash() in index order: O(scenarios).
  /// So a lazy grid and its materialized expand() have different
  /// spec_hash()es (a worker must be given the same form as its
  /// coordinator), although their shard hashes — and so their checkpoints
  /// — are identical and interchangeable.
  [[nodiscard]] std::uint64_t spec_hash() const;
};

/// Wall-clock seconds spent per campaign pipeline stage. Per-shard stages
/// (build / simulate / sink) are summed across workers — with W workers the
/// sum can exceed the campaign's wall time W-fold; the ratios are what
/// matter (docs/campaigns.md, "Reading the BENCH numbers"). `restore` is
/// the serial checkpoint load/compact phase; `merge` is the frontier fold.
struct StageSeconds {
  /// Scenario materialization + sink-chain setup + Testbed
  /// construction/rebuild.
  double build = 0;
  /// settle() + cross-traffic warmup + tool setup +
  /// run_until_all_finished().
  double simulate = 0;
  /// Canonical event flush through the sink chain (digest folds, JSONL
  /// blocks) + shard_finished delivery + the checkpoint append.
  double sink = 0;
  /// In-order frontier fold of completed shards into the campaign
  /// accumulators. One producer folds at a time, outside the frontier lock,
  /// so this is serial fold time.
  double merge = 0;
  /// Checkpoint load, validation and compaction (serial, resume only).
  double restore = 0;
};

/// Merged campaign outcome: the frontier's in-order fold of every completed
/// shard. Shards themselves are not retained.
struct CampaignReport {
  /// Per-stage time breakdown of the run (see StageSeconds).
  StageSeconds stage;

  /// Campaign-level accumulators the merge frontier folds completed shards
  /// into, in ascending scenario-index order; the accessors below read them.
  struct FoldedTotals {
    /// Total shards in the campaign.
    std::size_t shard_count = 0;
    /// Shards folded (executed or restored) by this run.
    std::size_t completed = 0;
    /// Exact fleet counters, summed in ascending scenario order.
    std::size_t probes = 0;
    std::size_t lost = 0;
    std::uint64_t frames = 0;
    std::uint64_t events = 0;
    double sim_seconds = 0;
    /// Per-workload digest accumulators (ascending ToolKind slots).
    report::WorkloadFold workloads;
    /// Peak number of out-of-order shards the frontier held at once
    /// (MergeFrontier::high_water): the report-memory cost of completion
    /// skew.
    std::size_t high_water = 0;
  } frontier;

  /// Per-workload streaming accumulators merged across all shards in
  /// scenario-index order, returned by ascending ToolKind; only kinds that
  /// ran appear. Bit-identical for any worker count and across kill/resume.
  [[nodiscard]] std::vector<report::WorkloadDigest> workload_digests() const {
    return frontier.workloads.snapshot();
  }
  /// All workloads' reported-RTT digests merged into one distribution (ms).
  [[nodiscard]] stats::MergingDigest rtt_digest() const;

  /// Total shards in the campaign.
  [[nodiscard]] std::size_t shard_count() const { return frontier.shard_count; }

  /// Shards that actually executed (or were restored from a checkpoint);
  /// equals shard_count() for an uninterrupted, un-capped run.
  [[nodiscard]] std::size_t completed_shards() const {
    return frontier.completed;
  }

  /// Exact fleet totals (sums over shards).
  [[nodiscard]] std::size_t total_probes() const { return frontier.probes; }
  [[nodiscard]] std::size_t total_lost() const { return frontier.lost; }
  [[nodiscard]] std::uint64_t total_frames() const { return frontier.frames; }
  [[nodiscard]] std::uint64_t total_events() const { return frontier.events; }
  [[nodiscard]] double total_sim_seconds() const {
    return frontier.sim_seconds;
  }
};

/// The canonical merged-result dump: shard counts, exact totals and every
/// workload digest with IEEE-754 bit-pattern doubles, one line each. Equal
/// dumps mean bit-identical merges — the form `acute_fabric --digest-out`
/// writes and tests/golden/mixed_workloads.digests pins.
void write_report_digests(std::ostream& out, const CampaignReport& report);

class Campaign {
 public:
  /// Requires at least one scenario (exactly one of CampaignSpec::scenarios
  /// / CampaignSpec::grid set), a positive probe count, and the retired
  /// keep_samples / retain_shards flags left false. A grid is validated
  /// here, once (loss rates in [0, 1), positive phone counts, non-empty
  /// axes), and its phones prefixes (see shard_hash(std::size_t)) hashed.
  explicit Campaign(CampaignSpec spec);

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }

  /// Number of shards (scenarios.size() or grid->size()).
  [[nodiscard]] std::size_t scenario_count() const { return shard_count_; }

  /// The scenario shard `index` runs, filled into `out` in place
  /// (capacity-reusing; the grid path builds it as ScenarioGrid::at_into
  /// does, without re-validating the grid the constructor validated; the
  /// materialized path copy-assigns). Seed not yet assigned — the shard
  /// run does that.
  void scenario_into(std::size_t index, ScenarioSpec& out) const;

  /// spec().shard_hash(scenario `index` runs), bit for bit, without
  /// building that scenario: a grid shard mixes its scalar fields onto its
  /// (phone count, profile, radio, workload) tuple's phones prefix, which
  /// the constructor hashed once per tuple. O(1) per grid shard, and
  /// thread-safe. Contract violation when `index` is out of range.
  [[nodiscard]] std::uint64_t shard_hash(std::size_t index) const;

  /// The deterministic seed shard `shard_index` runs its scenario with:
  /// Rng(campaign_seed).fork(shard_index). Depends only on the arguments,
  /// never on thread scheduling.
  [[nodiscard]] static std::uint64_t shard_seed(std::uint64_t campaign_seed,
                                                std::size_t shard_index);

  /// Runs every scenario across `workers` threads (0 = hardware
  /// concurrency) and folds the results. Deterministic for any worker
  /// count; a shard's failure (contract violation, deadlock guard) is
  /// rethrown after the pool joins, lowest shard index first.
  ///
  /// With CampaignSpec::checkpoint_path set, shards already recorded there
  /// are restored instead of re-executed (their seed and spec hash are
  /// validated, so a checkpoint from a different campaign is a contract
  /// violation) and newly completed shards are appended — the merged
  /// workload digests of a killed-and-resumed sweep are bit-identical to an
  /// uninterrupted run's. With CampaignSpec::max_shards set, at most that
  /// many pending shards execute (the rest stay incomplete).
  [[nodiscard]] CampaignReport run(std::size_t workers = 0);

  /// Runs one shard on a reusable per-worker context and returns the
  /// record a checkpointed campaign would have appended — summary counters,
  /// this spec's shard_hash() and the per-workload digests. The context's
  /// simulator, testbed node graph, tools and sink scratch are reset into
  /// this scenario instead of reconstructed, with byte-identical results
  /// either way (docs/campaigns.md). The fabric worker entry: the caller
  /// owns merge and persistence, and render_checkpoint_record() turns the
  /// record into the ckpt2 wire line a coordinator folds.
  [[nodiscard]] report::ShardCheckpoint run_shard_record(
      std::size_t scenario_index, ShardContext& context) const;

 private:
  /// `run_sequence` is the shard's dense position in this invocation's
  /// pending order (report::ShardInfo::run_sequence); `stage` (optional)
  /// accumulates the shard's build/simulate/sink wall seconds. The record's
  /// spec hash is computed only when `hash` is set or `checkpoint` is
  /// attached; the record is appended to `checkpoint` after the user sinks'
  /// shard_finished.
  [[nodiscard]] report::ShardCheckpoint run_shard(
      std::size_t scenario_index, std::size_t run_sequence,
      report::CheckpointWriter* checkpoint, bool hash, StageSeconds* stage,
      ShardContext& context) const;

  CampaignSpec spec_;
  std::size_t shard_count_;
  /// Grid only: the FNV-1a state after the probe schedule and the phone
  /// list, one per (phone count, profile, radio, workload) tuple, in
  /// expand()'s nesting order — at most one per shard.
  std::vector<std::uint64_t> phones_prefixes_;
};

}  // namespace acute::testbed
