// Per-node update machinery shared by the home (master) thread and remote
// threads: the send side of Figure 5 ("compute page diffs -> abstract diffs
// to application level -> compute update tags -> send updates") and the
// receive side ("receive updates / parse tags -> heterogeneous? transform
// data : memcopy data").
//
// The receive side is a two-phase validate-then-apply pipeline: phase 1
// decodes the payload zero-copy, parses tags through a per-(sender, row)
// conversion-plan cache, and validates every block against the index table
// *before any byte lands*; phase 2 executes the planned conversions in
// payload order.  Application is therefore all-or-nothing: a payload with
// one malformed block changes nothing.  Apply never changes page
// protection: every byte lands through TrackedRegion::apply_update's alias
// view, so write tracking stays armed on every path.  Each node diffs and
// converts on its own thread (one lane per node), so Eq. 1's costs are
// that thread's CPU time.
//
// The engine is the node's whole data plane: it is the home's UpdateCodec
// (the CoherenceCore packs and applies through it), it arms and disarms
// write tracking, and it alone decides how an episode's writes are found —
// page mode diffs the tracked region, object mode (SyncOptions::run_source,
// docs/OBJECTS.md) drains the dirty objects — so the home and remote shells
// run only the protocol.
//
// All work is accounted into the Eq.-1 ShareStats buckets of the owning
// node.  A SyncEngine is not internally synchronized: callers serialize
// access exactly as they always have (home: the shell state mutex; remote:
// the single application thread).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adapt/tuner.hpp"
#include "dsm/global_space.hpp"
#include "dsm/stats.hpp"
#include "dsm/trace.hpp"
#include "dsm/update.hpp"
#include "msg/message.hpp"
#include "obs/telemetry.hpp"

namespace hdsm::dsm {

/// Whether pack_payload runs the predictive update codec (hdsm::codec,
/// docs/COMPRESSION.md) over each run's element bytes.
enum class CodecMode {
  Off,       ///< never encode — byte-identical to the pre-codec wire
  Forced,    ///< encode every eligible run (A/B benches, fault suites)
  Adaptive,  ///< tuner's compress knob: engage per link when the EWMA
             ///  cost model says encode + compressed wire beats raw wire
};

/// Update runs produced by the object-granularity path (docs/OBJECTS.md):
/// the element runs covering exactly the dirty objects, plus how many
/// objects those runs cover (the per-node object ShareStats counters).
struct ObjectRuns {
  std::vector<idx::UpdateRun> runs;
  std::uint64_t objects = 0;
};

/// Pseudo-region passed to an object-mode run source when the episode is
/// not scoped to one region (barrier flush, join): "collect everything".
inline constexpr std::uint32_t kAllRegions = 0xffffffffu;

/// Knobs for the data plane (diff/tag/pack/unpack/convert pipeline),
/// exposed for the ablation benches, and the object-mode run source.
struct SyncOptions {
  /// Group the modified elements of a row into constant-stride runs, one
  /// tag each (paper §5: "distill many indexes into a single tag"): a
  /// dense write is one contiguous run and a red/black sweep's every-other
  /// cells one strided run, and no unmodified element is shipped.  Off =
  /// one run per modified element, the paper's uncoalesced index list.
  bool coalesce_runs = true;
  /// Allow the vectorizable bulk byte-swap for same-width cross-endian
  /// runs.  Off = the paper's 2006 element-wise conversion cost profile
  /// (what Figures 10/11 measure); on = this library's default.
  bool bulk_swap_fastpath = true;

  /// Data-plane lanes per node.  Every node diffs and converts on its own
  /// thread, so the only accepted values are 0 and 1 (both sequential);
  /// anything larger makes the SyncEngine constructor throw
  /// std::invalid_argument.  Kept as a field for callers that set it to 1.
  unsigned conv_threads = 1;
  /// Cache tag-parse + conversion-route decisions per (sender platform,
  /// row), so repeated blocks of the same row skip the parse (off = the
  /// 2006 once-per-block behaviour, for the ablation bench).
  bool plan_cache = true;

  // -- Adaptive policy engine (docs/ADAPTIVITY.md) --

  /// No effect.  The tuner's only knob is the codec's, so a tuner exists
  /// exactly when codec == CodecMode::Adaptive.  Kept as a field for
  /// callers that still set it (perfbench's field_slowlink).
  bool adaptive = false;
  /// Tuner configuration when codec == CodecMode::Adaptive: EWMA smoothing,
  /// hysteresis (warmup, dwell, margin) and the fallback link cost.
  /// tuner.pin_conv_threads accepts only -1 (unpinned) through
  /// 1; larger values throw like conv_threads does.
  adapt::TunerConfig tuner;

  // -- Predictive update codec (hdsm::codec, docs/COMPRESSION.md) --

  /// Compression of update-run payloads.  Off is byte-identical on the wire
  /// to builds that predate the codec.  Adaptive builds the tuner, whose
  /// compress decision engages the codec per link.
  CodecMode codec = CodecMode::Off;

  // -- Object-granularity sharing mode (hdsm::obj, docs/OBJECTS.md) --

  /// When set, collect_runs takes an episode's update runs from this source
  /// instead of diffing the tracked region (unlock passes the released
  /// region, barrier and join kAllRegions), and write tracking never arms
  /// (no trap, no page diffs).  Null = page mode.
  std::function<ObjectRuns(std::uint32_t region)> run_source{};
};

class SyncEngine final : public UpdateCodec {
 public:
  // Constructor/destructor out of line: plan-cache member types are
  // defined in the .cpp.  Throws std::invalid_argument when opts asks for
  // more than one data-plane lane (conv_threads or tuner.pin_conv_threads).
  SyncEngine(GlobalSpace& space, const SyncOptions& opts, ShareStats& stats);
  ~SyncEngine() override;

  /// Arm write tracking on this node's region, in page mode only (object
  /// mode finds its writes through run_source).  Idempotent.
  void start_tracking();
  /// Disarm write tracking if it is armed.  Idempotent.
  void stop_tracking();

  /// This episode's writes as update runs — the one "find the writes"
  /// entry.  Page mode walks each page written in the tracking interval
  /// against its twin by the index table's elements (idx::diff_runs),
  /// returns the modified elements as runs under coalesce_runs (t_index),
  /// restarts the tracking interval and ignores `region`.  Object mode
  /// drains run_source(region) and counts the episode's objects
  /// (object_episodes, objects_shipped).
  std::vector<idx::UpdateRun> collect_runs(std::uint32_t region = kAllRegions);

  /// Tag (t_tag) and pack (t_pack) runs directly into one wire payload: a
  /// single allocation and a single copy of the element bytes.  With the
  /// codec off this is byte-identical to the reference
  /// encode_update_blocks() form of the same blocks (the legacy two-copy
  /// pack_runs path was removed once this became the only production
  /// encoder); with the codec engaged, eligible runs are compressed in
  /// place into the same buffer (hdsm::codec, docs/COMPRESSION.md).
  std::vector<std::byte> pack_payload(
      const std::vector<idx::UpdateRun>& runs) override;

  /// Decode a payload (t_unpack), convert every block into this node's
  /// representation (t_conv), and apply it to the image twin-transparently.
  /// Two-phase: every block validates against the index table before any
  /// is applied, so a malformed payload throws with the image untouched.
  /// Returns the runs applied (for pending-set merging at the home node).
  std::vector<idx::UpdateRun> apply_payload(
      const std::vector<std::byte>& payload,
      const msg::PlatformSummary& sender) override;

  /// Runs covering every data row completely (initial full-image sync).
  static std::vector<idx::UpdateRun> full_image_runs(
      const idx::IndexTable& table);

  /// Emit the tuner's decision events (ProbeSampled, StrategySwitched)
  /// into `log` as this `rank`.  Null detaches.
  void set_trace(TraceLog* log, std::uint32_t rank) noexcept {
    trace_ = log;
    trace_rank_ = rank;
  }

  /// Attach telemetry (docs/OBSERVABILITY.md): every Eq.-1 phase the
  /// engine times — the same measurement that feeds ShareStats — is also
  /// recorded as an obs span and phase histogram.  Null (the default)
  /// detaches; the off path is one null check per phase.
  void set_obs(obs::Telemetry* telemetry) noexcept { obs_ = telemetry; }
  obs::Telemetry* obs() const noexcept { return obs_; }

  const SyncOptions& options() const noexcept { return opts_; }
  GlobalSpace& space() noexcept { return space_; }

  /// The live tuner (null unless codec == CodecMode::Adaptive).
  const adapt::Tuner* tuner() const noexcept { return tuner_.get(); }

  /// Feed one timed payload send into the per-link cost model (the codec
  /// knob's measured wire bandwidth).  No-op without a tuner.
  /// Call from the thread that owns this engine, like everything else here.
  void note_wire(std::uint64_t bytes, std::uint64_t ns);

  /// Sends below this size are too latency-dominated to say anything about
  /// bandwidth; callers skip timing them for note_wire.
  static constexpr std::size_t kWireProbeMinBytes = 4096;

  /// Is the codec currently encoding (Forced, or Adaptive with the tuner's
  /// compress decision on)?  For tests and benches.
  bool codec_engaged() const noexcept;

 private:
  struct BlockPlan;
  struct RowPlan;
  struct SenderPlanCache;

  /// Phase-1 output: the planned writes plus the scratch buffers that back
  /// plans decoded from compressed blocks (BlockPlan::src points into a
  /// scratch vector for those; inner buffers never move once created).
  struct ValidatedPayload {
    std::vector<BlockPlan> plans;
    std::vector<std::unique_ptr<std::vector<std::byte>>> scratch;
  };

  /// Phase 1: decode + validate `payload`, resolving each block to a fully
  /// planned write (decompressing compressed blocks into scratch).  Throws
  /// without side effects on any malformed block — including a truncated or
  /// corrupt compressed stream, which therefore rejects the whole payload.
  ValidatedPayload validate_payload(const std::vector<std::byte>& payload,
                                    const msg::PlatformSummary& sender);
  /// Phase 2: execute validated plans in payload order.
  void execute_plans(const std::vector<BlockPlan>& plans,
                         const msg::PlatformSummary& sender);
  /// Feed one episode's measurements to the tuner and count and trace its
  /// decision (no-op without a tuner).
  void sample_episode(const adapt::Signal& s);
  /// Plan cache lookup for `sender` (creates the per-sender table).
  SenderPlanCache& cache_for(const msg::PlatformSummary& sender);
  /// Record a just-finished phase of `dur_ns` into the telemetry (span +
  /// per-phase histogram).  The phase ended "now", so its start is
  /// recovered from the same steady clock the obs::ScopedTimer laps on — the
  /// off path never reads the clock at all.
  void obs_phase(obs::SpanKind kind, std::uint64_t dur_ns,
                 std::uint64_t id = 0) {
    if (obs_ != nullptr) {
      obs_->record_phase(kind, obs::ScopedTimer::now_ns() - dur_ns, dur_ns,
                         id);
    }
  }

  GlobalSpace& space_;
  SyncOptions opts_;
  ShareStats& stats_;
  std::vector<std::unique_ptr<SenderPlanCache>> plan_caches_;
  std::unique_ptr<adapt::Tuner> tuner_;  ///< null unless codec Adaptive
  TraceLog* trace_ = nullptr;            ///< decision-event sink (optional)
  std::uint32_t trace_rank_ = 0;
  obs::Telemetry* obs_ = nullptr;        ///< telemetry sink (optional)
  /// pack_payload's t_tag output, kept across packs so rendering reuses
  /// their capacity: every run's tag back to back, and where each starts.
  std::string tag_arena_;
  std::vector<std::size_t> tag_offs_;
  /// A strided run's elements gathered back to back for the codec.
  std::vector<std::byte> gather_;
};

/// A PlatformDesc carrying only what a wire summary pins down (byte order
/// and long-double format); element sizes always come from tags.
plat::PlatformDesc wire_platform(const msg::PlatformSummary& s);

}  // namespace hdsm::dsm
