#pragma once
// adapt::Tuner — the pure decision core of the adaptive policy engine.
//
// Mirrors the CoherenceCore discipline: `step(Signal) -> Decision` is a
// deterministic function of the signal sequence.  No clocks, no threads, no
// randomness — feeding a recorded signal trace back through a fresh Tuner
// reproduces the decision trace bit-for-bit (tested in adapt_test.cpp).
//
// Two knobs are tuned online, each individually pinnable for A/B runs:
//
//   1. merge_slack     coalesce update runs of a row across unchanged
//                      elements when per-run overhead dominates per-byte
//                      cost (bounded by max_merge_slack;
//                      see docs/ADAPTIVITY.md for the ownership-granularity
//                      safety argument).
//   2. compress        predictive compression of update runs (hdsm::codec,
//                      docs/COMPRESSION.md): engage when encode cost +
//                      predicted wire cost at the link's measured bandwidth
//                      beats raw wire cost.  Gated by
//                      TunerConfig::enable_codec so sessions that predate
//                      the knob see identical decisions.
//
// Hysteresis: after any knob changes, that knob is frozen for `dwell`
// episodes, and cost-model comparisons must win by `margin` before a switch
// fires.  Together these prevent flapping on an oscillating signal.

#include <cstddef>
#include <cstdint>

#include "adapt/probe.hpp"
#include "adapt/signal.hpp"

namespace hdsm::adapt {

/// The tuner's current answer for every knob it owns.  `changed` carries
/// which knobs moved in the step that produced this decision.
struct Decision {
  enum Changed : std::uint32_t {
    kSlack = 1u << 0,
    kCodec = 1u << 1,
  };

  std::size_t merge_slack = 0;        ///< bytes of gap to coalesce across
  bool compress = false;              ///< run the update codec on pack
  std::uint32_t changed = 0;          ///< Changed bits for this step

  bool operator==(const Decision& o) const {
    return merge_slack == o.merge_slack && compress == o.compress;
  }
};

struct TunerConfig {
  // EWMA smoothing for the probe layer.
  double alpha = 0.25;
  // Episodes a knob stays frozen after it changes.
  std::uint32_t dwell = 4;
  // Fractional cost advantage required before switching a modeled knob.
  double margin = 0.20;
  // Episodes before the tuner may change anything at all.
  std::uint32_t warmup = 4;

  // Hard cap on adaptive coalescing: slack beyond the minimum ownership
  // granularity of concurrently-written pages would over-ship stale bytes
  // (see docs/ADAPTIVITY.md); one cache line is safe for our workloads.
  std::size_t max_merge_slack = 64;
  // Modeled cost of moving one extra payload byte across the wire, added to
  // the measured pack cost when weighing slack.  Also the codec knob's
  // fallback link cost until a measured Signal::wire_ns/wire_bytes sample
  // seeds the per-link model.
  double wire_ns_per_byte = 0.5;
  // The codec knob exists only when the shell opts in (SyncOptions::codec
  // == Adaptive): off, tune_codec never runs and compress never moves.
  bool enable_codec = false;

  // Initial knob values (what adaptive-off behavior would use).
  Decision initial;

  // Pins: a pinned knob keeps its pinned value forever (A/B isolation).
  // -1 = unpinned; for booleans 0/1 = force off/on.
  // pin_conv_threads names no knob: the data plane has one lane, so the
  // SyncEngine accepts only -1 through 1 here and throws for more.
  int pin_conv_threads = -1;
  long pin_merge_slack = -1;
  int pin_codec = -1;
};

class Tuner {
 public:
  explicit Tuner(const TunerConfig& cfg);

  /// Fold one episode's measurements in and return the (possibly updated)
  /// decision.  `decision().changed` reports which knobs moved this step.
  const Decision& step(const Signal& s);

  const Decision& decision() const { return cur_; }
  const Probe& probe() const { return probe_; }
  const TunerConfig& config() const { return cfg_; }
  std::uint64_t episodes() const { return probe_.episodes(); }
  std::uint64_t switches() const { return switches_; }

 private:
  void apply_pins();
  void tune_slack();
  void tune_codec();
  bool frozen(std::uint32_t knob_bit) const;
  void mark_changed(std::uint32_t knob_bit);

  TunerConfig cfg_;
  Probe probe_;
  Decision cur_;
  std::uint64_t switches_ = 0;
  // Episode number at which each knob last changed (for dwell).
  std::uint64_t last_change_[2] = {0, 0};
  bool explored_codec_ = false;  ///< one codec exploration episode fired
};

}  // namespace hdsm::adapt
