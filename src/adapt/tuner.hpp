#pragma once
// adapt::Tuner — the pure decision core of the adaptive policy engine.
//
// Mirrors the CoherenceCore discipline: `step(Signal) -> Decision` is a
// deterministic function of the signal sequence.  No clocks, no threads, no
// randomness — feeding a recorded signal trace back through a fresh Tuner
// reproduces the decision trace bit-for-bit (tested in adapt_test.cpp).
//
// One knob is tuned online: `compress`, the predictive compression of
// update runs (hdsm::codec, docs/COMPRESSION.md).  It engages when encode
// cost + predicted wire cost at the link's measured bandwidth beats raw
// wire cost.  The SyncEngine builds a tuner exactly when SyncOptions::codec
// is CodecMode::Adaptive, so the tuner is the codec's engagement policy
// (docs/ADAPTIVITY.md).
//
// Hysteresis: after the knob changes it is frozen for `dwell` episodes, and
// cost-model comparisons must win by `margin` before a switch fires.
// Together these prevent flapping on an oscillating signal.

#include <cstdint>

#include "adapt/probe.hpp"
#include "adapt/signal.hpp"

namespace hdsm::adapt {

/// The tuner's current answer for its knob.  `changed` says whether the
/// knob moved in the step that produced this decision.
struct Decision {
  bool compress = false;  ///< run the update codec on pack
  bool changed = false;   ///< compress moved in this step

  bool operator==(const Decision& o) const { return compress == o.compress; }
};

struct TunerConfig {
  // EWMA smoothing for the probe layer.
  double alpha = 0.25;
  // Episodes the knob stays frozen after it changes.
  std::uint32_t dwell = 4;
  // Fractional cost advantage required before switching the knob.
  double margin = 0.20;
  // Episodes before the tuner may change anything at all.
  std::uint32_t warmup = 4;

  // Fallback cost of moving one payload byte across the wire, used until a
  // measured Signal::wire_ns/wire_bytes sample seeds the per-link model.
  double wire_ns_per_byte = 0.5;

  // pin_conv_threads names no knob: the data plane has one lane, so the
  // SyncEngine accepts only -1 through 1 here and throws for more.  (The
  // codec is pinned by CodecMode::Off / Forced, which build no tuner.)
  int pin_conv_threads = -1;
};

class Tuner {
 public:
  explicit Tuner(const TunerConfig& cfg);

  /// Fold one episode's measurements in and return the (possibly updated)
  /// decision.  `decision().changed` reports whether the knob moved.
  const Decision& step(const Signal& s);

  const Decision& decision() const { return cur_; }
  const Probe& probe() const { return probe_; }
  const TunerConfig& config() const { return cfg_; }
  std::uint64_t episodes() const { return probe_.episodes(); }
  std::uint64_t switches() const { return switches_; }

 private:
  void tune_codec();
  void set_compress(bool on);

  TunerConfig cfg_;
  Probe probe_;
  Decision cur_;
  std::uint64_t switches_ = 0;
  std::uint64_t last_change_ = 0;  ///< episode of the last change (dwell)
  bool explored_codec_ = false;    ///< one codec exploration episode fired
};

}  // namespace hdsm::adapt
