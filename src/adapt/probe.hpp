#pragma once
// adapt::Probe — per-episode EWMA cost models over the raw Signal stream.
//
// The probe turns noisy per-episode measurements into a small set of slowly
// moving cost estimates the Tuner's decision rules can consume:
//
//   per_run_ns          fixed overhead of one update run (tag + header)
//   pack_ns_per_byte    cost of packing one payload byte
//   encode_ns_per_byte  codec encode cost per raw element byte
//   codec_ratio         wire data bytes / raw data bytes with codec engaged
//   link_ns_per_byte    measured wire cost per frame byte on this link
//   raw_bytes_per_episode  mean raw element bytes per pack episode
//
// All models are deterministic functions of the Signal sequence (fixed
// alpha, no clocks, no randomness) so a recorded signal trace replays to
// the identical model state.

#include <cstdint>

#include "adapt/signal.hpp"

namespace hdsm::adapt {

/// One exponentially-weighted moving average.  `update` folds a new sample
/// in with weight `alpha`; the first sample initializes the estimate.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.25) : alpha_(alpha) {}

  void update(double sample) {
    if (!seeded_) {
      value_ = sample;
      seeded_ = true;
    } else {
      value_ += alpha_ * (sample - value_);
    }
    ++samples_;
  }

  double value() const { return value_; }
  bool seeded() const { return seeded_; }
  std::uint64_t samples() const { return samples_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
  std::uint64_t samples_ = 0;
};

class Probe {
 public:
  /// Minimum runs in a pack episode before it informs the per-run model
  /// (fewer and the payload's fixed overhead masquerades as per-run cost).
  static constexpr std::uint64_t kMinRunsForPerRunModel = 8;

  explicit Probe(double alpha = 0.25);

  /// Fold one episode's measurements into the models.  Fields with a zero
  /// denominator contribute nothing (a wire-only episode does not disturb
  /// the pack models, and vice versa).
  void observe(const Signal& s);

  // Cost model accessors (0.0 until the first relevant sample arrives).
  double per_run_ns() const { return per_run_ns_.value(); }
  double pack_ns_per_byte() const { return pack_cost_.value(); }
  double encode_ns_per_byte() const { return encode_cost_.value(); }
  double codec_ratio() const { return codec_ratio_.value(); }
  double link_ns_per_byte() const { return link_cost_.value(); }
  double raw_bytes_per_episode() const {
    return raw_bytes_per_episode_.value();
  }

  bool has_codec_model() const {
    return encode_cost_.seeded() && codec_ratio_.seeded();
  }
  bool has_link_model() const { return link_cost_.seeded(); }

  /// Episodes observed so far (every kind counts, including the collect
  /// and apply episodes that carry no measurement).
  std::uint64_t episodes() const { return episodes_; }

 private:
  Ewma per_run_ns_;
  Ewma pack_cost_;
  Ewma encode_cost_;
  Ewma codec_ratio_;
  Ewma link_cost_;
  Ewma raw_bytes_per_episode_;
  std::uint64_t episodes_ = 0;
};

}  // namespace hdsm::adapt
