#include "adapt/tuner.hpp"

#include <algorithm>

namespace hdsm::adapt {
namespace {

int knob_index(std::uint32_t bit) {
  return bit == Decision::kCodec ? 1 : 0;
}

}  // namespace

Tuner::Tuner(const TunerConfig& cfg)
    : cfg_(cfg), probe_(cfg.alpha), cur_(cfg.initial) {
  cur_.changed = 0;
  apply_pins();
}

void Tuner::apply_pins() {
  if (cfg_.pin_merge_slack >= 0)
    cur_.merge_slack = std::min(static_cast<std::size_t>(cfg_.pin_merge_slack),
                                cfg_.max_merge_slack);
  if (cfg_.enable_codec && cfg_.pin_codec >= 0)
    cur_.compress = cfg_.pin_codec != 0;
}

bool Tuner::frozen(std::uint32_t knob_bit) const {
  const std::uint64_t last = last_change_[knob_index(knob_bit)];
  return last != 0 && probe_.episodes() < last + cfg_.dwell;
}

void Tuner::mark_changed(std::uint32_t knob_bit) {
  cur_.changed |= knob_bit;
  last_change_[knob_index(knob_bit)] = probe_.episodes();
  ++switches_;
}

const Decision& Tuner::step(const Signal& s) {
  probe_.observe(s);

  cur_.changed = 0;
  if (probe_.episodes() < cfg_.warmup) return cur_;

  tune_slack();
  tune_codec();
  return cur_;
}

void Tuner::tune_slack() {
  if (cfg_.pin_merge_slack >= 0) return;
  if (frozen(Decision::kSlack)) return;
  if (probe_.per_run_ns() <= 0.0) return;

  const double byte_cost = probe_.pack_ns_per_byte() + cfg_.wire_ns_per_byte;
  if (byte_cost <= 0.0) return;

  // Coalescing two runs across a g-byte gap trades one per-run overhead for
  // g extra payload bytes: worthwhile up to g* = per_run / byte_cost.
  // Quantized to coarse buckets and hard-capped (safety: max_merge_slack).
  const double g_star = probe_.per_run_ns() / byte_cost;
  std::size_t target = 0;
  if (g_star >= 64.0) target = 64;
  else if (g_star >= 32.0) target = 32;
  else if (g_star >= 8.0) target = 8;
  target = std::min(target, cfg_.max_merge_slack);
  if (target != cur_.merge_slack) {
    cur_.merge_slack = target;
    mark_changed(Decision::kSlack);
  }
}

void Tuner::tune_codec() {
  if (!cfg_.enable_codec) return;
  if (cfg_.pin_codec >= 0) return;
  if (frozen(Decision::kCodec)) return;

  // Bounded exploration: the encode cost and compression ratio can only be
  // measured by running the encoder, so once raw bytes are flowing take the
  // codec path for one dwell window to seed the model.  Deterministic —
  // fires exactly once.
  if (!explored_codec_ && !probe_.has_codec_model() &&
      probe_.raw_bytes_per_episode() > 0.0) {
    explored_codec_ = true;
    if (!cur_.compress) {
      cur_.compress = true;
      mark_changed(Decision::kCodec);
    }
    return;
  }
  if (!probe_.has_codec_model()) return;

  const double link = probe_.has_link_model() ? probe_.link_ns_per_byte()
                                              : cfg_.wire_ns_per_byte;
  const double b = probe_.raw_bytes_per_episode();
  if (b <= 0.0 || link <= 0.0) return;

  // Per episode: raw ships b bytes at the link cost; the codec pays encode
  // time on every raw byte and ships ratio*b bytes instead.  The margin is
  // the usual hysteresis band on both edges.
  const double cost_raw = b * link;
  const double cost_codec =
      b * (probe_.encode_ns_per_byte() + probe_.codec_ratio() * link);
  if (!cur_.compress && cost_codec < cost_raw * (1.0 - cfg_.margin)) {
    cur_.compress = true;
    mark_changed(Decision::kCodec);
  } else if (cur_.compress && cost_raw < cost_codec * (1.0 - cfg_.margin)) {
    cur_.compress = false;
    mark_changed(Decision::kCodec);
  }
}

}  // namespace hdsm::adapt
