#include "adapt/tuner.hpp"

namespace hdsm::adapt {

Tuner::Tuner(const TunerConfig& cfg) : cfg_(cfg), probe_(cfg.alpha) {}

void Tuner::set_compress(bool on) {
  cur_.compress = on;
  cur_.changed = true;
  last_change_ = probe_.episodes();
  ++switches_;
}

const Decision& Tuner::step(const Signal& s) {
  probe_.observe(s);

  cur_.changed = false;
  if (probe_.episodes() < cfg_.warmup) return cur_;

  tune_codec();
  return cur_;
}

void Tuner::tune_codec() {
  if (last_change_ != 0 && probe_.episodes() < last_change_ + cfg_.dwell)
    return;  // dwell: frozen since the last change

  // Bounded exploration: the encode cost and compression ratio can only be
  // measured by running the encoder, so once raw bytes are flowing take the
  // codec path for one dwell window to seed the model.  Deterministic —
  // fires exactly once.
  if (!explored_codec_ && !probe_.has_codec_model() &&
      probe_.raw_bytes_per_episode() > 0.0) {
    explored_codec_ = true;
    if (!cur_.compress) set_compress(true);
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
    set_compress(true);
  } else if (cur_.compress && cost_raw < cost_codec * (1.0 - cfg_.margin)) {
    set_compress(false);
  }
}

}  // namespace hdsm::adapt
