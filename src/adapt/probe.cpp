#include "adapt/probe.hpp"

namespace hdsm::adapt {

Probe::Probe(double alpha)
    : per_run_ns_(alpha),
      pack_cost_(alpha),
      encode_cost_(alpha),
      codec_ratio_(alpha),
      link_cost_(alpha),
      raw_bytes_per_episode_(alpha) {}

void Probe::observe(const Signal& s) {
  ++episodes_;

  // Field groups are folded in independently: a wire-only episode leaves
  // the pack models untouched and vice versa (the shell samples pack and
  // send at different points).
  if (s.pack_ns != 0 && s.runs != 0) {
    // Split the pack time into a per-byte stream cost and a per-run fixed
    // cost.  With one pooled measurement we attribute proportionally:
    // seed each model with half the budget and let the EWMA pull them
    // apart across episodes with different run/byte mixes.  Payloads with
    // only a handful of runs carry no per-run signal — their cost is
    // per-byte work plus fixed allocation/encode overhead, and crediting
    // half of it to "per run" would inflate the estimate by orders of
    // magnitude (and with it the coalescing appetite).
    const double half = static_cast<double>(s.pack_ns) * 0.5;
    if (s.runs >= kMinRunsForPerRunModel)
      per_run_ns_.update(half / static_cast<double>(s.runs));
    if (s.bytes_packed != 0)
      pack_cost_.update(half / static_cast<double>(s.bytes_packed));
  }

  // Codec cost models (docs/COMPRESSION.md).  The raw-bytes mean feeds the
  // engage/release comparison even while the codec is off; the encode cost
  // and compression ratio only learn from episodes that actually ran the
  // encoder, so an off episode cannot drag the ratio toward 1.
  if (s.bytes_raw != 0) {
    raw_bytes_per_episode_.update(static_cast<double>(s.bytes_raw));
    if (s.codec_on) {
      if (s.encode_ns != 0) {
        encode_cost_.update(static_cast<double>(s.encode_ns) /
                            static_cast<double>(s.bytes_raw));
      }
      if (s.bytes_coded != 0) {
        codec_ratio_.update(static_cast<double>(s.bytes_coded) /
                            static_cast<double>(s.bytes_raw));
      }
    }
  }
  // Per-link wire cost: a payload send timed by the shell (remote side
  // only; the home falls back to the configured wire_ns_per_byte).
  if (s.has_wire()) {
    link_cost_.update(static_cast<double>(s.wire_ns) /
                      static_cast<double>(s.wire_bytes));
  }
}

}  // namespace hdsm::adapt
