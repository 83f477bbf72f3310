#pragma once
// adapt::Signal — one episode's worth of raw measurements, as seen by the
// data plane.  An "episode" is one synchronization step on one node: a
// collect (diff on the sending side), a pack, a timed payload send, or an
// apply (unpack + convert on the receiving side).  The shell (SyncEngine)
// fills in whichever fields the episode produced and leaves the rest zero;
// the Probe layer knows that a zero denominator means "no sample this
// episode".  Collect and apply episodes carry no field any model reads, but
// they still count toward the warmup and dwell windows.
//
// Everything here is plain data.  No clocks, no allocation, no I/O — the
// same Signal sequence always produces the same Decision sequence
// (see tuner.hpp), which is what makes the engine replayable in tests.

#include <cstdint>

namespace hdsm::adapt {

struct Signal {
  // ---- pack side ----
  std::uint64_t pack_ns = 0;       ///< wall time spent packing the payload
  std::uint64_t runs = 0;          ///< update runs packed this episode
  std::uint64_t bytes_packed = 0;  ///< payload bytes produced
  std::uint64_t encode_ns = 0;     ///< wall time spent in codec encode calls
  std::uint64_t bytes_raw = 0;     ///< raw element bytes this pack episode
                                   ///  (pre-codec; 0 = codec not measured)
  std::uint64_t bytes_coded = 0;   ///< element data bytes actually on the
                                   ///  wire (compressed where it won)
  bool codec_on = false;           ///< was the codec engaged this episode?

  // ---- link (wire) side ----
  std::uint64_t wire_ns = 0;       ///< wall time a payload send blocked for
  std::uint64_t wire_bytes = 0;    ///< frame bytes that send carried

  bool has_wire() const { return wire_bytes != 0 && wire_ns != 0; }
};

}  // namespace hdsm::adapt
