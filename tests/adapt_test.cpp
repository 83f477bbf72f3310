// Deterministic pure-core tests for the adaptive policy engine: EWMA/probe
// math, warmup, pins, hysteresis (no flapping on an oscillating signal),
// the codec decision rule, and seeded replay (the same signal trace always
// reproduces the same decision trace).  No I/O, no
// threads, no clocks — everything here is a function of the inputs.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/probe.hpp"
#include "adapt/signal.hpp"
#include "adapt/tuner.hpp"

namespace adapt = hdsm::adapt;

namespace {

/// Aggressive config so tests don't need long warmup/dwell stretches.
adapt::TunerConfig fast_cfg() {
  adapt::TunerConfig cfg;
  cfg.warmup = 1;
  cfg.dwell = 1;
  return cfg;
}

/// Raw pack episode with no codec model yet: the codec rule wants its one
/// exploration episode as soon as warmup allows.
adapt::Signal raw_signal() {
  adapt::Signal s;
  s.bytes_raw = 100000;
  return s;
}

/// Codec episode over a slow measured link (100 ns/B) with cheap encode
/// (1 ns/B) and 4x compression: the codec wins by far.
adapt::Signal winning_codec_signal() {
  adapt::Signal s = raw_signal();
  s.codec_on = true;
  s.encode_ns = 100000;
  s.bytes_coded = 25000;
  s.wire_ns = 2500000;
  s.wire_bytes = 25000;
  return s;
}

}  // namespace

TEST(Ewma, SeedsOnFirstSampleThenSmooths) {
  adapt::Ewma e(0.25);
  EXPECT_FALSE(e.seeded());
  e.update(100.0);
  EXPECT_TRUE(e.seeded());
  EXPECT_DOUBLE_EQ(e.value(), 100.0);
  e.update(200.0);
  EXPECT_DOUBLE_EQ(e.value(), 125.0);  // 100 + 0.25 * (200 - 100)
  EXPECT_EQ(e.samples(), 2u);
}

TEST(Probe, FieldGroupsFoldIndependently) {
  adapt::Probe p(0.5);

  // Pack-only episode with the codec on: link model untouched.
  adapt::Signal pack;
  pack.bytes_raw = 1000;
  pack.codec_on = true;
  pack.encode_ns = 2000;
  pack.bytes_coded = 250;
  p.observe(pack);
  EXPECT_TRUE(p.has_codec_model());
  EXPECT_DOUBLE_EQ(p.encode_ns_per_byte(), 2.0);
  EXPECT_DOUBLE_EQ(p.codec_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(p.raw_bytes_per_episode(), 1000.0);
  EXPECT_FALSE(p.has_link_model());

  // Wire-only episode: link model seeds, codec models unchanged.
  adapt::Signal wire;
  wire.wire_bytes = 100;
  wire.wire_ns = 500;
  p.observe(wire);
  EXPECT_TRUE(p.has_link_model());
  EXPECT_DOUBLE_EQ(p.link_ns_per_byte(), 5.0);
  EXPECT_DOUBLE_EQ(p.encode_ns_per_byte(), 2.0);
  EXPECT_DOUBLE_EQ(p.codec_ratio(), 0.25);
  EXPECT_EQ(p.episodes(), 2u);

  // A raw episode (codec off) feeds only the raw-bytes mean: it cannot
  // drag the ratio toward 1.
  adapt::Signal raw;
  raw.bytes_raw = 3000;
  p.observe(raw);
  EXPECT_DOUBLE_EQ(p.raw_bytes_per_episode(), 2000.0);
  EXPECT_DOUBLE_EQ(p.codec_ratio(), 0.25);

  // An episode with no measurement (a collect or an apply) counts, and
  // moves nothing.
  p.observe(adapt::Signal{});
  EXPECT_EQ(p.episodes(), 4u);
  EXPECT_DOUBLE_EQ(p.encode_ns_per_byte(), 2.0);
  EXPECT_DOUBLE_EQ(p.raw_bytes_per_episode(), 2000.0);
  EXPECT_DOUBLE_EQ(p.link_ns_per_byte(), 5.0);
}

TEST(Tuner, WarmupFreezesAllDecisions) {
  adapt::TunerConfig cfg;
  cfg.warmup = 5;
  cfg.dwell = 1;
  adapt::Tuner t(cfg);
  for (int i = 0; i < 4; ++i) {
    const adapt::Decision& d = t.step(raw_signal());
    EXPECT_FALSE(d.changed) << "episode " << i;
    EXPECT_FALSE(d.compress);
  }
  // Episode 5 reaches warmup; the codec rule has wanted to explore all along.
  const adapt::Decision& d = t.step(raw_signal());
  EXPECT_TRUE(d.compress);
  EXPECT_TRUE(d.changed);
}

TEST(Tuner, CodecExploresOnceThenFollowsTheCostModel) {
  adapt::Tuner t(fast_cfg());

  // Raw pack episodes: the encode cost and ratio can only be measured by
  // running the encoder, so the tuner flips the knob on once to explore.
  bool explored = false;
  for (int i = 0; i < 10 && !explored; ++i) {
    explored = t.step(raw_signal()).compress;
  }
  EXPECT_TRUE(explored);

  // Codec episodes that win by far: the knob stays engaged.
  const adapt::Signal coded = winning_codec_signal();
  for (int i = 0; i < 20; ++i) t.step(coded);
  EXPECT_TRUE(t.decision().compress);

  // The link speeds up to 0.1 ns/B: shipping raw beats paying the encoder,
  // so the knob releases once the EWMA catches up.
  adapt::Signal fast = coded;
  fast.wire_ns = 2500;
  for (int i = 0; i < 200; ++i) t.step(fast);
  EXPECT_FALSE(t.decision().compress);
}

TEST(Tuner, PinnedKnobNeverMoves) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.pin_codec = 0;
  adapt::Tuner off(cfg);
  // Neither the exploration a raw episode asks for nor a link slow enough
  // to make compression a runaway win can move a pinned knob.
  adapt::Signal coded = winning_codec_signal();
  coded.wire_ns = 10000000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d = off.step(i < 25 ? raw_signal() : coded);
    EXPECT_FALSE(d.compress);
    EXPECT_FALSE(d.changed);
  }
  EXPECT_EQ(off.switches(), 0u);

  cfg.pin_codec = 1;
  adapt::Tuner on(cfg);
  EXPECT_TRUE(on.decision().compress);
}

TEST(Tuner, NoFlappingOnOscillatingSignal) {
  // Codec episodes at 1 ns/B encode and 4x compression over a link whose
  // measured cost alternates 0.83 / 1.83 ns/B.  The link EWMA hovers
  // around 1.33 ns/B, exactly where encode + ratio * link == link, so
  // without hysteresis compress would toggle every dwell window.  The 20%
  // margin puts the engage edge at 1.82 and the release edge at 1.0, and
  // the knob changes at most once.
  adapt::Tuner t(adapt::TunerConfig{});  // default warmup/dwell/margin
  adapt::Signal s = winning_codec_signal();
  s.wire_bytes = 24000;
  std::uint64_t codec_changes = 0;
  for (int i = 0; i < 200; ++i) {
    s.wire_ns = i % 2 == 0 ? 20000 : 44000;
    if (t.step(s).changed) ++codec_changes;
  }
  EXPECT_LE(codec_changes, 1u);
}

TEST(Tuner, SeededReplayReproducesDecisionTrace) {
  // A deterministic LCG drives 300 episodes of mixed collect/pack/apply
  // signals; feeding the identical trace through a fresh tuner must yield
  // the identical decision trace (values and changed bits).
  const auto make_trace = [] {
    std::vector<adapt::Signal> trace;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return (x >> 33);
    };
    for (int i = 0; i < 300; ++i) {
      adapt::Signal s;
      switch (next() % 3) {
        case 0:  // timed payload send
          s.wire_bytes = 4096 + next() % 100000;
          s.wire_ns = 1000 + next() % 400000;
          break;
        case 1:  // pack
          s.bytes_raw = 100 + next() % 100000;
          s.codec_on = next() % 2 == 0;
          s.encode_ns = s.codec_on ? 100 + next() % 200000 : 0;
          s.bytes_coded = s.codec_on ? 1 + next() % s.bytes_raw : s.bytes_raw;
          break;
        default:  // collect or apply: counts, carries no measurement
          break;
      }
      trace.push_back(s);
    }
    return trace;
  };

  const std::vector<adapt::Signal> trace = make_trace();
  adapt::Tuner a(fast_cfg()), b(fast_cfg());
  for (const adapt::Signal& s : trace) {
    const adapt::Decision da = a.step(s);
    const adapt::Decision db = b.step(s);
    ASSERT_TRUE(da == db);
    ASSERT_EQ(da.changed, db.changed);
  }
  EXPECT_EQ(a.switches(), b.switches());
  EXPECT_GT(a.switches(), 0u);  // the trace does move the knob
}

TEST(Tuner, ChangedClearsOnStationaryEpisodes) {
  adapt::Tuner t(fast_cfg());
  const adapt::Signal s = winning_codec_signal();
  // The first episode seeds every model and engages the codec.
  EXPECT_TRUE(t.step(s).changed);
  EXPECT_TRUE(t.decision().compress);
  // Once converged, further identical episodes change nothing.
  for (int i = 0; i < 10; ++i) {
    const adapt::Decision& d = t.step(s);
    EXPECT_FALSE(d.changed) << "episode " << i;
    EXPECT_TRUE(d.compress);
  }
  EXPECT_EQ(t.switches(), 1u);
}
