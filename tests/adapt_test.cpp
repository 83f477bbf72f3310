// Deterministic pure-core tests for the adaptive policy engine: EWMA/probe
// math, warmup, pins, hysteresis (no flapping on an oscillating signal),
// the slack/codec decision rules, and seeded replay (the same signal
// trace always reproduces the same decision trace).  No I/O, no
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

/// Pack episode whose per-run overhead dwarfs its byte cost (5000 ns per
/// run vs 50 ns/B): the slack rule wants the full max_merge_slack.
adapt::Signal costly_runs_signal() {
  adapt::Signal s;
  s.pack_ns = 100000;
  s.runs = 10;
  s.bytes_packed = 1000;
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

  // Pack-only episode: link model untouched.
  adapt::Signal pack;
  pack.pack_ns = 1000;
  pack.runs = 10;
  pack.bytes_packed = 1000;
  p.observe(pack);
  const double per_run = p.per_run_ns();
  const double per_byte = p.pack_ns_per_byte();
  EXPECT_GT(per_run, 0.0);
  EXPECT_GT(per_byte, 0.0);
  EXPECT_FALSE(p.has_link_model());

  // Wire-only episode: link model seeds, pack models unchanged.
  adapt::Signal wire;
  wire.wire_bytes = 100;
  wire.wire_ns = 500;
  p.observe(wire);
  EXPECT_TRUE(p.has_link_model());
  EXPECT_DOUBLE_EQ(p.link_ns_per_byte(), 5.0);
  EXPECT_DOUBLE_EQ(p.per_run_ns(), per_run);
  EXPECT_DOUBLE_EQ(p.pack_ns_per_byte(), per_byte);
  EXPECT_EQ(p.episodes(), 2u);

  // An episode with no measurement (a collect or an apply) counts, and
  // moves nothing.
  p.observe(adapt::Signal{});
  EXPECT_EQ(p.episodes(), 3u);
  EXPECT_DOUBLE_EQ(p.per_run_ns(), per_run);
  EXPECT_DOUBLE_EQ(p.pack_ns_per_byte(), per_byte);
  EXPECT_DOUBLE_EQ(p.link_ns_per_byte(), 5.0);
}

TEST(Tuner, WarmupFreezesAllDecisions) {
  adapt::TunerConfig cfg;
  cfg.warmup = 5;
  cfg.dwell = 1;
  adapt::Tuner t(cfg);
  for (int i = 0; i < 4; ++i) {
    const adapt::Decision& d = t.step(costly_runs_signal());
    EXPECT_EQ(d.changed, 0u) << "episode " << i;
    EXPECT_EQ(d.merge_slack, 0u);
  }
  // Episode 5 reaches warmup; the per-run model has wanted slack all along.
  const adapt::Decision& d = t.step(costly_runs_signal());
  EXPECT_EQ(d.merge_slack, cfg.max_merge_slack);
  EXPECT_TRUE(d.changed & adapt::Decision::kSlack);
}

TEST(Tuner, PinnedKnobsNeverMove) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  cfg.pin_merge_slack = 0;
  cfg.pin_codec = 0;
  adapt::Tuner t(cfg);
  // Each episode would move every unpinned knob: costly runs (slack) and
  // raw bytes with no codec model yet (codec exploration).
  adapt::Signal s = costly_runs_signal();
  s.bytes_raw = 100000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d = t.step(s);
    EXPECT_EQ(d.merge_slack, 0u);
    EXPECT_FALSE(d.compress);
    EXPECT_EQ(d.changed, 0u);
  }
  EXPECT_EQ(t.switches(), 0u);
}

TEST(Tuner, CodecKnobGatedByEnableFlag) {
  // Sessions that never opt in (codec != Adaptive) must see the exact
  // pre-codec decision trace: no exploration, no kCodec bit.
  adapt::Tuner t(fast_cfg());
  adapt::Signal s;
  s.pack_ns = 1000;
  s.runs = 4;
  s.bytes_packed = 100000;
  s.bytes_raw = 100000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d = t.step(s);
    EXPECT_FALSE(d.compress);
    EXPECT_EQ(d.changed & adapt::Decision::kCodec, 0u);
  }
}

TEST(Tuner, CodecExploresOnceThenFollowsTheCostModel) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  adapt::Tuner t(cfg);

  // Raw pack episodes: the encode cost and ratio can only be measured by
  // running the encoder, so the tuner flips the knob on once to explore.
  adapt::Signal raw;
  raw.pack_ns = 1000;
  raw.runs = 4;
  raw.bytes_packed = 100000;
  raw.bytes_raw = 100000;
  bool explored = false;
  for (int i = 0; i < 10 && !explored; ++i) explored = t.step(raw).compress;
  EXPECT_TRUE(explored);

  // Codec episodes over a slow measured link (100 ns/B) with cheap encode
  // (1 ns/B) and 4x compression: the codec wins, the knob stays engaged.
  adapt::Signal coded = raw;
  coded.codec_on = true;
  coded.encode_ns = 100000;
  coded.bytes_coded = 25000;
  coded.wire_ns = 2500000;
  coded.wire_bytes = 25000;
  for (int i = 0; i < 20; ++i) t.step(coded);
  EXPECT_TRUE(t.decision().compress);

  // The link speeds up to 0.1 ns/B: shipping raw beats paying the encoder,
  // so the knob releases once the EWMA catches up.
  adapt::Signal fast = coded;
  fast.wire_ns = 2500;
  for (int i = 0; i < 200; ++i) t.step(fast);
  EXPECT_FALSE(t.decision().compress);
}

TEST(Tuner, CodecPinNeverMoves) {
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  cfg.pin_codec = 0;
  adapt::Tuner off(cfg);
  // Even a link slow enough to make compression a runaway win can't move a
  // pinned knob.
  adapt::Signal coded;
  coded.pack_ns = 1000;
  coded.runs = 4;
  coded.bytes_packed = 100000;
  coded.bytes_raw = 100000;
  coded.codec_on = true;
  coded.encode_ns = 100000;
  coded.bytes_coded = 25000;
  coded.wire_ns = 10000000;
  coded.wire_bytes = 25000;
  for (int i = 0; i < 50; ++i) {
    const adapt::Decision& d = off.step(coded);
    EXPECT_FALSE(d.compress);
    EXPECT_EQ(d.changed & adapt::Decision::kCodec, 0u);
  }

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
  adapt::TunerConfig cfg;  // default warmup/dwell/margin
  cfg.enable_codec = true;
  adapt::Tuner t(cfg);
  adapt::Signal s;
  s.pack_ns = 1000;
  s.runs = 4;
  s.bytes_packed = 100000;
  s.bytes_raw = 100000;
  s.codec_on = true;
  s.encode_ns = 100000;
  s.bytes_coded = 25000;
  s.wire_bytes = 24000;
  std::uint64_t codec_changes = 0;
  for (int i = 0; i < 200; ++i) {
    s.wire_ns = i % 2 == 0 ? 20000 : 44000;
    const adapt::Decision& d = t.step(s);
    if (d.changed & adapt::Decision::kCodec) ++codec_changes;
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
          s.pack_ns = 1000 + next() % 50000;
          s.runs = 1 + next() % 64;
          s.bytes_packed = 100 + next() % 100000;
          s.bytes_raw = s.bytes_packed;
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
  adapt::TunerConfig cfg = fast_cfg();
  cfg.enable_codec = true;
  adapt::Tuner a(cfg), b(cfg);
  for (const adapt::Signal& s : trace) {
    const adapt::Decision da = a.step(s);
    const adapt::Decision db = b.step(s);
    ASSERT_TRUE(da == db);
    ASSERT_EQ(da.changed, db.changed);
  }
  EXPECT_EQ(a.switches(), b.switches());
  EXPECT_GT(a.switches(), 0u);  // the trace does move the knobs
}

TEST(Tuner, SlackIsCappedByTheSafetyBound) {
  // Huge per-run overhead relative to byte cost: unbounded coalescing
  // would want ~99 bytes of slack, but the ownership-granularity cap
  // holds it at max_merge_slack.
  adapt::TunerConfig cfg = fast_cfg();
  adapt::Tuner t(cfg);
  adapt::Signal s;
  s.pack_ns = 100000;  // per_run = 5000 ns at 10 runs
  s.runs = 10;
  s.bytes_packed = 1000;  // pack cost = 50 ns/B
  for (int i = 0; i < 10; ++i) t.step(s);
  EXPECT_EQ(t.decision().merge_slack, cfg.max_merge_slack);

  adapt::TunerConfig tight = fast_cfg();
  tight.max_merge_slack = 8;
  adapt::Tuner t2(tight);
  for (int i = 0; i < 10; ++i) t2.step(s);
  EXPECT_EQ(t2.decision().merge_slack, 8u);
}

TEST(Tuner, ChangedBitsClearOnStationaryEpisodes) {
  adapt::Tuner t(fast_cfg());
  const adapt::Signal s = costly_runs_signal();
  t.step(s);
  t.step(s);  // slack moves here or earlier
  // Once converged, further identical episodes change nothing.
  for (int i = 0; i < 10; ++i) {
    const adapt::Decision& d = t.step(s);
    if (i > 2) {
      EXPECT_EQ(d.changed, 0u);
    }
  }
}
