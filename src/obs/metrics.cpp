#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "platform/int_codec.hpp"

namespace hdsm::obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot

void HistogramSnapshot::merge(const HistogramSnapshot& o) {
  count += o.count;
  sum += o.sum;
  // Merge two ascending sparse bucket lists.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + o.buckets.size());
  std::size_t a = 0, b = 0;
  while (a < buckets.size() || b < o.buckets.size()) {
    if (b >= o.buckets.size() ||
        (a < buckets.size() && buckets[a].first < o.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() || o.buckets[b].first < buckets[a].first) {
      merged.push_back(o.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + o.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

std::uint64_t HistogramSnapshot::quantile(double p) const {
  if (count == 0 || buckets.empty()) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (const auto& [idx, n] : buckets) {
    seen += n;
    if (static_cast<double>(seen) >= target) {
      return Histogram::bucket_lower_bound(idx);
    }
  }
  return Histogram::bucket_lower_bound(buckets.back().first);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

void MetricsSnapshot::merge(const MetricsSnapshot& o) {
  for (const auto& [name, v] : o.counters) counters[name] += v;
  for (const auto& [name, v] : o.gauges) gauges[name] += v;
  for (const auto& [name, h] : o.histograms) histograms[name].merge(h);
}

namespace {

void json_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) os << ',';
    first = false;
    os << '"';
    json_escape(os, name);
    os << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) os << ',';
    first = false;
    os << '"';
    json_escape(os, name);
    os << "\":" << v;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) os << ',';
    first = false;
    os << '"';
    json_escape(os, name);
    os << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"p50\":" << h.quantile(0.5) << ",\"p99\":" << h.quantile(0.99)
       << ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [idx, n] : h.buckets) {
      if (!bfirst) os << ',';
      bfirst = false;
      os << "[" << Histogram::bucket_lower_bound(idx) << "," << n << "]";
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

std::string MetricsSnapshot::to_csv() const {
  std::ostringstream os;
  os << "name,value\n";
  for (const auto& [name, v] : counters) os << name << ',' << v << '\n';
  for (const auto& [name, v] : gauges) os << name << ',' << v << '\n';
  for (const auto& [name, h] : histograms) {
    os << name << ".count," << h.count << '\n';
    os << name << ".sum," << h.sum << '\n';
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Binary wire form (docs/PROTOCOL.md §2a).  Big-endian like every hdsm
// structure, length-prefixed strings, no padding.
//
//   u32 magic 'O''B''S''2'
//   u32 n_counters   { u16 name_len, bytes, u64 value } * n
//   u32 n_gauges     { u16 name_len, bytes, i64 value } * n
//   u32 n_histograms { u16 name_len, bytes, u64 count, u64 sum,
//                      u32 n_buckets, { u32 idx, u64 n } * n_buckets } * n

namespace {

constexpr std::uint32_t kMagic = 0x4F425332u;  // "OBS2"

void append_name(std::vector<std::byte>& out, const std::string& s) {
  const std::size_t n = std::min<std::size_t>(s.size(), 0xFFFF);
  plat::append_be(out, 2, n);
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), p, p + n);
}

MetricsSnapshot decode(plat::WireReader& r) {
  if (r.u32() != kMagic) r.fail("bad magic");
  MetricsSnapshot out;
  // The smallest entries: a counter or gauge is 10 bytes, a histogram 22,
  // a bucket 12.
  for (std::uint32_t n = r.count(10); n > 0; --n) {
    const std::string name = r.str(r.u16());
    out.counters[name] += r.u64();
  }
  for (std::uint32_t n = r.count(10); n > 0; --n) {
    const std::string name = r.str(r.u16());
    out.gauges[name] = static_cast<std::int64_t>(r.u64());
  }
  for (std::uint32_t n = r.count(22); n > 0; --n) {
    const std::string name = r.str(r.u16());
    HistogramSnapshot h;
    h.count = r.u64();
    h.sum = r.u64();
    const std::uint32_t nb = r.count(12);
    h.buckets.reserve(nb);
    for (std::uint32_t b = 0; b < nb; ++b) {
      const std::uint32_t idx = r.u32();
      if (idx >= Histogram::kBuckets) r.fail("bucket index out of range");
      if (b > 0 && idx <= h.buckets.back().first) r.fail("unsorted buckets");
      h.buckets.emplace_back(idx, r.u64());
    }
    out.histograms[name] = std::move(h);
  }
  r.finish();
  return out;
}

}  // namespace

void MetricsSnapshot::serialize(std::vector<std::byte>& out) const {
  plat::append_be(out, 4, kMagic);
  plat::append_be(out, 4, counters.size());
  for (const auto& [name, v] : counters) {
    append_name(out, name);
    plat::append_be(out, 8, v);
  }
  plat::append_be(out, 4, gauges.size());
  for (const auto& [name, v] : gauges) {
    append_name(out, name);
    plat::append_be(out, 8, static_cast<std::uint64_t>(v));
  }
  plat::append_be(out, 4, histograms.size());
  for (const auto& [name, h] : histograms) {
    append_name(out, name);
    plat::append_be(out, 8, h.count);
    plat::append_be(out, 8, h.sum);
    plat::append_be(out, 4, h.buckets.size());
    for (const auto& [idx, n] : h.buckets) {
      plat::append_be(out, 4, idx);
      plat::append_be(out, 8, n);
    }
  }
}

bool MetricsSnapshot::deserialize(const std::byte* data, std::size_t size,
                                  MetricsSnapshot& out) {
  try {
    plat::WireReader r(data, size, "MetricsSnapshot");
    out = decode(r);
    return true;
  } catch (const std::runtime_error&) {
    out = MetricsSnapshot{};
    return false;
  }
}

// ---------------------------------------------------------------------------
// Registry

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, gv] : gauges_) snap.gauges[name] = gv->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t n = h->bucket(i);
      if (n != 0) hs.buckets.emplace_back(i, n);
    }
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

}  // namespace hdsm::obs
