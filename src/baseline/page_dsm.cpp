#include "baseline/page_dsm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/timer.hpp"

namespace hdsm::base {

using obs::ScopedTimer;

PageDsmNode::PageDsmNode(std::size_t image_size, PageDsmOptions opts)
    : image_size_(image_size), opts_(opts), region_(image_size) {
  std::memset(region_.data(), 0, region_.length());
}

std::vector<PageUpdate> PageDsmNode::collect_updates() {
  const std::uint64_t t0 = ScopedTimer::now_ns();
  const std::size_t ps = mem::Region::host_page_size();
  std::vector<PageUpdate> out;

  region_.collect([&](std::size_t page, const std::byte* twin) {
    const std::size_t base = page * ps;
    if (base >= image_size_) return;
    const std::size_t len = std::min(ps, image_size_ - base);
    ++stats_.dirty_pages;

    std::vector<mem::ByteRange> ranges;
    mem::diff_bytes(region_.data() + base, twin, len, base, ranges);
    const std::size_t changed = mem::total_bytes(ranges);
    if (static_cast<double>(changed) >
        opts_.whole_page_threshold * static_cast<double>(len)) {
      PageUpdate u;
      u.offset = base;
      u.whole_page = true;
      u.data.assign(region_.data() + base, region_.data() + base + len);
      stats_.bytes_sent += u.data.size();
      ++stats_.whole_pages;
      ++stats_.updates;
      out.push_back(std::move(u));
      return;
    }
    for (const mem::ByteRange& r : ranges) {
      PageUpdate u;
      u.offset = r.begin;
      u.data.assign(region_.data() + r.begin, region_.data() + r.end);
      stats_.bytes_sent += u.data.size();
      ++stats_.updates;
      out.push_back(std::move(u));
    }
  });
  const std::uint64_t dur = ScopedTimer::now_ns() - t0;
  stats_.diff_ns += dur;
  if (obs_ != nullptr) {
    obs_->record_phase(obs::SpanKind::Diff, t0, dur, out.size());
  }
  return out;
}

void PageDsmNode::apply_updates(const std::vector<PageUpdate>& updates) {
  const std::uint64_t t0 = ScopedTimer::now_ns();
  for (const PageUpdate& u : updates) {
    if (u.offset + u.data.size() > image_size_) {
      throw std::out_of_range("PageDsmNode::apply_updates");
    }
    region_.apply_update(u.offset, u.data.data(), u.data.size());
  }
  const std::uint64_t dur = ScopedTimer::now_ns() - t0;
  stats_.apply_ns += dur;
  if (obs_ != nullptr) {
    obs_->record_phase(obs::SpanKind::Unpack, t0, dur, updates.size());
  }
}

}  // namespace hdsm::base
