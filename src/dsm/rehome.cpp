#include "dsm/rehome.hpp"

#include <stdexcept>
#include <vector>

#include "convert/converter.hpp"

namespace hdsm::dsm {

std::unique_ptr<ShardedHome> rehome(ShardedHome& old_home,
                                    const plat::PlatformDesc& platform,
                                    ShardedHomeOptions opts) {
  if (!old_home.quiesced()) {
    throw std::logic_error(
        "rehome: home node still has attached remotes or held locks");
  }

  const tags::Layout& old_layout = old_home.space().table().layout();
  auto new_home =
      std::make_unique<ShardedHome>(old_layout.type, platform, opts);
  const tags::Layout& new_layout = new_home->space().table().layout();

  // The authoritative image crosses the heterogeneity boundary exactly
  // like any other migrated state: one CGT-RMR conversion.
  std::vector<std::byte> converted(new_layout.size);
  conv::convert_image(old_home.space().region().data(), old_layout,
                      converted.data(), new_layout);
  new_home->space().region().apply_update(0, converted.data(),
                                          converted.size());

  old_home.stop();
  new_home->start();
  return new_home;
}

}  // namespace hdsm::dsm
