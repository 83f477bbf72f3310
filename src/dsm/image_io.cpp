#include "dsm/image_io.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mig/io_state.hpp"
#include "mig/tagged_convert.hpp"
#include "platform/int_codec.hpp"

namespace hdsm::dsm {

namespace {

constexpr char kMagic[8] = {'H', 'D', 'S', 'M', 'I', 'M', 'G', '1'};

}  // namespace

void save_image(const GlobalSpace& space, const std::string& path) {
  const std::string& tag = space.image_tag_text();
  const auto* magic = reinterpret_cast<const std::byte*>(kMagic);
  std::vector<std::byte> header(magic, magic + sizeof(kMagic));
  plat::append_be(header, 1,
                  static_cast<std::uint8_t>(space.platform().endian));
  plat::append_be(
      header, 1,
      static_cast<std::uint8_t>(space.platform().long_double_format));
  plat::append_be(header, 4, tag.size());
  const auto* tag_bytes = reinterpret_cast<const std::byte*>(tag.data());
  header.insert(header.end(), tag_bytes, tag_bytes + tag.size());
  const std::string tmp = path + ".tmp";
  {
    mig::MigratableFile f =
        mig::MigratableFile::open(tmp, mig::FileMode::Write);
    f.write(header.data(), header.size());
    f.write(space.region().data(), space.table().image_size());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_image: rename failed for " + path);
  }
}

void load_image(GlobalSpace& space, const std::string& path) {
  const std::vector<std::byte> file =
      mig::MigratableFile::open(path, mig::FileMode::Read).read_to_end();
  plat::WireReader r(file, "load_image");
  if (std::memcmp(r.view(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    r.fail("bad magic");
  }
  const std::uint8_t endian = r.u8();
  const std::uint8_t ldf = r.u8();
  if (endian > 1 || ldf > 2) r.fail("bad platform summary");
  tags::Tag tag;
  try {
    tag = tags::Tag::parse(r.str(r.u32()));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_image: bad tag: ") + e.what());
  }
  const std::byte* data = r.view(tag.described_bytes());
  r.finish();

  std::vector<std::byte> converted(space.table().image_size());
  try {
    mig::convert_tagged_image(
        data, tag, static_cast<plat::Endian>(endian),
        static_cast<plat::LongDoubleFormat>(ldf), converted.data(),
        space.table().layout());
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("load_image: ") + e.what());
  }
  space.region().apply_update(0, converted.data(), converted.size());
}

}  // namespace hdsm::dsm
