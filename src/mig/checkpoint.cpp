#include "mig/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "mig/io_state.hpp"
#include "platform/int_codec.hpp"

namespace hdsm::mig {

namespace {

constexpr char kMagic[8] = {'H', 'D', 'S', 'M', 'C', 'K', 'P', '1'};

}  // namespace

void checkpoint_to_file(const ThreadState& state,
                        const plat::PlatformDesc& platform,
                        const std::string& path) {
  const std::vector<std::byte> payload = pack_state(state);
  const std::string tmp = path + ".tmp";
  {
    MigratableFile f = MigratableFile::open(tmp, FileMode::Write);
    f.write(kMagic, sizeof(kMagic));
    const std::uint8_t header[2] = {
        static_cast<std::uint8_t>(platform.endian),
        static_cast<std::uint8_t>(platform.long_double_format)};
    f.write(header, sizeof(header));
    f.write(payload.data(), payload.size());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint_to_file: rename failed for " + path);
  }
}

ThreadState restore_from_file(const std::string& path,
                              const StateSchema& schema,
                              const plat::PlatformDesc& target) {
  const std::vector<std::byte> file =
      MigratableFile::open(path, FileMode::Read).read_to_end();
  plat::WireReader r(file, "restore_from_file");
  if (std::memcmp(r.view(sizeof(kMagic)), kMagic, sizeof(kMagic)) != 0) {
    r.fail("bad checkpoint magic");
  }
  const std::uint8_t endian = r.u8();
  const std::uint8_t ldf = r.u8();
  if (endian > 1 || ldf > 2) r.fail("bad checkpoint header");
  msg::PlatformSummary sender;
  sender.endian = static_cast<plat::Endian>(endian);
  sender.long_double_format = static_cast<plat::LongDoubleFormat>(ldf);
  const std::size_t n = r.remaining();
  return unpack_state({r.view(n), n}, schema, target, sender);
}

}  // namespace hdsm::mig
