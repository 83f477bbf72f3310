#include "mig/io_state.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "platform/int_codec.hpp"

namespace hdsm::mig {

namespace {

int open_flags(FileMode mode) {
  switch (mode) {
    case FileMode::Read: return O_RDONLY;
    case FileMode::Write: return O_WRONLY | O_CREAT | O_TRUNC;
    case FileMode::ReadWrite: return O_RDWR | O_CREAT;
    case FileMode::Append: return O_WRONLY | O_CREAT | O_APPEND;
  }
  return O_RDONLY;
}

int reopen_flags(FileMode mode) {
  // Restoring must never truncate what the source node already wrote.
  switch (mode) {
    case FileMode::Read: return O_RDONLY;
    case FileMode::Write: return O_WRONLY;
    case FileMode::ReadWrite: return O_RDWR;
    case FileMode::Append: return O_WRONLY | O_APPEND;
  }
  return O_RDONLY;
}

}  // namespace

// ---- files ------------------------------------------------------------------

std::vector<std::byte> FileStateRecord::pack() const {
  std::vector<std::byte> out;
  plat::append_be(out, 4, static_cast<std::uint32_t>(path.size()));
  const std::byte* p = reinterpret_cast<const std::byte*>(path.data());
  out.insert(out.end(), p, p + path.size());
  out.push_back(static_cast<std::byte>(mode));
  plat::append_be(out, 8, offset);
  return out;
}

FileStateRecord FileStateRecord::unpack(const std::byte* data,
                                        std::size_t len) {
  plat::WireReader rd(data, len, "FileStateRecord");
  FileStateRecord r;
  r.path = rd.str(rd.u32());
  const std::uint8_t mode = rd.u8();
  if (mode > static_cast<std::uint8_t>(FileMode::Append)) rd.fail("bad mode");
  r.mode = static_cast<FileMode>(mode);
  r.offset = rd.u64();
  rd.finish();
  return r;
}

MigratableFile::MigratableFile(int fd, std::string path, FileMode mode)
    : fd_(fd), path_(std::move(path)), mode_(mode) {}

MigratableFile MigratableFile::open(std::string path, FileMode mode) {
  const int fd = ::open(path.c_str(), open_flags(mode), 0644);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "MigratableFile::open " + path);
  }
  return MigratableFile(fd, std::move(path), mode);
}

MigratableFile MigratableFile::restore(const FileStateRecord& record) {
  const int fd = ::open(record.path.c_str(), reopen_flags(record.mode), 0644);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(),
                            "MigratableFile::restore " + record.path);
  }
  MigratableFile f(fd, record.path, record.mode);
  if (record.mode != FileMode::Append) {
    f.seek(record.offset);
  }
  return f;
}

MigratableFile::~MigratableFile() {
  if (fd_ >= 0) ::close(fd_);
}

MigratableFile::MigratableFile(MigratableFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      mode_(other.mode_) {}

MigratableFile& MigratableFile::operator=(MigratableFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    mode_ = other.mode_;
  }
  return *this;
}

std::size_t MigratableFile::read(void* buf, std::size_t n) {
  const ssize_t r = ::read(fd_, buf, n);
  if (r < 0) {
    throw std::system_error(errno, std::generic_category(), "read");
  }
  return static_cast<std::size_t>(r);
}

std::vector<std::byte> MigratableFile::read_to_end() {
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    throw std::system_error(errno, std::generic_category(), "fstat");
  }
  const std::uint64_t at = tell();
  const auto size = static_cast<std::uint64_t>(st.st_size);
  std::vector<std::byte> out(size > at ? size - at : 0);
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = read(out.data() + got, out.size() - got);
    if (n == 0) break;  // the file shrank under us
    got += n;
  }
  out.resize(got);
  return out;
}

std::size_t MigratableFile::write(const void* buf, std::size_t n) {
  const ssize_t r = ::write(fd_, buf, n);
  if (r < 0) {
    throw std::system_error(errno, std::generic_category(), "write");
  }
  return static_cast<std::size_t>(r);
}

void MigratableFile::seek(std::uint64_t offset) {
  if (::lseek(fd_, static_cast<off_t>(offset), SEEK_SET) < 0) {
    throw std::system_error(errno, std::generic_category(), "lseek");
  }
}

std::uint64_t MigratableFile::tell() const {
  const off_t pos = ::lseek(fd_, 0, SEEK_CUR);
  if (pos < 0) {
    throw std::system_error(errno, std::generic_category(), "lseek");
  }
  return static_cast<std::uint64_t>(pos);
}

FileStateRecord MigratableFile::capture() const {
  ::fsync(fd_);
  FileStateRecord r;
  r.path = path_;
  r.mode = mode_;
  r.offset = tell();
  return r;
}

}  // namespace hdsm::mig
