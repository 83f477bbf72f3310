// File I/O migration — half of the paper's concluding future work:
// "Additional work, such as supporting file I/O migration and socket
// migration also continues as both will be necessary for a truly portable
// heterogeneous system."
//
// A MigratableFile is a thin RAII wrapper over a file descriptor that can
// capture its logical state (path, mode, byte offset) into a portable
// record and be reopened from it on the destination node (which is
// assumed to reach the same filesystem — a networked FS in the grid
// setting).  The record travels with the thread state.
//
// Sockets need no wrapper here: a remote thread reaches its home through
// one DSM session (docs/PROTOCOL.md §1), which a new incarnation opens
// with a Hello and a redialed connection resumes with one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hdsm::mig {

enum class FileMode : std::uint8_t {
  Read,
  Write,      ///< create/truncate
  ReadWrite,  ///< open existing for update
  Append,
};

/// Portable description of one open file.
struct FileStateRecord {
  std::string path;
  FileMode mode = FileMode::Read;
  std::uint64_t offset = 0;

  std::vector<std::byte> pack() const;
  /// Throws std::runtime_error on a malformed record.
  static FileStateRecord unpack(const std::byte* data, std::size_t len);
  bool operator==(const FileStateRecord&) const = default;
};

/// An open file whose logical state can migrate.
class MigratableFile {
 public:
  static MigratableFile open(std::string path, FileMode mode);
  /// Reopen from a migrated record (seeks to the recorded offset).
  static MigratableFile restore(const FileStateRecord& record);

  ~MigratableFile();
  MigratableFile(MigratableFile&& other) noexcept;
  MigratableFile& operator=(MigratableFile&& other) noexcept;
  MigratableFile(const MigratableFile&) = delete;
  MigratableFile& operator=(const MigratableFile&) = delete;

  std::size_t read(void* buf, std::size_t n);
  /// Everything from the current offset to the end of the file, in one
  /// buffer sized by fstat.
  std::vector<std::byte> read_to_end();
  std::size_t write(const void* buf, std::size_t n);
  void seek(std::uint64_t offset);
  std::uint64_t tell() const;

  /// Flush and snapshot the logical state.
  FileStateRecord capture() const;

  const std::string& path() const noexcept { return path_; }
  FileMode mode() const noexcept { return mode_; }

 private:
  MigratableFile(int fd, std::string path, FileMode mode);

  int fd_ = -1;
  std::string path_;
  FileMode mode_ = FileMode::Read;
};

}  // namespace hdsm::mig
