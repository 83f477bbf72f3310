// File I/O and socket migration — the paper's concluding future work:
// "Additional work, such as supporting file I/O migration and socket
// migration also continues as both will be necessary for a truly portable
// heterogeneous system."
//
// Files: a MigratableFile is a thin RAII wrapper over a file descriptor
// that can capture its logical state (path, mode, byte offset) into a
// portable record and be reopened from it on the destination node (which
// is assumed to reach the same filesystem — a networked FS in the grid
// setting).  The record travels with the thread state.
//
// Sockets: a connected channel cannot keep its TCP tuple across machines;
// what migrates is the *session* — the coordinates to re-dial plus a
// sequence cursor so the server can discard replayed messages.  The
// MigratableSession wrapper numbers outgoing messages and reconnects from
// a captured record; receivers deduplicate by sequence number.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "msg/endpoint.hpp"
#include "msg/tcp.hpp"

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

/// Portable description of one client session to a message server.
struct SessionRecord {
  std::uint16_t port = 0;       ///< server coordinates (loopback transport)
  std::uint32_t rank = 0;       ///< session identity
  std::uint64_t next_seq = 1;   ///< first unsent sequence number

  std::vector<std::byte> pack() const;
  /// Throws std::runtime_error on a malformed record.
  static SessionRecord unpack(const std::byte* data, std::size_t len);
  bool operator==(const SessionRecord&) const = default;
};

/// Client side of a migratable message session: numbers messages (in
/// Message::sync_id's sibling field `rank` staying the identity, sequence
/// carried in the payload header), captures/redials.
class MigratableSession {
 public:
  /// Dial a fresh session.
  MigratableSession(std::uint16_t port, std::uint32_t rank);
  /// Re-dial from a migrated record (possibly on another node).
  explicit MigratableSession(const SessionRecord& record);

  /// Send one application payload; it is stamped with the next sequence
  /// number so the server can discard duplicates after a migration retry.
  void send(const std::vector<std::byte>& payload);
  /// Receive one payload from the server.
  std::vector<std::byte> receive();

  SessionRecord capture() const;
  void close();

  std::uint32_t rank() const noexcept { return record_.rank; }
  std::uint64_t next_seq() const noexcept { return record_.next_seq; }

 private:
  void dial();

  SessionRecord record_;
  msg::EndpointPtr ep_;
};

/// Server-side deduplication cursor: tracks the highest sequence seen per
/// session rank; accept() returns false for replays.
class SessionDeduper {
 public:
  bool accept(std::uint32_t rank, std::uint64_t seq);
  std::uint64_t last_seen(std::uint32_t rank) const;

 private:
  std::vector<std::pair<std::uint32_t, std::uint64_t>> last_;
};

/// Extract the (rank, seq, payload) of a session message on the server.
struct SessionMessage {
  std::uint32_t rank = 0;
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
};
/// Throws std::runtime_error when the payload lacks its 8-byte sequence.
SessionMessage parse_session_message(const msg::Message& m);

}  // namespace hdsm::mig
