// Application-level thread state (paper §3.1): "Thread states typically
// consist of the global data segment, stack, heap, and register contents.
// They should be extracted from their original locations and abstracted up
// to the application level."
//
// In MigThread the preprocessor turns every function's locals into a
// structure and the program counter into resumption labels; here a
// ThreadState is a stack of logical frames (function name, label, tagged
// locals image) plus user-level heap objects.  The global segment travels
// separately through the DSD layer.  Pack/unpack ships everything with
// CGT-RMR tags; the receiving skeleton thread reconstructs the state in its
// own representation from the tags alone.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mig/struct_image.hpp"
#include "msg/endpoint.hpp"

namespace hdsm::mig {

/// One logical stack frame.
struct Frame {
  std::string function;   ///< resume-function key, shared program knowledge
  std::uint32_t label = 0;  ///< logical PC: which resumption point
  StructImage locals;
};

/// One user-level heap object (MigThread manages the heap at application
/// level; objects are identified by portable ids, not addresses).
struct HeapObject {
  std::uint64_t id = 0;
  std::string type_name;
  StructImage image;
};

/// Complete migratable state of one thread.
struct ThreadState {
  std::uint32_t rank = 0;
  std::vector<Frame> frames;
  std::vector<HeapObject> heap;

  Frame& top() { return frames.back(); }
  const Frame& top() const { return frames.back(); }
};

/// The type knowledge both sides of a migration share (the same transformed
/// program runs everywhere): locals types per function, heap object types
/// by name.
class StateSchema {
 public:
  void register_frame(std::string function, tags::TypePtr locals);
  void register_heap_type(std::string name, tags::TypePtr type);

  const tags::TypePtr& frame_type(const std::string& function) const;
  const tags::TypePtr& heap_type(const std::string& name) const;

 private:
  std::map<std::string, tags::TypePtr> frames_;
  std::map<std::string, tags::TypePtr> heap_types_;
};

/// Serialize `state` (images stay in their current representation; tags
/// describe them).
std::vector<std::byte> pack_state(const ThreadState& state);

/// Rebuild a state on `target`, converting every image from the sender's
/// representation using only the wire tags + sender byte order (receiver
/// makes right).
ThreadState unpack_state(std::span<const std::byte> payload,
                         const StateSchema& schema,
                         const plat::PlatformDesc& target,
                         const msg::PlatformSummary& sender);

/// Ship a state over `ep` as a MigrateState message and await MigrateAck.
void send_state(msg::Endpoint& ep, const ThreadState& state,
                const plat::PlatformDesc& sender_platform);

/// Receive a MigrateState from `ep`, ack it, and rebuild on `target`.
ThreadState receive_state(msg::Endpoint& ep, const StateSchema& schema,
                          const plat::PlatformDesc& target);

}  // namespace hdsm::mig
