// Whole-image persistence: save a node's GThV image to a file and load it
// back on any platform — application-level checkpointing of the *shared*
// state (the thread-private side lives in mig::checkpoint_to_file).
//
// File format: magic "HDSMIMG1", endianness + long-double-format summary,
// 4-byte big-endian tag length + the image's (m,n) tag text, then the raw
// image bytes in the saving node's representation, and nothing after them.
// Loading converts with tag-driven CGT-RMR, so a big-endian checkpoint
// restores cleanly on a little-endian node.
#pragma once

#include <string>

#include "dsm/global_space.hpp"

namespace hdsm::dsm {

/// Write `space`'s image to `path` (atomic: temp + rename).
void save_image(const GlobalSpace& space, const std::string& path);

/// Load an image file into `space`, converting from the saved
/// representation (twin-transparent: applied like an incoming update).
/// Throws std::runtime_error on a malformed file or a shape mismatch.
void load_image(GlobalSpace& space, const std::string& path);

}  // namespace hdsm::dsm
