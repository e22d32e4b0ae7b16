// The one wire codec for EngineOptions, shared by the snapshot format
// (core/snapshot.hpp) and the command-log header (core/command_log.hpp).
//
// Layout: fast_path u8, compile u8, thread_count u32,
// sparse_activation_threshold u64, signal_field u8, then — from the
// container version that introduced it — reorder u8. prefetch_distance is
// not on the wire.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/engine.hpp"

namespace ssau::util {
class BinaryReader;
class BinaryWriter;
}  // namespace ssau::util

namespace ssau::core {

/// Writes `o` in the current layout (reorder byte included).
void write_engine_options(util::BinaryWriter& w, const EngineOptions& o);

/// Reads options written by a container at wire `version`. The reorder byte
/// is present from `reorder_since` on; older payloads read back
/// ReorderMode::kOff — their writers never reordered, and kOff (not the
/// kAuto default) keeps a restored engine from inventing a layout the state
/// arrays don't have. Out-of-range enum bytes raise util::SnapshotError,
/// its message prefixed with `context`.
[[nodiscard]] EngineOptions read_engine_options(util::BinaryReader& r,
                                                std::uint32_t version,
                                                std::uint32_t reorder_since,
                                                std::string_view context);

}  // namespace ssau::core
