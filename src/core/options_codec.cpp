#include "core/options_codec.hpp"

#include <string>

#include "util/binary_io.hpp"

namespace ssau::core {

void write_engine_options(util::BinaryWriter& w, const EngineOptions& o) {
  w.u8(o.fast_path ? 1 : 0);
  w.u8(o.compile ? 1 : 0);
  w.u32(o.thread_count);
  w.u64(o.sparse_activation_threshold);
  w.u8(static_cast<std::uint8_t>(o.signal_field));
  w.u8(static_cast<std::uint8_t>(o.reorder));
}

EngineOptions read_engine_options(util::BinaryReader& r, std::uint32_t version,
                                  std::uint32_t reorder_since,
                                  std::string_view context) {
  const auto fail = [&](const char* what) {
    throw util::SnapshotError(std::string(context) + ": " + what);
  };
  EngineOptions o;
  o.fast_path = r.u8() != 0;
  o.compile = r.u8() != 0;
  o.thread_count = r.u32();
  o.sparse_activation_threshold = r.u64();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(SignalFieldMode::kOff)) {
    fail("bad signal-field mode");
  }
  o.signal_field = static_cast<SignalFieldMode>(mode);
  o.reorder = ReorderMode::kOff;
  if (version >= reorder_since) {
    const std::uint8_t reorder = r.u8();
    if (reorder > static_cast<std::uint8_t>(ReorderMode::kDegree)) {
      fail("bad reorder mode");
    }
    o.reorder = static_cast<ReorderMode>(reorder);
  }
  return o;
}

}  // namespace ssau::core
