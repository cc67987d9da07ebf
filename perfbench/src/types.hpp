// Generated record types for the warm_stream and first_contact workloads.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "reflect/assembly.hpp"

namespace perfbench {

/// One class `<ns>.<name>` of `width` members: width/2 fields f0.. (even
/// ones int32, odd ones string) and width/2 getters getF0...
struct RecordSpec {
  std::string name;
  std::size_t width = 8;
  /// Every `rename_every`-th member gets the token "Value" appended
  /// (f3 -> f3Value, getF3 -> getF3Value): still conformant under the
  /// checker's token-subset member-name rule. 0 renames nothing.
  std::size_t rename_every = 0;
  /// Flips the last getter's return type, so the type conforms to no
  /// interest of its name and shape.
  bool broken = false;
};

[[nodiscard]] std::shared_ptr<const pti::reflect::Assembly> build_records(
    const std::string& ns, const std::vector<RecordSpec>& specs);

/// Field name of field `index` under `spec` (accounts for renames).
[[nodiscard]] std::string field_name(const RecordSpec& spec, std::size_t index);

}  // namespace perfbench
