#include "types.hpp"

#include "reflect/dyn_object.hpp"
#include "reflect/primitives.hpp"
#include "reflect/type_builder.hpp"

namespace perfbench {

using pti::reflect::Args;
using pti::reflect::DynObject;

namespace {
bool renamed(const RecordSpec& spec, std::size_t index) {
  return spec.rename_every != 0 && index % spec.rename_every == spec.rename_every - 1;
}
std::string type_of(std::size_t index, bool flip) {
  const bool is_int = (index % 2 == 0) != flip;
  return std::string(is_int ? pti::reflect::kInt32Type : pti::reflect::kStringType);
}
}  // namespace

std::string field_name(const RecordSpec& spec, std::size_t index) {
  return "f" + std::to_string(index) + (renamed(spec, index) ? "Value" : "");
}

std::shared_ptr<const pti::reflect::Assembly> build_records(
    const std::string& ns, const std::vector<RecordSpec>& specs) {
  auto assembly = std::make_shared<pti::reflect::Assembly>(ns + ".records");
  for (const RecordSpec& spec : specs) {
    pti::reflect::TypeBuilder builder(ns, spec.name);
    const std::size_t fields = spec.width / 2;
    for (std::size_t i = 0; i < fields; ++i) builder.field(field_name(spec, i), type_of(i, false));
    for (std::size_t i = 0; i < spec.width - fields; ++i) {
      const std::size_t f = i % fields;
      const bool flip = spec.broken && i + 1 == spec.width - fields;
      std::string getter = "getF" + std::to_string(f) + (renamed(spec, f) ? "Value" : "");
      builder.method(std::move(getter), type_of(f, flip), {},
                     [field = field_name(spec, f)](DynObject& self, Args) {
                       return self.get(field);
                     });
    }
    assembly->add_type(builder.build());
  }
  return assembly;
}

}  // namespace perfbench
