#include "util/name_index.h"

#include <functional>

namespace mg::util {

std::uint32_t NameIndex::hashOf(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

void NameIndex::grow() {
  std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.pos == kNone) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].pos != kNone) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace mg::util
