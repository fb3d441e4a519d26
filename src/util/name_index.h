// A flat hash index from names to positions in a vector that already owns
// the names.
//
// Setting up a generated 100k-host grid resolves every host, virtual IP,
// node, link and machine name at least once. A node-based
// std::unordered_map<std::string, int> allocates one node per entry and
// copies its key; copying such a map into a platform or destroying it walks
// every node. This index stores only (hash, position) pairs in one
// open-addressing array and asks its owner for the name at a position when
// a hash matches, so no entry allocates, a copy is one vector copy and a
// destructor one free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace mg::util {

class NameIndex {
 public:
  static constexpr std::int32_t kNone = -1;

  /// The position stored under `name`, or kNone. `name_at(pos)` returns
  /// the owner's name at a stored position (anything comparable with a
  /// string_view).
  template <class NameAt>
  std::int32_t find(std::string_view name, const NameAt& name_at) const {
    if (slots_.empty()) return kNone;
    return slots_[probe(name, hashOf(name), name_at)].pos;
  }

  /// Store `pos` under `name` unless the name is already present, and
  /// return the position stored under it afterwards: `pos` when inserted,
  /// the earlier position on a duplicate (the first insert wins). name_at
  /// is called only for positions already stored, so `pos` may be the one
  /// the owner is about to append.
  template <class NameAt>
  std::int32_t insert(std::string_view name, std::int32_t pos, const NameAt& name_at) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::uint32_t h = hashOf(name);
    Slot& s = slots_[probe(name, h, name_at)];
    if (s.pos == kNone) {
      s = Slot{h, pos};
      ++size_;
    }
    return s.pos;
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::int32_t pos = kNone;
  };

  static std::uint32_t hashOf(std::string_view name);

  // The slot holding `name`, or the empty slot that ends its probe run.
  template <class NameAt>
  std::size_t probe(std::string_view name, std::uint32_t h, const NameAt& name_at) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i].pos != kNone && !(slots_[i].hash == h && name_at(slots_[i].pos) == name)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  // Doubles the table (a power of two, at most half full) and re-places
  // every entry by its stored hash; no name is read or rehashed.
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace mg::util
