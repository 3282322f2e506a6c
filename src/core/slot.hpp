// Vertex value slots and the combine primitives programs apply with.
//
// Every per-vertex quantity is stored in a 64-bit `Slot`; programs reinterpret
// slots as double / float / u32 via std::bit_cast. Combines (min, max, add)
// are plain read-modify-writes: the executors apply every edge on the
// engine thread in file order (core/program.hpp), so a destination slot is
// only ever written by that one thread. All combines used by GraphSD
// programs are commutative and associative, which is what makes the
// cross-iteration update exact under BSP.
#pragma once

#include <bit>
#include <cstdint>

namespace graphsd::core {

using Slot = std::uint64_t;

inline Slot SlotFromDouble(double v) noexcept { return std::bit_cast<Slot>(v); }
inline double SlotToDouble(Slot s) noexcept { return std::bit_cast<double>(s); }

inline Slot SlotFromU64(std::uint64_t v) noexcept { return v; }
inline std::uint64_t SlotToU64(Slot s) noexcept { return s; }

/// `*slot = min(*slot, value)` for double payloads. Returns true iff the
/// stored value was lowered.
inline bool MinDouble(Slot* slot, double value) noexcept {
  if (!(SlotToDouble(*slot) > value)) return false;
  *slot = SlotFromDouble(value);
  return true;
}

/// `*slot = max(*slot, value)` for double payloads. Returns true iff the
/// stored value rose.
inline bool MaxDouble(Slot* slot, double value) noexcept {
  if (!(SlotToDouble(*slot) < value)) return false;
  *slot = SlotFromDouble(value);
  return true;
}

/// `*slot = min(*slot, value)` for u64 payloads. Returns true iff the stored
/// value was lowered.
inline bool MinU64(Slot* slot, std::uint64_t value) noexcept {
  if (*slot <= value) return false;
  *slot = value;
  return true;
}

/// `*slot += value` for double payloads. Returns the new value.
inline double AddDouble(Slot* slot, double value) noexcept {
  const double updated = SlotToDouble(*slot) + value;
  *slot = SlotFromDouble(updated);
  return updated;
}

}  // namespace graphsd::core
