// One block of relaxed counters over a plain stats struct.
//
// A component that counts events from many threads keeps its stats
// struct S (all uint64_t fields, named once in S::ForEachField) inside a
// RelaxedStats<S> and bumps the fields in place through
// std::atomic_ref: an Add compiles to the same relaxed `lock xadd` a
// std::atomic<uint64_t> member would. No field has a second declaration
// beside the struct, and the snapshot and reset walk ForEachField, so a
// field added to S is counted, reported and reset with no other edit.
//
// Relaxed ordering: each field is exact on its own, but a Load taken
// while writers run may pair values from slightly different moments.
// Snapshots are exact at quiescence.

#ifndef XTC_UTIL_RELAXED_STATS_H_
#define XTC_UTIL_RELAXED_STATS_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace xtc {

template <typename S>
class RelaxedStats {
  static_assert(alignof(uint64_t) >=
                    std::atomic_ref<uint64_t>::required_alignment,
                "stats fields must be usable through atomic_ref");

 public:
  void Add(uint64_t S::*field, uint64_t n = 1) {
    Ref(value_.*field).fetch_add(n, std::memory_order_relaxed);
  }

  /// Adds every field of `from`, pairing fields by their position in
  /// S::ForEachField (many workers' counters summed into one block).
  void Add(const S& from) {
    const std::vector<uint64_t*> into = Fields(value_);
    size_t i = 0;
    S::ForEachField(from, [&](const char*, const char*, uint64_t v) {
      Ref(*into[i++]).fetch_add(v, std::memory_order_relaxed);
    });
  }

  /// Raises a high-water mark to `v` if it is higher.
  void Max(uint64_t S::*field, uint64_t v) {
    std::atomic_ref<uint64_t> ref = Ref(value_.*field);
    uint64_t seen = ref.load(std::memory_order_relaxed);
    while (v > seen &&
           !ref.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  /// A snapshot of every field.
  S Load() const {
    const std::vector<uint64_t*> from = Fields(value_);
    S out;
    size_t i = 0;
    S::ForEachField(out, [&](const char*, const char*, uint64_t& v) {
      v = Ref(*from[i++]).load(std::memory_order_relaxed);
    });
    return out;
  }

  void Reset() {
    S::ForEachField(value_, [](const char*, const char*, uint64_t& v) {
      Ref(v).store(0, std::memory_order_relaxed);
    });
  }

 private:
  static std::atomic_ref<uint64_t> Ref(uint64_t& v) {
    return std::atomic_ref<uint64_t>(v);
  }
  static std::vector<uint64_t*> Fields(S& s) {
    std::vector<uint64_t*> fields;
    S::ForEachField(s, [&](const char*, const char*, uint64_t& v) {
      fields.push_back(&v);
    });
    return fields;
  }

  /// Mutable so const snapshots can read through atomic_ref, which needs
  /// a non-const referent.
  mutable S value_{};
};

}  // namespace xtc

#endif  // XTC_UTIL_RELAXED_STATS_H_
