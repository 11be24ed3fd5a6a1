// HyperLogLog cardinality sketch: memory-bounded distinct counting.
//
// Backs the guessing engine's unique tracking in the 10^8–10^9 guess regime
// (Tables II/III scale), where the exact distinct-guess set would need tens
// of gigabytes. 2^p one-byte registers give a standard error of roughly
// 1.04/sqrt(2^p): the default p=14 is 16 KiB of state for ~0.8% error.
// Small cardinalities (below ~2.5*2^p) fall back to linear counting over
// the zero registers, so estimates are near-exact until well past the
// register count.
//
// Sketches over the same precision merge by register-wise max, which makes
// unique counts composable across sharded or distributed runs, and the
// register array serializes in one block for session save/resume. Hashing
// is util::hash64 (fixed algorithm), so saved sketches are portable across
// platforms and standard libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace passflow::util {

class CardinalitySketch {
 public:
  static constexpr unsigned kMinPrecision = 4;
  static constexpr unsigned kMaxPrecision = 18;

  // precision_bits in [4, 18]; throws std::invalid_argument outside.
  explicit CardinalitySketch(unsigned precision_bits = 14);

  void add(std::string_view item) { add_hash(hash64(item)); }
  void add_hash(std::uint64_t hash);

  // Estimated number of distinct items added so far.
  std::size_t estimate() const;

  // Register-wise max; throws std::invalid_argument on precision mismatch.
  void merge(const CardinalitySketch& other);

  void clear();

  unsigned precision_bits() const { return precision_; }
  std::size_t register_count() const { return registers_.size(); }
  std::size_t memory_bytes() const { return registers_.size(); }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  unsigned precision_;
  std::vector<std::uint8_t> registers_;
};

}  // namespace passflow::util
