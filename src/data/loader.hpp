// Loading real password corpora from disk.
//
// The repo ships no leaked data (its experiments run on the synthetic
// corpus of synthetic_rockyou.hpp instead), but a user who
// legitimately holds a corpus (e.g. their organization's cracked-password
// audit, or the real RockYou list) can reproduce the paper's exact protocol
// with it: one password per line, filtered the way §IV-D describes (length
// bound, representable characters).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "data/alphabet.hpp"

namespace passflow::data {

struct LoadStats {
  std::size_t total_lines = 0;
  std::size_t kept = 0;
  std::size_t too_long = 0;
  std::size_t empty = 0;
  std::size_t out_of_alphabet = 0;
};

struct LoadOptions {
  std::size_t max_length = 10;      // paper bound (§IV-D)
  bool lowercase = false;           // fold to lowercase before filtering
  std::size_t max_entries = 0;      // 0 = unlimited
};

// Reads one password per line; keeps lines that are non-empty, within
// max_length, and fully representable in `alphabet`. CR/LF stripped.
std::vector<std::string> load_password_lines(std::istream& in,
                                             const Alphabet& alphabet,
                                             const LoadOptions& options,
                                             LoadStats* stats = nullptr);

// File-path convenience wrapper; throws std::runtime_error if unreadable.
std::vector<std::string> load_password_file(const std::string& path,
                                            const Alphabet& alphabet,
                                            const LoadOptions& options = {},
                                            LoadStats* stats = nullptr);

}  // namespace passflow::data
