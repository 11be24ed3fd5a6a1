// CSV and fixed-width table writers.
//
// Every bench binary emits (a) a human-readable table mirroring the paper's
// layout and (b) a machine-readable CSV next to it, so scripts can compare
// runs without parsing the tables.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

namespace passflow::util {

class CsvWriter {
 public:
  // Opens `path` for writing and emits the header row. Throws on failure.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  // Writes one row; cells are quoted if they contain separators.
  void write_row(const std::vector<std::string>& cells);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t columns_;
};

// Formats a number with thousands separators, e.g. 1234567 -> "1,234,567",
// matching the paper's table style.
std::string with_thousands(long long value);

// In-memory fixed-width table for console output.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void add_row(std::vector<std::string> cells);
  // Renders with column-aligned padding and a header separator line.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace passflow::util
