// ASCII table printer used by the benchmark harnesses to reproduce the
// paper's tables with aligned columns, plus a small CSV writer so results can
// be post-processed.
#pragma once

#include <string>
#include <vector>

namespace dg::util {

/// Column-aligned text table. Rows are added as string cells; render() pads
/// every column to its widest cell. A separator row can be inserted with
/// add_rule().
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);
  void add_rule();

  /// Render with 2-space column gaps and a rule under the header.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty vector == rule
};

/// Format a double with `digits` decimal places.
std::string fmt_fixed(double v, int digits);

/// Format like the paper's "23.7K" node counts.
std::string fmt_kilo(std::size_t n);

}  // namespace dg::util
