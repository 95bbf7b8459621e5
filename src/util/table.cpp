#include "util/table.hpp"

#include <iomanip>
#include <sstream>

namespace dg::util {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::add_rule() { rows_.emplace_back(); }

std::string TextTable::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  }
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << cell;
    }
    os << '\n';
  };
  emit_row(header_);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) {
    if (row.empty()) {
      os << std::string(total, '-') << '\n';
    } else {
      emit_row(row);
    }
  }
  return os.str();
}

std::string fmt_fixed(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string fmt_kilo(std::size_t n) {
  if (n < 1000) return std::to_string(n);
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << static_cast<double>(n) / 1000.0 << "K";
  return os.str();
}

}  // namespace dg::util
