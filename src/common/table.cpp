#include "common/table.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace sel {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  SEL_EXPECTS(!header_.empty());
}

void TablePrinter::add_row(std::vector<std::string> row) {
  SEL_EXPECTS(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&widths](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line.push_back('\n');
    return line;
  };
  std::string out = emit_row(header_);
  std::size_t rule = 0;
  for (const auto w : widths) rule += w + 2;
  out.append(rule > 2 ? rule - 2 : rule, '-');
  out.push_back('\n');
  for (const auto& row : rows_) out += emit_row(row);
  return out;
}

void TablePrinter::print() const { std::fputs(render().c_str(), stdout); }

}  // namespace sel
