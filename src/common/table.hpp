// Aligned console tables: the bench harnesses print rows shaped like the
// paper's tables/figures, and this keeps them readable in a terminal.
#pragma once

#include <string>
#include <vector>

namespace sel {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders the table with a header separator, columns padded to fit.
  [[nodiscard]] std::string render() const;

  /// Renders to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for harness code).
[[nodiscard]] std::string fmt(double v, int precision = 2);

}  // namespace sel
