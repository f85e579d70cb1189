// Console table and CSV rendering for the bench harnesses.
//
// Every bench binary prints its experiment as an aligned text table (the
// "paper row vs measured row" format) and can emit the
// same data as CSV for plotting.

#ifndef LONGSTORE_SRC_UTIL_TABLE_H_
#define LONGSTORE_SRC_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace longstore {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds a row; it may have fewer cells than headers (padded with "").
  void AddRow(std::vector<std::string> cells);

  // Convenience cell formatters.
  static std::string Fmt(double v, int precision = 4);
  static std::string FmtPercent(double p, int precision = 1);
  static std::string FmtYears(double years, int precision = 1);
  static std::string FmtSci(double v, int precision = 3);

  // Aligned, boxed text rendering.
  std::string Render() const;

  // RFC-4180-style CSV (quotes cells containing commas/quotes/newlines).
  std::string ToCsv() const;

  size_t row_count() const { return rows_.size(); }
  size_t column_count() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a section heading used by the bench binaries: the experiment id and
// the paper reference it regenerates.
std::string Heading(const std::string& experiment_id, const std::string& title);

}  // namespace longstore

#endif  // LONGSTORE_SRC_UTIL_TABLE_H_
