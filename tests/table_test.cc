#include <gtest/gtest.h>

#include "src/util/table.h"

namespace longstore {
namespace {

TEST(TableTest, RenderAlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"a-much-longer-name", "22222"});
  const std::string render = t.Render();
  EXPECT_NE(render.find("| name"), std::string::npos);
  EXPECT_NE(render.find("a-much-longer-name"), std::string::npos);
  // Every line has the same width.
  size_t line_len = std::string::npos;
  size_t start = 0;
  while (start < render.size()) {
    const size_t end = render.find('\n', start);
    const size_t len = end - start;
    if (line_len == std::string::npos) {
      line_len = len;
    }
    EXPECT_EQ(len, line_len);
    start = end + 1;
  }
}

TEST(TableTest, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only-one"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.Render().find("only-one"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  Table t({"x", "y"});
  t.AddRow({"has,comma", "has\"quote"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::FmtPercent(0.790, 1), "79.0%");
  EXPECT_EQ(Table::FmtYears(32.04, 1), "32.0 y");
  EXPECT_EQ(Table::Fmt(6128.66, 5), "6128.7");
  EXPECT_EQ(Table::FmtSci(2.38e-6, 2), "2.38e-06");
}

TEST(HeadingTest, ContainsIdAndTitle) {
  const std::string h = Heading("E3", "Scrubbing effect");
  EXPECT_NE(h.find("E3"), std::string::npos);
  EXPECT_NE(h.find("Scrubbing effect"), std::string::npos);
}

}  // namespace
}  // namespace longstore
