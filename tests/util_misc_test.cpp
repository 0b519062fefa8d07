// Unit tests for CSV emission, ASCII tables, CLI options, and logging.
#include <gtest/gtest.h>

#include <sstream>

#include "util/assert.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/options.h"
#include "util/table.h"

namespace hyco {
namespace {

TEST(Csv, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.row({"1", "2"});
  w.row_values(3, 4.5);
  EXPECT_EQ(os.str(), "a,b\n1,2\n3,4.5\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, JsonEscapesStrings) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape("\r\t\x01"), "\\r\\t\\u0001");
}

TEST(Csv, FieldCountContract) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), ContractViolation);
}

TEST(Csv, DoubleHeaderRejected) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a"});
  EXPECT_THROW(w.header({"b"}), ContractViolation);
}

TEST(Table, AlignsAndCounts) {
  Table t("demo");
  t.set_columns({"name", "value"});
  t.add_row_values("x", 1);
  t.add_row_values("longer-name", 22);
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
}

TEST(Table, RowWidthContract) {
  Table t("demo");
  t.set_columns({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, FixedFormatsDecimals) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(2.0, 0), "2");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=16", "--verbose", "--rate=2.5",
                        "positional"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("n"), 16);
  EXPECT_TRUE(o.get_bool("verbose"));
  EXPECT_DOUBLE_EQ(o.get_double("rate"), 2.5);
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "positional");
}

TEST(Options, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_EQ(o.get_string("missing", "d"), "d");
  EXPECT_FALSE(o.get_bool("missing"));
  EXPECT_FALSE(o.has("missing"));
}

TEST(Log, LevelGating) {
  const LogLevel saved = Log::level();
  Log::set_level(LogLevel::Error);
  EXPECT_FALSE(Log::enabled(LogLevel::Debug));
  EXPECT_TRUE(Log::enabled(LogLevel::Error));
  Log::set_level(saved);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(Log::level_name(LogLevel::Info), "INFO");
  EXPECT_STREQ(Log::level_name(LogLevel::Trace), "TRACE");
}

}  // namespace
}  // namespace hyco
