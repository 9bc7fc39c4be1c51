/**
 * @file
 * Unit tests for the text-table printer.
 */

#include <gtest/gtest.h>
#include <sstream>

#include "base/table.hh"

namespace deeprecsys {
namespace {

TEST(TextTable, PrintsHeadersAndRows)
{
    TextTable t({"model", "qps"});
    t.addRow({"NCF", "123"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("model"), std::string::npos);
    EXPECT_NE(out.find("NCF"), std::string::npos);
    EXPECT_NE(out.find("123"), std::string::npos);
}

TEST(TextTable, ShortRowsArePadded)
{
    TextTable t({"a", "b"});
    t.addRow({"only"});
    std::ostringstream oss;
    t.printJson(oss);
    EXPECT_EQ(oss.str(), "[\n  {\"a\": \"only\", \"b\": \"\"}\n]\n");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(static_cast<int64_t>(42)), "42");
}

TEST(TextTable, RowCount)
{
    TextTable t({"x"});
    EXPECT_EQ(t.numRows(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(JsonEscaping, EscapesEveryJsonMetacharacter)
{
    EXPECT_EQ(jsonEscaped("plain"), "plain");
    EXPECT_EQ(jsonEscaped("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscaped("line1\nline2"), "line1\\nline2");
    EXPECT_EQ(jsonEscaped("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscaped("\r\b\f"), "\\r\\b\\f");
    // Other control characters take the \u form.
    EXPECT_EQ(jsonEscaped(std::string("\x01")), "\\u0001");
    EXPECT_EQ(jsonEscaped(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscaping, PrintJsonEmitsParseableStrings)
{
    TextTable t({"name \"quoted\"", "back\\slash"});
    t.addRow({"he said \"q\"", "a\tb\nc"});
    std::ostringstream oss;
    t.printJson(oss);
    const std::string out = oss.str();
    // The raw metacharacters must not survive unescaped: every quote
    // inside a string is preceded by a backslash, and no literal
    // control characters appear.
    EXPECT_NE(out.find("he said \\\"q\\\""), std::string::npos);
    EXPECT_NE(out.find("a\\tb\\nc"), std::string::npos);
    EXPECT_NE(out.find("back\\\\slash"), std::string::npos);
    for (char c : out)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "unescaped control character in JSON output";
}

TEST(Banner, ContainsTitle)
{
    std::ostringstream oss;
    printBanner(oss, "Figure 11");
    EXPECT_NE(oss.str().find("Figure 11"), std::string::npos);
}

} // namespace
} // namespace deeprecsys
