/**
 * @file
 * Plain-text table and CSV emission for benchmark harnesses.
 *
 * Every figure/table reproduction binary prints its series through this
 * helper so outputs are uniformly parseable (aligned table to stdout,
 * optional CSV form for downstream plotting).
 */

#ifndef DRS_BASE_TABLE_HH
#define DRS_BASE_TABLE_HH

#include <functional>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace deeprecsys {

/**
 * Escape a string for embedding inside a JSON string literal: quote,
 * backslash, and all control characters (short escapes for \b \f \n
 * \r \t, \u00XX otherwise). Shared by every JSON emitter in the repo
 * so output stays uniformly parseable.
 */
std::string jsonEscaped(const std::string& s);

/**
 * Write @p body's output to the file @p path, checking the open, the
 * writes and the final flush. On failure, warns naming @p what (such
 * as "trace") and returns false. Every file the benches and the
 * observer write goes through it.
 */
bool writeTextFile(const std::string& path, const char* what,
                   const std::function<void(std::ostream&)>& body);

/** Accumulates rows of strings and prints them column-aligned. */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row of pre-formatted cells; pads/truncates to width. */
    void addRow(std::vector<std::string> cells);

    /** Format a double with the given precision (helper for callers). */
    static std::string num(double value, int precision = 2);

    /** Format an integer. */
    static std::string num(int64_t value);

    /** Print with aligned columns to the stream. */
    void print(std::ostream& os) const;

    /**
     * Print as a JSON array of objects, one per row, keyed by the
     * column headers. Numeric-looking cells are emitted as JSON
     * numbers, everything else as strings — the machine-readable
     * form CI archives for downstream plotting.
     */
    void printJson(std::ostream& os) const;

    /** Number of data rows. */
    size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Print a section banner used between experiment blocks. */
void printBanner(std::ostream& os, const std::string& title);

} // namespace deeprecsys

#endif // DRS_BASE_TABLE_HH
