#include "table.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"

namespace deeprecsys {

std::string
jsonEscaped(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
writeTextFile(const std::string& path, const char* what,
              const std::function<void(std::ostream&)>& body)
{
    std::ofstream os(path);
    if (!os) {
        drs_warn("cannot open ", path, " for ", what, " output");
        return false;
    }
    body(os);
    os.flush();
    if (!os.good()) {
        drs_warn("short write of ", what, " to ", path);
        return false;
    }
    return true;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(headers.size());
    rows.push_back(std::move(cells));
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

std::string
TextTable::num(int64_t value)
{
    return std::to_string(value);
}

void
TextTable::print(std::ostream& os) const
{
    // Columns count UTF-8 code points, not bytes ("FC ≈ Embedding").
    auto width = [](const std::string& cell) {
        return static_cast<size_t>(
            std::count_if(cell.begin(), cell.end(), [](char ch) {
                return (static_cast<unsigned char>(ch) & 0xC0) != 0x80;
            }));
    };
    std::vector<size_t> widths(headers.size(), 0);
    for (size_t c = 0; c < headers.size(); c++)
        widths[c] = width(headers[c]);
    for (const auto& row : rows)
        for (size_t c = 0; c < row.size(); c++)
            widths[c] = std::max(widths[c], width(row[c]));

    auto emit_row = [&](const std::vector<std::string>& row) {
        for (size_t c = 0; c < row.size(); c++)
            os << row[c] << std::string(widths[c] + 2 - width(row[c]), ' ');
        os << "\n";
    };

    emit_row(headers);
    size_t rule = 0;
    for (size_t w : widths)
        rule += w + 2;
    os << std::string(rule, '-') << "\n";
    for (const auto& row : rows)
        emit_row(row);
}

void
TextTable::printJson(std::ostream& os) const
{
    auto is_number = [](const std::string& cell) {
        if (cell.empty())
            return false;
        // Strict decimal syntax only: stod also accepts hexfloats and
        // nan/inf, none of which are valid JSON tokens.
        for (char c : cell) {
            if ((c < '0' || c > '9') && c != '.' && c != '+' &&
                c != '-' && c != 'e' && c != 'E')
                return false;
        }
        size_t pos = 0;
        try {
            (void)std::stod(cell, &pos);
        } catch (...) {
            return false;
        }
        return pos == cell.size();
    };
    os << "[\n";
    for (size_t r = 0; r < rows.size(); r++) {
        os << "  {";
        for (size_t c = 0; c < headers.size(); c++) {
            if (c)
                os << ", ";
            os << "\"" << jsonEscaped(headers[c]) << "\": ";
            if (is_number(rows[r][c]))
                os << rows[r][c];
            else
                os << "\"" << jsonEscaped(rows[r][c]) << "\"";
        }
        os << "}" << (r + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

void
printBanner(std::ostream& os, const std::string& title)
{
    os << "\n=== " << title << " ===\n";
}

} // namespace deeprecsys
