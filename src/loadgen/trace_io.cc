#include "trace_io.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "base/logging.hh"

namespace deeprecsys {

namespace {
constexpr const char* traceMagic = "deeprecsys-trace";
constexpr const char* traceVersion = "v2";
constexpr const char* traceVersionV1 = "v1";

/**
 * Queries reserved up front: the header's count is not trusted to
 * size an allocation, so a larger trace grows as its lines are read.
 */
constexpr size_t kReserveCap = size_t{1} << 16;

/** Parse all of @p token as a T in range; an unsigned T takes no sign. */
template <typename T>
bool
parseField(const std::string& token, T& value)
{
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    return ec == std::errc() && ptr == end;
}

/** Parse query @p i's field @p name from @p token; fatal if invalid. */
template <typename T>
void
parseQueryField(const std::string& token, T& value, const char* name,
                size_t i)
{
    if (!parseField(token, value))
        drs_fatal("trace query ", i, " has an invalid or out-of-range ",
                  name, ": ", token);
}

/**
 * Parse query @p i from its line: "id arrival size", then "model
 * class" unless @p v1. Fatal on a wrong field count, a field that is
 * not a number in its type's range, a zero size or a negative or
 * non-finite arrival.
 */
Query
parseQuery(const std::string& line, bool v1, size_t i)
{
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;)
        tokens.push_back(std::move(token));
    const size_t expected = v1 ? 3 : 5;
    if (tokens.size() != expected)
        drs_fatal("trace query ", i, " has ", tokens.size(),
                  " fields, expected ", expected);
    Query q;
    parseQueryField(tokens[0], q.id, "id", i);
    parseQueryField(tokens[1], q.arrivalSeconds, "arrival", i);
    parseQueryField(tokens[2], q.size, "size", i);
    if (!v1) {
        parseQueryField(tokens[3], q.model, "model", i);
        parseQueryField(tokens[4], q.priorityClass, "class", i);
    }
    if (q.size < 1)
        drs_fatal("trace query ", i, " has zero size");
    if (!std::isfinite(q.arrivalSeconds) || q.arrivalSeconds < 0.0)
        drs_fatal("trace query ", i, " has an invalid or out-of-range "
                  "arrival: ", tokens[1]);
    return q;
}
} // namespace

void
writeTrace(std::ostream& os, const QueryTrace& trace)
{
    os << traceMagic << " " << traceVersion << " " << trace.size()
       << "\n";
    os.precision(17);
    for (const Query& q : trace) {
        os << q.id << " " << q.arrivalSeconds << " " << q.size << " "
           << q.model << " " << q.priorityClass << "\n";
    }
}

void
saveTrace(const std::string& path, const QueryTrace& trace)
{
    std::ofstream out(path);
    if (!out)
        drs_fatal("cannot open trace file for writing: ", path);
    writeTrace(out, trace);
    if (!out)
        drs_fatal("error while writing trace file: ", path);
}

QueryTrace
readTrace(std::istream& is)
{
    std::string header;
    if (!std::getline(is, header))
        drs_fatal("trace stream has no header");
    std::istringstream fields(header);
    std::string magic;
    std::string version;
    std::string count_field;
    if (!(fields >> magic >> version >> count_field))
        drs_fatal("trace stream has no header");
    if (magic != traceMagic)
        drs_fatal("not a deeprecsys trace (bad magic: ", magic, ")");
    const bool v1 = version == traceVersionV1;
    if (!v1 && version != traceVersion)
        drs_fatal("unsupported trace version: ", version);
    size_t count = 0;
    if (!parseField(count_field, count))
        drs_fatal("trace header has an invalid query count: ",
                  count_field);

    QueryTrace trace;
    trace.reserve(std::min(count, kReserveCap));
    double prev_arrival = 0.0;
    std::string line;
    for (size_t i = 0; i < count; i++) {
        if (!std::getline(is, line))
            drs_fatal("trace truncated at query ", i, " of ", count);
        const Query q = parseQuery(line, v1, i);
        if (q.arrivalSeconds < prev_arrival)
            drs_fatal("trace arrivals not sorted at query ", i);
        prev_arrival = q.arrivalSeconds;
        trace.push_back(q);
    }
    return trace;
}

QueryTrace
loadTrace(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        drs_fatal("cannot open trace file: ", path);
    return readTrace(in);
}

} // namespace deeprecsys
