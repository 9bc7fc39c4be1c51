/**
 * @file
 * Query-trace persistence: record generated traces and replay them,
 * so an experiment's exact query stream can be archived, shared, and
 * re-served (the simulator and the real engine both consume traces).
 *
 * Format: one header line "deeprecsys-trace v2 <count>", then one
 * "id arrival_seconds size model class" line per query. Version 1
 * files ("id arrival_seconds size") still load, as model 0, class 0.
 */

#ifndef DRS_LOADGEN_TRACE_IO_HH
#define DRS_LOADGEN_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "loadgen/query.hh"

namespace deeprecsys {

/** Write a trace to a stream. */
void writeTrace(std::ostream& os, const QueryTrace& trace);

/** Write a trace to a file; fatal on I/O failure. */
void saveTrace(const std::string& path, const QueryTrace& trace);

/**
 * Read a trace from a stream; fatal on malformed input (user error):
 * a bad header, a missing line, a field that is not a number in its
 * type's range (model and class are 16-bit), a zero size, a negative
 * arrival or arrivals out of order. The header's count does not size
 * an allocation before the lines arrive.
 */
QueryTrace readTrace(std::istream& is);

/** Read a trace from a file; fatal on I/O failure. */
QueryTrace loadTrace(const std::string& path);

} // namespace deeprecsys

#endif // DRS_LOADGEN_TRACE_IO_HH
