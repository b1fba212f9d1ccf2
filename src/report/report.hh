/**
 * @file
 * Record sinks for the results-export layer: JSON Lines (one record
 * per line, append-friendly, the `BENCH_*.json` trajectory format) and
 * CSV (flattened dotted columns, header from the first record).
 */

#ifndef SPECFETCH_REPORT_REPORT_HH_
#define SPECFETCH_REPORT_REPORT_HH_

#include <fstream>
#include <string>
#include <vector>

#include "report/json.hh"
#include "util/csv.hh"

namespace specfetch {

/** Appends one compact JSON document per line to a file. */
class JsonlWriter
{
  public:
    /** Opens (truncates) @p path; check ok() before writing. */
    explicit JsonlWriter(const std::string &path);

    bool ok() const { return static_cast<bool>(out); }
    const std::string &path() const { return filePath; }
    size_t recordsWritten() const { return records; }

    /** Serialize @p record onto its own line and flush. */
    void write(const JsonValue &record);

  private:
    std::string filePath;
    std::ofstream out;
    /** Serialization buffer; its capacity survives across records. */
    std::string line;
    size_t records = 0;
};

/**
 * Writes flattened records as CSV. The first record fixes the column
 * set (its dotted flattened keys, in order); later records fill
 * matching columns and leave missing ones empty.
 */
class CsvReportWriter
{
  public:
    explicit CsvReportWriter(const std::string &path);

    bool ok() const { return static_cast<bool>(out); }
    const std::string &path() const { return filePath; }
    size_t recordsWritten() const { return records; }

    void write(const JsonValue &record);

  private:
    std::string filePath;
    std::ofstream out;
    CsvWriter csv;
    std::vector<std::string> columns;
    size_t records = 0;
};

/**
 * Parse a JSONL file back into records. Returns false (and stops) on
 * the first malformed line; @p error then names the line.
 */
bool readJsonl(const std::string &path, std::vector<JsonValue> &out,
               std::string *error = nullptr);

} // namespace specfetch

#endif // SPECFETCH_REPORT_REPORT_HH_
