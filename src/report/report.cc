#include "report/report.hh"

#include "report/record.hh"

namespace specfetch {

JsonlWriter::JsonlWriter(const std::string &path)
    : filePath(path), out(path, std::ios::trunc)
{}

void
JsonlWriter::write(const JsonValue &record)
{
    if (!out)
        return;
    line.clear();
    record.dumpTo(line);
    line.push_back('\n');
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
    out.flush();
    ++records;
}

CsvReportWriter::CsvReportWriter(const std::string &path)
    : filePath(path), out(path, std::ios::trunc), csv(out)
{}

void
CsvReportWriter::write(const JsonValue &record)
{
    if (!out)
        return;
    std::vector<std::pair<std::string, std::string>> flat =
        flattenRecord(record);
    if (columns.empty()) {
        for (const auto &[key, value] : flat)
            columns.push_back(key);
        csv.writeRow(columns);
    }
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const std::string &column : columns) {
        std::string cell;
        for (const auto &[key, value] : flat) {
            if (key == column) {
                cell = value;
                break;
            }
        }
        row.push_back(std::move(cell));
    }
    csv.writeRow(row);
    out.flush();
    ++records;
}

bool
readJsonl(const std::string &path, std::vector<JsonValue> &out,
          std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::string line;
    size_t lineNumber = 0;
    while (std::getline(in, line)) {
        ++lineNumber;
        if (line.empty())
            continue;
        JsonValue record;
        std::string parseError;
        if (!JsonValue::parse(line, record, &parseError)) {
            if (error) {
                *error = path + ":" + std::to_string(lineNumber) + ": " +
                         parseError;
            }
            return false;
        }
        out.push_back(std::move(record));
    }
    return true;
}

} // namespace specfetch
