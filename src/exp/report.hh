/**
 * @file
 * RunResult serialization.
 *
 * CSV and JSON emitters for experiment-grid results. Numbers are
 * formatted with round-trip precision ("%.17g") so two result sets
 * compare byte-identical exactly when the underlying doubles are
 * bit-identical — the property the determinism tests assert across
 * serial and parallel grid executions.
 */

#ifndef SYSSCALE_EXP_REPORT_HH
#define SYSSCALE_EXP_REPORT_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "sim/snapshot.hh"

namespace sysscale {
namespace exp {

/**
 * Round-trip double formatting ("%.17g", sim/snapshot.hh) — the one
 * number format shared by the reporters and the records' Decimal
 * fields, so writer and reader can never drift apart.
 */
using sysscale::formatDouble;

/** JSON string literal for @p s, surrounding quotes included. */
std::string jsonQuote(const std::string &s);

/** One result as a CSV row (no trailing newline, no header). */
std::string csvRow(const RunResult &res);

/** The header matching csvRow(). */
std::string csvHeader();

/**
 * Incremental CSV emitter: the header is written on construction,
 * then one row per append(). writeCsv() is exactly a CsvWriter fed
 * the whole vector, so a streamed file and a batch-written file of
 * the same rows are byte-identical. @p flushEachRow forces a flush
 * after the header and every row — for streaming sinks that must
 * stay tailable mid-campaign; batch emitters keep the stream's own
 * buffering (flushing changes no bytes, only syscall count).
 */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream &os, bool flushEachRow = false);

    void append(const RunResult &res);

    std::size_t rows() const { return rows_; }

  private:
    std::ostream &os_;
    bool flushEachRow_;
    std::size_t rows_ = 0;
};

/** Write header + one row per result. */
void writeCsv(std::ostream &os,
              const std::vector<RunResult> &results);

/** One result as a JSON object. */
std::string jsonObject(const RunResult &res);

/** Write the full result set as a JSON array. */
void writeJson(std::ostream &os,
               const std::vector<RunResult> &results);

} // namespace exp
} // namespace sysscale

#endif // SYSSCALE_EXP_REPORT_HH
