#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace softres::metrics {

/// Plot-ready exports: the figure benches can drop their sweeps as CSV files
/// (gnuplot/matplotlib friendly) next to the printed tables.

/// Write rows of (x, y1, y2, ...) with a header line.
void write_xy_csv(std::ostream& os, const std::string& x_name,
                  const std::vector<double>& x,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>>& columns);

/// Directory from SOFTRES_CSV_DIR, or empty when export is disabled.
std::string csv_dir_from_env();

/// Open `dir/name` and write via `fn`. Returns false (writing nothing) when
/// dir is empty, true when the file was written; throws std::runtime_error
/// naming the path, and SOFTRES_CSV_DIR when dir came from it, when the file
/// cannot be opened.
bool export_csv(const std::string& dir, const std::string& name,
                const std::function<void(std::ostream&)>& fn);

}  // namespace softres::metrics
