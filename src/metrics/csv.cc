#include "metrics/csv.h"

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace softres::metrics {

void write_xy_csv(std::ostream& os, const std::string& x_name,
                  const std::vector<double>& x,
                  const std::vector<std::pair<std::string,
                                              std::vector<double>>>& columns) {
  os << x_name;
  for (const auto& [name, _] : columns) os << ',' << name;
  os << '\n';
  for (std::size_t i = 0; i < x.size(); ++i) {
    os << x[i];
    for (const auto& [_, values] : columns) {
      os << ',';
      if (i < values.size()) os << values[i];
    }
    os << '\n';
  }
}

std::string csv_dir_from_env() {
  const char* dir = std::getenv("SOFTRES_CSV_DIR");
  return dir != nullptr ? std::string(dir) : std::string();
}

bool export_csv(const std::string& dir, const std::string& name,
                const std::function<void(std::ostream&)>& fn) {
  if (dir.empty()) return false;
  const std::string path = dir + "/" + name;
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error(
        "cannot write CSV export '" + path + "'" +
        (dir == csv_dir_from_env() ? " (from SOFTRES_CSV_DIR)" : ""));
  }
  fn(file);
  return true;
}

}  // namespace softres::metrics
