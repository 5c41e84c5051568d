#include "metrics/csv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace softres::metrics {
namespace {

TEST(CsvTest, XyColumns) {
  std::ostringstream os;
  write_xy_csv(os, "workload", {5000.0, 6000.0},
               {{"a", {1.0, 2.0}}, {"b", {3.0, 4.0}}});
  EXPECT_EQ(os.str(), "workload,a,b\n5000,1,3\n6000,2,4\n");
}

TEST(CsvTest, EnvDirDisabledByDefault) {
  ::unsetenv("SOFTRES_CSV_DIR");
  EXPECT_TRUE(csv_dir_from_env().empty());
  EXPECT_FALSE(export_csv("", "x.csv", [](std::ostream&) {}));
}

TEST(CsvTest, ExportWritesFile) {
  ::setenv("SOFTRES_CSV_DIR", "/tmp", 1);
  EXPECT_EQ(csv_dir_from_env(), "/tmp");
  ::unsetenv("SOFTRES_CSV_DIR");
  const std::string name = "softres_csv_test.csv";
  ASSERT_TRUE(export_csv("/tmp", name,
                         [](std::ostream& os) { os << "hello\n"; }));
  std::ifstream in("/tmp/" + name);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "hello");
  std::remove(("/tmp/" + name).c_str());
}

// A directory that does not exist is an error naming the path, not a
// silently skipped export.
TEST(CsvTest, ExportFailsOnBadDirectory) {
  ::unsetenv("SOFTRES_CSV_DIR");
  try {
    export_csv("/nonexistent_dir_softres", "x.csv", [](std::ostream&) {});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent_dir_softres/x.csv"), std::string::npos);
    EXPECT_EQ(what.find("SOFTRES_CSV_DIR"), std::string::npos);
  }
}

// ...and names the variable when the directory came from the environment.
TEST(CsvTest, ExportFailureNamesEnvVariable) {
  ::setenv("SOFTRES_CSV_DIR", "/nonexistent_dir_softres", 1);
  try {
    export_csv(csv_dir_from_env(), "x.csv", [](std::ostream&) {});
    ::unsetenv("SOFTRES_CSV_DIR");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    ::unsetenv("SOFTRES_CSV_DIR");
    const std::string what = e.what();
    EXPECT_NE(what.find("/nonexistent_dir_softres/x.csv"), std::string::npos);
    EXPECT_NE(what.find("SOFTRES_CSV_DIR"), std::string::npos);
  }
}

}  // namespace
}  // namespace softres::metrics
