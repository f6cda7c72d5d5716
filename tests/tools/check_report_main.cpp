// check_report <report.json>
//
// Validates a cosparse.run_report/v1 document against the schema checks in
// tests/obs/report_schema.h (schema/tool fields, per-tile stats summing to
// the global stats, well-formed iteration records). Exit 0 on success,
// 1 with a diagnostic on the first violation. Used by the CTest smoke test
// that runs examples/quickstart with --report-out.
#include <iostream>
#include <string>

#include "common/error.h"
#include "common/file.h"
#include "common/json.h"
#include "../obs/report_schema.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: check_report <report.json>\n";
    return 2;
  }
  try {
    const cosparse::Json doc =
        cosparse::Json::parse(cosparse::read_file(argv[1]));
    const std::string err = cosparse::obs::testing::check_report(doc);
    if (!err.empty()) {
      std::cerr << "check_report: " << argv[1] << ": " << err << "\n";
      return 1;
    }
  } catch (const cosparse::Error& e) {
    std::cerr << "check_report: " << argv[1] << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << "check_report: " << argv[1] << " OK\n";
  return 0;
}
