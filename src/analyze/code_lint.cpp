#include "analyze/code_lint.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "analyze/compile_db.h"
#include "analyze/passes.h"
#include "analyze/source.h"
#include "common/error.h"
#include "common/file.h"
#include "common/json.h"

namespace cosparse::analyze {

namespace fs = std::filesystem;

namespace {

using verify::Finding;
using verify::Location;
using verify::Severity;

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

bool has_prefix(const std::string& path, const char* prefix) {
  return path.rfind(prefix, 0) == 0;
}

/// Scans every C++ file under <root>/{src,bench,examples}, returning
/// root-relative SourceFiles sorted by path so pass output (and hence
/// reports) is stable across filesystems.
std::vector<SourceFile> scan_tree(const std::string& root,
                                  std::vector<Finding>& findings) {
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "bench", "examples"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && is_cpp_source(entry.path()))
        paths.push_back(entry.path());
    }
  }
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  std::vector<std::string> rels;
  rels.reserve(paths.size());
  for (const fs::path& p : paths)
    rels.push_back(fs::relative(p, root).generic_string());
  std::sort(rels.begin(), rels.end());
  for (const std::string& rel : rels) {
    try {
      files.push_back(scan_source(rel, read_file((fs::path(root) / rel).string())));
    } catch (const Error& e) {
      findings.push_back(Finding{"code", "code.source-unreadable",
                                 Severity::kError, e.what(),
                                 Location::source(rel, 0)});
    }
  }
  return files;
}

std::vector<const SourceFile*> subset(const std::vector<SourceFile>& files,
                                      const std::vector<const char*>& prefixes) {
  std::vector<const SourceFile*> out;
  for (const SourceFile& f : files) {
    for (const char* p : prefixes) {
      if (has_prefix(f.path, p)) {
        out.push_back(&f);
        break;
      }
    }
  }
  return out;
}

std::vector<const SourceFile*> all_of(const std::vector<SourceFile>& files) {
  std::vector<const SourceFile*> out;
  out.reserve(files.size());
  for (const SourceFile& f : files) out.push_back(&f);
  return out;
}

CompileDb load_compile_db(const std::string& path,
                          std::vector<Finding>& findings) {
  if (path.empty()) {
    findings.push_back(Finding{
        "fp_exactness", "code.compile-db-missing", Severity::kWarning,
        "no compile_commands.json given; fp_exactness cannot verify "
        "-ffp-contract=off on kernel TUs (configure with "
        "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)",
        Location::document("compile_commands.json")});
    return CompileDb{};
  }
  try {
    return CompileDb::parse(Json::parse(read_file(path)), &findings);
  } catch (const Error& e) {
    findings.push_back(Finding{"fp_exactness", "code.compile-db-unreadable",
                               Severity::kError, e.what(),
                               Location::document(path)});
    return CompileDb{};
  }
}

}  // namespace

verify::LintReport lint_code(const CodeLintOptions& opts) {
  COSPARSE_REQUIRE(fs::is_directory(opts.root),
                   "source root is not a directory: " + opts.root);
  verify::LintReport report(opts.root);

  std::vector<Finding> findings;
  const std::vector<SourceFile> files = scan_tree(opts.root, findings);
  if (files.empty()) {
    findings.push_back(Finding{
        "code", "code.no-sources", Severity::kError,
        "no C++ sources found under " + opts.root + "/{src,bench,examples}",
        Location::document(opts.root)});
    report.add(std::move(findings));
    return report;
  }
  const CompileDb db = load_compile_db(opts.compile_db_path, findings);

  report.add(std::move(findings));
  report.add(check_signal_safety(all_of(files)));
  report.add(check_fp_exactness(subset(files, {"src/kernels/", "src/native/"}),
                                db, fs::absolute(opts.root).string()));
  report.add(check_determinism(
      subset(files, {"src/sim/", "src/runtime/", "src/native/", "src/graph/"})));
  report.add(check_phase_hygiene(subset(files, {"src/", "bench/", "examples/"})));
  report.sort_by_severity();
  return report;
}

}  // namespace cosparse::analyze
