// Token-level source scanner for cosparse-lint's code passes.
//
// The analyzer deliberately avoids a real C++ frontend (no LLVM
// dependency; same self-contained style as common/Json): the four code
// passes only need identifiers, string literals, punctuation and line
// numbers, plus the `// cosparse-lint: allow(<pass>)` annotation
// comments. Tokenization is exact for those token classes (comments,
// ordinary/raw string literals, char literals and preprocessor
// directives are consumed correctly), which is what makes the passes
// sound at this level: they over-approximate (a flagged token may be in
// dead code) but never mis-lex the tokens they reason about. See
// DESIGN.md §15 for the soundness argument.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace cosparse::analyze {

enum class TokKind { kIdent, kString, kNumber, kPunct };

struct Token {
  TokKind kind;
  std::string text;  ///< identifier spelling, string *contents*, punct chars
  int line = 0;      ///< 1-based source line
};

/// One scanned source file: its token stream plus the escape-hatch
/// annotations found in comments. `path` is the root-relative path the
/// passes anchor findings to.
struct SourceFile {
  std::string path;
  std::vector<Token> tokens;
  /// pass name -> source lines carrying `// cosparse-lint: allow(<pass>)`.
  std::map<std::string, std::set<int>> allows;

  /// True when a finding of `pass` anchored at `line` is waived: the
  /// annotation covers its own line (trailing comment) and the line
  /// directly below (standalone comment above the flagged statement).
  [[nodiscard]] bool allowed(const std::string& pass, int line) const;
};

/// Tokenizes `text`. Comments, whitespace, preprocessor directives and
/// char literals are consumed but emit no tokens; `::` and `->` are
/// single punct tokens so qualified names and member calls scan cleanly.
[[nodiscard]] SourceFile scan_source(std::string path, const std::string& text);

}  // namespace cosparse::analyze
