#include "analyze/source.h"

#include <cctype>
#include <sstream>

#include "common/error.h"

namespace cosparse::analyze {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parses `cosparse-lint: allow(p1, p2)` markers out of one comment's
/// text and records them against `line` (the line the comment starts on).
void parse_annotation(const std::string& comment, int line, SourceFile& out) {
  const std::string marker = "cosparse-lint:";
  std::size_t pos = comment.find(marker);
  while (pos != std::string::npos) {
    std::size_t p = comment.find("allow(", pos);
    if (p == std::string::npos) return;
    p += 6;
    const std::size_t close = comment.find(')', p);
    if (close == std::string::npos) return;
    std::stringstream names(comment.substr(p, close - p));
    std::string name;
    while (std::getline(names, name, ',')) {
      const std::size_t b = name.find_first_not_of(" \t");
      const std::size_t e = name.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      out.allows[name.substr(b, e - b + 1)].insert(line);
    }
    pos = comment.find(marker, close);
  }
}

}  // namespace

bool SourceFile::allowed(const std::string& pass, int line) const {
  const auto it = allows.find(pass);
  if (it == allows.end()) return false;
  return it->second.count(line) > 0 || it->second.count(line - 1) > 0;
}

SourceFile scan_source(std::string path, const std::string& text) {
  SourceFile out;
  out.path = std::move(path);
  const std::size_t n = text.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen since the newline

  const auto peek = [&](std::size_t k) -> char {
    return i + k < n ? text[i + k] : '\0';
  };
  const auto advance = [&]() {
    if (text[i] == '\n') {
      ++line;
      at_line_start = true;
    }
    ++i;
  };

  while (i < n) {
    const char c = text[i];

    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }

    // Preprocessor directive: consume the logical line (honoring
    // backslash continuations). Directives never carry tokens the
    // passes reason about.
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (text[i] == '\\' && peek(1) == '\n') {
          advance();
          advance();
          continue;
        }
        if (text[i] == '\n') break;
        advance();
      }
      continue;
    }
    at_line_start = false;

    // Line comment.
    if (c == '/' && peek(1) == '/') {
      const int start_line = line;
      std::string body;
      while (i < n && text[i] != '\n') {
        body += text[i];
        advance();
      }
      parse_annotation(body, start_line, out);
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const int start_line = line;
      std::string body;
      advance();
      advance();
      while (i < n && !(text[i] == '*' && peek(1) == '/')) {
        body += text[i];
        advance();
      }
      if (i < n) {
        advance();
        advance();
      }
      parse_annotation(body, start_line, out);
      continue;
    }

    // Identifier — possibly a raw-string prefix (R", u8R", LR", ...).
    if (ident_start(c)) {
      const int start_line = line;
      std::string name;
      while (i < n && ident_char(text[i])) {
        name += text[i];
        advance();
      }
      const bool raw_prefix = i < n && text[i] == '"' &&
                              (name == "R" || name == "u8R" || name == "uR" ||
                               name == "LR" || name == "UR");
      if (raw_prefix) {
        // R"delim( ... )delim" — no escape processing inside.
        advance();  // consume "
        std::string delim;
        while (i < n && text[i] != '(') {
          delim += text[i];
          advance();
        }
        if (i < n) advance();  // consume (
        const std::string closer = ")" + delim + "\"";
        std::string contents;
        while (i < n && text.compare(i, closer.size(), closer) != 0) {
          contents += text[i];
          advance();
        }
        for (std::size_t k = 0; k < closer.size() && i < n; ++k) advance();
        out.tokens.push_back({TokKind::kString, std::move(contents),
                              start_line});
        continue;
      }
      const bool str_prefix = i < n && text[i] == '"' &&
                              (name == "u8" || name == "u" || name == "L" ||
                               name == "U");
      if (!str_prefix) {
        out.tokens.push_back({TokKind::kIdent, std::move(name), start_line});
        continue;
      }
      // Encoded string literal: fall through to the string scanner.
    }

    // Ordinary string literal.
    if (text[i] == '"') {
      const int start_line = line;
      std::string contents;
      advance();
      while (i < n && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < n) {
          contents += text[i];
          advance();
        }
        contents += text[i];
        advance();
      }
      if (i < n) advance();
      out.tokens.push_back({TokKind::kString, std::move(contents),
                            start_line});
      continue;
    }

    // Char literal: consume, no token (the passes never match these).
    if (text[i] == '\'') {
      advance();
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\' && i + 1 < n) advance();
        advance();
      }
      if (i < n) advance();
      continue;
    }

    // Number: digits plus the usual continuation set (hex, floats,
    // digit separators, suffixes, exponent signs).
    if (std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      const int start_line = line;
      std::string num;
      while (i < n && (ident_char(text[i]) || text[i] == '.' ||
                       text[i] == '\'' ||
                       ((text[i] == '+' || text[i] == '-') && !num.empty() &&
                        (num.back() == 'e' || num.back() == 'E' ||
                         num.back() == 'p' || num.back() == 'P')))) {
        num += text[i];
        advance();
      }
      out.tokens.push_back({TokKind::kNumber, std::move(num), start_line});
      continue;
    }

    // Punctuation. `::` and `->` stay joined so qualified names and
    // member calls are single-token lookbacks for the passes.
    {
      const int start_line = line;
      std::string p(1, text[i]);
      if (text[i] == ':' && peek(1) == ':') {
        p = "::";
        advance();
      } else if (text[i] == '-' && peek(1) == '>') {
        p = "->";
        advance();
      }
      advance();
      out.tokens.push_back({TokKind::kPunct, std::move(p), start_line});
    }
  }
  return out;
}

}  // namespace cosparse::analyze
