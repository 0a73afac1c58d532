#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <unordered_set>

#include "common/schema.h"

namespace tango {
namespace sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC",
      "AND", "OR", "NOT", "AS", "DISTINCT", "ALL", "UNION", "CREATE",
      "TABLE", "INSERT", "INTO", "VALUES", "DROP", "ANALYZE", "NULL",
      "INT", "INTEGER", "DOUBLE", "FLOAT", "VARCHAR", "DATE", "IS",
      "COUNT", "SUM", "MIN", "MAX", "AVG", "GREATEST", "LEAST",
      "HAVING", "BETWEEN", "IN", "EXISTS", "JOIN", "ON", "INNER",
      // Temporal-SQL extensions (shared lexer).
      "TEMPORAL", "OVERLAPS", "PERIOD", "OVER", "TIME", "COALESCE",
      "CONTAINS", "EXCEPT", "INDEX",
      // Durable write path.
      "UPDATE", "SET", "BEGIN", "COMMIT", "ROLLBACK", "CHECKPOINT",
  };
  return kKeywords;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lexer::Tokenize(const std::string& input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comment
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(input[j])) ++j;
      tok.text = ToUpper(input.substr(i, j - i));
      tok.type = Keywords().count(tok.text) ? TokenType::kKeyword
                                            : TokenType::kIdentifier;
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) ++j;
      if (j < n && input[j] == '.' && j + 1 < n &&
          std::isdigit(static_cast<unsigned char>(input[j + 1]))) {
        is_float = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) ++j;
      }
      tok.text = input.substr(i, j - i);
      const char* first = tok.text.data();
      const char* last = first + tok.text.size();
      std::from_chars_result read;
      if (is_float) {
        tok.type = TokenType::kFloat;
        read = std::from_chars(first, last, tok.float_value);
      } else {
        tok.type = TokenType::kInteger;
        read = std::from_chars(first, last, tok.int_value);
      }
      if (read.ec != std::errc()) {
        std::string message = "numeric literal ";
        message += tok.text;
        message += " out of range at offset ";
        message += std::to_string(i);
        return Status::ParseError(message);
      }
      i = j;
    } else if (c == '\'') {
      std::string s;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (input[j] == '\'') {
          if (j + 1 < n && input[j + 1] == '\'') {  // escaped quote
            s.push_back('\'');
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        s.push_back(input[j]);
        ++j;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(i));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(s);
      i = j;
    } else {
      // Symbols, including two-character comparison operators.
      static const char* kTwoChar[] = {"<=", ">=", "<>", "!="};
      std::string sym(1, c);
      if (i + 1 < n) {
        const std::string two = input.substr(i, 2);
        for (const char* t : kTwoChar) {
          if (two == t) {
            sym = two;
            break;
          }
        }
      }
      if (sym == "!=") sym = "<>";
      static const std::string kSingles = "(),.*+-/=<>;";
      if (sym.size() == 1 && kSingles.find(sym[0]) == std::string::npos) {
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(i));
      }
      tok.type = TokenType::kSymbol;
      tok.text = sym;
      i += sym.size();
    }
    out.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.offset = n;
  out.push_back(end);
  return out;
}

bool TokenStream::AcceptKeyword(const std::string& kw) {
  if (PeekKeyword(kw)) {
    Next();
    return true;
  }
  return false;
}

bool TokenStream::AcceptSymbol(const std::string& sym) {
  if (PeekSymbol(sym)) {
    Next();
    return true;
  }
  return false;
}

bool TokenStream::PeekKeyword(const std::string& kw, size_t ahead) const {
  const Token& t = Peek(ahead);
  return t.type == TokenType::kKeyword && t.text == kw;
}

bool TokenStream::PeekSymbol(const std::string& sym, size_t ahead) const {
  const Token& t = Peek(ahead);
  return t.type == TokenType::kSymbol && t.text == sym;
}

Status TokenStream::ExpectKeyword(const std::string& kw) {
  if (AcceptKeyword(kw)) return Status::OK();
  return ErrorHere("expected " + kw);
}

Status TokenStream::ExpectSymbol(const std::string& sym) {
  if (AcceptSymbol(sym)) return Status::OK();
  return ErrorHere("expected '" + sym + "'");
}

Result<std::string> TokenStream::ExpectIdentifier() {
  const Token& t = Peek();
  if (t.type != TokenType::kIdentifier) {
    return ErrorHere("expected identifier");
  }
  Next();
  return t.text;
}

Status TokenStream::ErrorHere(const std::string& message) const {
  const Token& t = Peek();
  std::string found;
  switch (t.type) {
    case TokenType::kEnd:
      found = "end of input";
      break;
    case TokenType::kString:
      found = "'" + t.text + "'";
      break;
    default:
      found = "\"" + t.text + "\"";
  }
  return Status::ParseError(message + ", found " + found + " at offset " +
                            std::to_string(t.offset));
}

}  // namespace sql
}  // namespace tango
