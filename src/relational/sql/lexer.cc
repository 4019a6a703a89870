#include "relational/sql/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "common/string_util.h"

namespace msql::relational {

std::string_view TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier: return "identifier";
    case TokenType::kString: return "string";
    case TokenType::kInteger: return "integer";
    case TokenType::kReal: return "real";
    case TokenType::kLParen: return "'('";
    case TokenType::kRParen: return "')'";
    case TokenType::kComma: return "','";
    case TokenType::kSemicolon: return "';'";
    case TokenType::kDot: return "'.'";
    case TokenType::kEq: return "'='";
    case TokenType::kNe: return "'<>'";
    case TokenType::kLt: return "'<'";
    case TokenType::kLe: return "'<='";
    case TokenType::kGt: return "'>'";
    case TokenType::kGe: return "'>='";
    case TokenType::kPlus: return "'+'";
    case TokenType::kMinus: return "'-'";
    case TokenType::kStar: return "'*'";
    case TokenType::kSlash: return "'/'";
    case TokenType::kTilde: return "'~'";
    case TokenType::kLBrace: return "'{'";
    case TokenType::kRBrace: return "'}'";
    case TokenType::kEof: return "end of input";
  }
  return "unknown";
}

bool Token::IsKeyword(std::string_view kw) const {
  return type == TokenType::kIdentifier && EqualsIgnoreCase(text, kw);
}

std::string Token::Where() const {
  return "line " + std::to_string(line) + " col " + std::to_string(column);
}

namespace {

bool IsIdentStart(char c, bool allow_percent) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
         (allow_percent && c == '%');
}

bool IsIdentChar(char c, bool allow_percent) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         (allow_percent && c == '%');
}

class LexerImpl {
 public:
  LexerImpl(std::string_view text, const LexerOptions& options)
      : text_(text), options_(options) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      Token tok;
      tok.line = line_;
      tok.column = column_;
      if (AtEnd()) {
        tok.type = TokenType::kEof;
        tokens.push_back(std::move(tok));
        return tokens;
      }
      char c = Peek();
      if (IsIdentStart(c, options_.percent_in_identifiers)) {
        tok.type = TokenType::kIdentifier;
        while (!AtEnd() &&
               IsIdentChar(Peek(), options_.percent_in_identifiers)) {
          tok.text += Get();
        }
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        MSQL_RETURN_IF_ERROR(LexNumber(&tok));
      } else if (c == '\'') {
        MSQL_RETURN_IF_ERROR(LexString(&tok));
      } else {
        MSQL_RETURN_IF_ERROR(LexPunct(&tok));
      }
      tokens.push_back(std::move(tok));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < text_.size() ? text_[pos_ + offset] : '\0';
  }
  char Get() {
    char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Get();
      } else if (c == '-' && PeekAt(1) == '-') {
        while (!AtEnd() && Peek() != '\n') Get();
      } else {
        return;
      }
    }
  }

  Status LexNumber(Token* tok) {
    std::string digits;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      digits += Get();
    }
    bool is_real = false;
    if (!AtEnd() && Peek() == '.' &&
        std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
      is_real = true;
      digits += Get();  // '.'
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        digits += Get();
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      size_t save = 1;
      if (PeekAt(save) == '+' || PeekAt(save) == '-') ++save;
      if (std::isdigit(static_cast<unsigned char>(PeekAt(save)))) {
        is_real = true;
        digits += Get();  // e
        if (Peek() == '+' || Peek() == '-') digits += Get();
        while (!AtEnd() &&
               std::isdigit(static_cast<unsigned char>(Peek()))) {
          digits += Get();
        }
      }
    }
    tok->text = digits;
    // from_chars reads subnormals exactly and reports only what no
    // INTEGER or finite REAL can hold (1e999, 1e-999) as out of range.
    const char* first = digits.data();
    const char* last = first + digits.size();
    std::from_chars_result parsed;
    if (is_real) {
      tok->type = TokenType::kReal;
      parsed = std::from_chars(first, last, tok->real_value);
    } else {
      tok->type = TokenType::kInteger;
      parsed = std::from_chars(first, last, tok->int_value);
    }
    if (parsed.ec == std::errc::result_out_of_range) {
      return Status::ParseError(std::string(is_real ? "real" : "integer") +
                                " literal out of range at " + tok->Where());
    }
    return Status::OK();
  }

  Status LexString(Token* tok) {
    Get();  // opening quote
    tok->type = TokenType::kString;
    while (true) {
      if (AtEnd()) {
        return Status::ParseError("unterminated string literal at " +
                                  tok->Where());
      }
      char c = Get();
      if (c == '\'') {
        if (!AtEnd() && Peek() == '\'') {
          tok->text += '\'';
          Get();
        } else {
          return Status::OK();
        }
      } else {
        tok->text += c;
      }
    }
  }

  Status LexPunct(Token* tok) {
    char c = Get();
    switch (c) {
      case '(': tok->type = TokenType::kLParen; return Status::OK();
      case ')': tok->type = TokenType::kRParen; return Status::OK();
      case ',': tok->type = TokenType::kComma; return Status::OK();
      case ';': tok->type = TokenType::kSemicolon; return Status::OK();
      case '.': tok->type = TokenType::kDot; return Status::OK();
      case '=': tok->type = TokenType::kEq; return Status::OK();
      case '+': tok->type = TokenType::kPlus; return Status::OK();
      case '-': tok->type = TokenType::kMinus; return Status::OK();
      case '*': tok->type = TokenType::kStar; return Status::OK();
      case '/': tok->type = TokenType::kSlash; return Status::OK();
      case '~': tok->type = TokenType::kTilde; return Status::OK();
      case '<':
        if (!AtEnd() && Peek() == '=') {
          Get();
          tok->type = TokenType::kLe;
        } else if (!AtEnd() && Peek() == '>') {
          Get();
          tok->type = TokenType::kNe;
        } else {
          tok->type = TokenType::kLt;
        }
        return Status::OK();
      case '>':
        if (!AtEnd() && Peek() == '=') {
          Get();
          tok->type = TokenType::kGe;
        } else {
          tok->type = TokenType::kGt;
        }
        return Status::OK();
      case '!':
        if (!AtEnd() && Peek() == '=') {
          Get();
          tok->type = TokenType::kNe;
          return Status::OK();
        }
        return Status::ParseError("unexpected '!' at " + tok->Where());
      case '{':
        if (options_.braces) {
          tok->type = TokenType::kLBrace;
          return Status::OK();
        }
        return Status::ParseError("unexpected '{' at " + tok->Where());
      case '}':
        if (options_.braces) {
          tok->type = TokenType::kRBrace;
          return Status::OK();
        }
        return Status::ParseError("unexpected '}' at " + tok->Where());
      default:
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at " + tok->Where());
    }
  }

  std::string_view text_;
  LexerOptions options_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text,
                                    const LexerOptions& options) {
  return LexerImpl(text, options).Run();
}

}  // namespace msql::relational
