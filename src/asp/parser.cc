#include "asp/parser.h"

#include <cassert>
#include <cctype>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace streamasp {

namespace {

enum class TokenKind {
  kIdentifier,  // lowercase-led: predicate/constant/functor names.
  kVariable,    // uppercase- or underscore-led.
  kAnonymous,   // bare "_".
  kInteger,
  kString,      // double-quoted.
  kDot,
  kComma,
  kColonDash,   // ":-"
  kPipe,        // "|" or ";"
  kLParen,
  kRParen,
  kSlash,      // "/": arity separator in signatures, division in terms.
  kPlus,
  kMinus,
  kStar,
  kBackslash,  // "\\": modulo.
  kCmpLess,
  kCmpLessEq,
  kCmpGreater,
  kCmpGreaterEq,
  kCmpEqual,    // "==" or "="
  kCmpNotEqual, // "!="
  kNot,         // keyword "not"
  kDirective,   // "#ident"
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;  // Identifier/variable/integer/string/directive payload.
  int line = 1;
  int column = 1;
};

/// Converts `source` into a token stream. Returns an error for unknown
/// characters or unterminated strings.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    for (;;) {
      SkipWhitespaceAndComments();
      if (AtEnd()) break;
      const int line = line_;
      const int column = column_;
      const char c = Peek();
      Token token;
      token.line = line;
      token.column = column;
      if (std::isdigit(static_cast<unsigned char>(c))) {
        token.kind = TokenKind::kInteger;
        token.text = ConsumeWhile(
            [](char ch) { return std::isdigit(static_cast<unsigned char>(ch)); });
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        const std::string word = ConsumeWhile([](char ch) {
          return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
        });
        if (word == "not") {
          token.kind = TokenKind::kNot;
        } else if (word == "_") {
          token.kind = TokenKind::kAnonymous;
        } else if (std::isupper(static_cast<unsigned char>(word[0])) ||
                   word[0] == '_') {
          token.kind = TokenKind::kVariable;
          token.text = word;
        } else {
          token.kind = TokenKind::kIdentifier;
          token.text = word;
        }
      } else if (c == '"') {
        Advance();
        std::string content;
        while (!AtEnd() && Peek() != '"') {
          if (Peek() == '\\' && PeekAt(1) != '\0') {
            Advance();  // Keep the escaped character verbatim.
          }
          content += Peek();
          Advance();
        }
        if (AtEnd()) {
          return InvalidArgumentError(Location(line, column) +
                                      "unterminated string literal");
        }
        Advance();  // Closing quote.
        token.kind = TokenKind::kString;
        token.text = std::move(content);
      } else if (c == '#') {
        Advance();
        const std::string word = ConsumeWhile([](char ch) {
          return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
        });
        if (word.empty()) {
          return InvalidArgumentError(Location(line, column) +
                                      "expected directive name after '#'");
        }
        token.kind = TokenKind::kDirective;
        token.text = word;
      } else {
        switch (c) {
          case '.':
            Advance();
            token.kind = TokenKind::kDot;
            break;
          case ',':
            Advance();
            token.kind = TokenKind::kComma;
            break;
          case '(':
            Advance();
            token.kind = TokenKind::kLParen;
            break;
          case ')':
            Advance();
            token.kind = TokenKind::kRParen;
            break;
          case '|':
          case ';':
            Advance();
            token.kind = TokenKind::kPipe;
            break;
          case '/':
            Advance();
            token.kind = TokenKind::kSlash;
            break;
          case '+':
            Advance();
            token.kind = TokenKind::kPlus;
            break;
          case '-':
            Advance();
            token.kind = TokenKind::kMinus;
            break;
          case '*':
            Advance();
            token.kind = TokenKind::kStar;
            break;
          case '\\':
            Advance();
            token.kind = TokenKind::kBackslash;
            break;
          case ':':
            Advance();
            if (Peek() != '-') {
              return InvalidArgumentError(Location(line, column) +
                                          "expected ':-'");
            }
            Advance();
            token.kind = TokenKind::kColonDash;
            break;
          case '<':
            Advance();
            if (Peek() == '=') {
              Advance();
              token.kind = TokenKind::kCmpLessEq;
            } else {
              token.kind = TokenKind::kCmpLess;
            }
            break;
          case '>':
            Advance();
            if (Peek() == '=') {
              Advance();
              token.kind = TokenKind::kCmpGreaterEq;
            } else {
              token.kind = TokenKind::kCmpGreater;
            }
            break;
          case '=':
            Advance();
            if (Peek() == '=') Advance();
            token.kind = TokenKind::kCmpEqual;
            break;
          case '!':
            Advance();
            if (Peek() != '=') {
              return InvalidArgumentError(Location(line, column) +
                                          "expected '!='");
            }
            Advance();
            token.kind = TokenKind::kCmpNotEqual;
            break;
          default:
            return InvalidArgumentError(Location(line, column) +
                                        "unexpected character '" +
                                        std::string(1, c) + "'");
        }
      }
      tokens.push_back(std::move(token));
    }
    Token end;
    end.kind = TokenKind::kEnd;
    end.line = line_;
    end.column = column_;
    tokens.push_back(std::move(end));
    return tokens;
  }

 private:
  bool AtEnd() const { return pos_ >= source_.size(); }
  char Peek() const { return AtEnd() ? '\0' : source_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset >= source_.size() ? '\0' : source_[pos_ + offset];
  }

  void Advance() {
    if (AtEnd()) return;
    if (source_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  template <typename Pred>
  std::string ConsumeWhile(Pred pred) {
    std::string out;
    while (!AtEnd() && pred(Peek())) {
      out += Peek();
      Advance();
    }
    return out;
  }

  void SkipWhitespaceAndComments() {
    for (;;) {
      while (!AtEnd() &&
             std::isspace(static_cast<unsigned char>(Peek()))) {
        Advance();
      }
      if (!AtEnd() && Peek() == '%') {
        while (!AtEnd() && Peek() != '\n') Advance();
        continue;
      }
      return;
    }
  }

  static std::string Location(int line, int column) {
    return "parse error at " + std::to_string(line) + ":" +
           std::to_string(column) + ": ";
  }

  std::string_view source_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// Recursive-descent parser over the token stream.
class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, SymbolTablePtr symbols)
      : tokens_(std::move(tokens)), symbols_(std::move(symbols)) {}

  StatusOr<Program> ParseProgram() {
    Program program(symbols_);
    while (!Check(TokenKind::kEnd)) {
      if (Check(TokenKind::kDirective)) {
        STREAMASP_RETURN_IF_ERROR(ParseDirective(&program));
      } else {
        STREAMASP_ASSIGN_OR_RETURN(Rule rule, ParseRule());
        program.AddRule(std::move(rule));
      }
    }
    return program;
  }

  StatusOr<Atom> ParseSingleGroundAtom() {
    STREAMASP_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    if (!Check(TokenKind::kEnd) && !Check(TokenKind::kDot)) {
      return Error("trailing input after atom");
    }
    if (!atom.IsGround()) {
      return Error("expected a ground atom");
    }
    return atom;
  }

  StatusOr<Term> ParseSingleTerm() {
    STREAMASP_ASSIGN_OR_RETURN(Term term, ParseTerm());
    if (!Check(TokenKind::kEnd)) {
      return Error("trailing input after term");
    }
    return term;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }
  bool Check(TokenKind kind) const { return Current().kind == kind; }

  const Token& Consume() { return tokens_[pos_++]; }

  bool Match(TokenKind kind) {
    if (!Check(kind)) return false;
    ++pos_;
    return true;
  }

  Status Error(const std::string& message) const {
    const Token& t = Current();
    return InvalidArgumentError("parse error at " + std::to_string(t.line) +
                                ":" + std::to_string(t.column) + ": " +
                                message);
  }

  Status Expect(TokenKind kind, const char* what) {
    if (Match(kind)) return OkStatus();
    return Error(std::string("expected ") + what);
  }

  Status ParseDirective(Program* program) {
    const Token directive = Consume();
    if (directive.text == "input" || directive.text == "show") {
      do {
        STREAMASP_ASSIGN_OR_RETURN(PredicateSignature sig, ParseSignature());
        if (directive.text == "input") {
          program->DeclareInputPredicate(sig);
        } else {
          program->DeclareShownPredicate(sig);
        }
      } while (Match(TokenKind::kComma));
      return Expect(TokenKind::kDot, "'.' after directive");
    }
    return Error("unknown directive '#" + directive.text + "'");
  }

  StatusOr<PredicateSignature> ParseSignature() {
    if (!Check(TokenKind::kIdentifier)) {
      return Error("expected predicate name in signature");
    }
    const std::string name = Consume().text;
    STREAMASP_RETURN_IF_ERROR(Expect(TokenKind::kSlash, "'/' in signature"));
    if (!Check(TokenKind::kInteger)) {
      return Error("expected arity in signature");
    }
    int64_t arity = 0;
    if (!ParseInt64(Consume().text, &arity) || arity < 0) {
      return Error("invalid arity");
    }
    return PredicateSignature{symbols_->Intern(name),
                              static_cast<uint32_t>(arity)};
  }

  StatusOr<Rule> ParseRule() {
    std::vector<Atom> head;
    std::vector<Literal> body;
    if (!Check(TokenKind::kColonDash)) {
      // Non-empty head: one or more '|'-separated atoms.
      do {
        STREAMASP_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
        head.push_back(std::move(atom));
      } while (Match(TokenKind::kPipe));
    }
    if (Match(TokenKind::kColonDash)) {
      if (!Check(TokenKind::kDot)) {  // Allow the degenerate "a :- ." form.
        do {
          STREAMASP_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
          body.push_back(std::move(lit));
        } while (Match(TokenKind::kComma));
      }
    }
    STREAMASP_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.' at end of rule"));
    if (head.empty() && body.empty()) {
      return Error("empty rule");
    }
    return Rule(std::move(head), std::move(body));
  }

  StatusOr<Literal> ParseLiteral() {
    if (Match(TokenKind::kNot)) {
      STREAMASP_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      return Literal::Negative(std::move(atom));
    }
    // Could be an atom or a comparison; comparisons may also start with a
    // term that is not an atom (integer, variable, expression). Parse an
    // atom-shaped prefix first and decide based on what follows.
    if (Check(TokenKind::kIdentifier)) {
      STREAMASP_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      if (!IsComparisonToken(Current().kind) &&
          !IsArithmeticToken(Current().kind)) {
        return Literal::Positive(std::move(atom));
      }
      // The "atom" was really the leftmost primary of an expression, e.g.
      // `f(X) + 1 < 3` or `speed = fast`.
      STREAMASP_ASSIGN_OR_RETURN(Term lhs,
                                 ParseAdditive(AtomToTerm(atom)));
      if (!IsComparisonToken(Current().kind)) {
        return Error("expected comparison operator");
      }
      const ComparisonOp op = ConsumeComparison();
      STREAMASP_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      return Literal::Comparison(std::move(lhs), op, std::move(rhs));
    }
    STREAMASP_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (!IsComparisonToken(Current().kind)) {
      return Error("expected comparison operator");
    }
    const ComparisonOp op = ConsumeComparison();
    STREAMASP_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    return Literal::Comparison(std::move(lhs), op, std::move(rhs));
  }

  static bool IsArithmeticToken(TokenKind kind) {
    switch (kind) {
      case TokenKind::kPlus:
      case TokenKind::kMinus:
      case TokenKind::kStar:
      case TokenKind::kSlash:
      case TokenKind::kBackslash:
        return true;
      default:
        return false;
    }
  }

  static bool IsComparisonToken(TokenKind kind) {
    switch (kind) {
      case TokenKind::kCmpLess:
      case TokenKind::kCmpLessEq:
      case TokenKind::kCmpGreater:
      case TokenKind::kCmpGreaterEq:
      case TokenKind::kCmpEqual:
      case TokenKind::kCmpNotEqual:
        return true;
      default:
        return false;
    }
  }

  ComparisonOp ConsumeComparison() {
    const Token& t = Consume();
    switch (t.kind) {
      case TokenKind::kCmpLess:
        return ComparisonOp::kLess;
      case TokenKind::kCmpLessEq:
        return ComparisonOp::kLessEqual;
      case TokenKind::kCmpGreater:
        return ComparisonOp::kGreater;
      case TokenKind::kCmpGreaterEq:
        return ComparisonOp::kGreaterEqual;
      case TokenKind::kCmpNotEqual:
        return ComparisonOp::kNotEqual;
      case TokenKind::kCmpEqual:
      default:
        return ComparisonOp::kEqual;
    }
  }

  /// Reinterprets an atom as a term: p(a,b) becomes the function term
  /// p(a,b); a zero-arity atom becomes a symbolic constant.
  Term AtomToTerm(const Atom& atom) {
    if (atom.args().empty()) return Term::Symbol(atom.predicate());
    return Term::Function(atom.predicate(), atom.args().ToVector());
  }

  StatusOr<Atom> ParseAtom() {
    if (!Check(TokenKind::kIdentifier)) {
      return Error("expected predicate name");
    }
    const SymbolId predicate = symbols_->Intern(Consume().text);
    std::vector<Term> args;
    if (Match(TokenKind::kLParen)) {
      do {
        STREAMASP_ASSIGN_OR_RETURN(Term term, ParseTerm());
        args.push_back(std::move(term));
      } while (Match(TokenKind::kComma));
      STREAMASP_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "')' after atom arguments"));
    }
    return Atom(predicate, std::move(args));
  }

  /// term := additive (full expression grammar; arithmetic on ground
  /// integers is constant-folded by Term::Arithmetic).
  StatusOr<Term> ParseTerm() { return ParseAdditive(std::nullopt); }

  /// additive := multiplicative (('+' | '-') multiplicative)*
  /// `first`, when given, is a pre-parsed leftmost primary (used when a
  /// literal's atom prefix turns out to start an expression).
  StatusOr<Term> ParseAdditive(std::optional<Term> first) {
    STREAMASP_ASSIGN_OR_RETURN(Term lhs,
                               ParseMultiplicative(std::move(first)));
    for (;;) {
      ArithOp op;
      if (Match(TokenKind::kPlus)) {
        op = ArithOp::kAdd;
      } else if (Match(TokenKind::kMinus)) {
        op = ArithOp::kSub;
      } else {
        return lhs;
      }
      STREAMASP_ASSIGN_OR_RETURN(Term rhs,
                                 ParseMultiplicative(std::nullopt));
      lhs = Term::Arithmetic(op, std::move(lhs), std::move(rhs));
    }
  }

  /// multiplicative := unary (('*' | '/' | '\\') unary)*
  StatusOr<Term> ParseMultiplicative(std::optional<Term> first) {
    Term lhs;
    if (first.has_value()) {
      lhs = *std::move(first);
    } else {
      STREAMASP_ASSIGN_OR_RETURN(lhs, ParseUnary());
    }
    for (;;) {
      ArithOp op;
      if (Match(TokenKind::kStar)) {
        op = ArithOp::kMul;
      } else if (Match(TokenKind::kSlash)) {
        op = ArithOp::kDiv;
      } else if (Match(TokenKind::kBackslash)) {
        op = ArithOp::kMod;
      } else {
        return lhs;
      }
      STREAMASP_ASSIGN_OR_RETURN(Term rhs, ParseUnary());
      lhs = Term::Arithmetic(op, std::move(lhs), std::move(rhs));
    }
  }

  /// unary := '-' unary | primary
  StatusOr<Term> ParseUnary() {
    if (Match(TokenKind::kMinus)) {
      STREAMASP_ASSIGN_OR_RETURN(Term operand, ParseUnary());
      // Encoded as 0 - x; folds to a plain integer for literals.
      return Term::Arithmetic(ArithOp::kSub, Term::Integer(0),
                              std::move(operand));
    }
    return ParsePrimary();
  }

  /// primary := integer | VARIABLE | '_' | string
  ///          | identifier ('(' term (',' term)* ')')?
  ///          | '(' additive ')'
  StatusOr<Term> ParsePrimary() {
    if (Check(TokenKind::kInteger)) {
      int64_t value = 0;
      if (!ParseInt64(Consume().text, &value)) {
        return Error("integer literal out of range");
      }
      return Term::Integer(value);
    }
    if (Check(TokenKind::kVariable)) {
      return Term::Variable(symbols_->Intern(Consume().text));
    }
    if (Check(TokenKind::kAnonymous)) {
      Consume();
      // Each anonymous variable is unique; synthesize a fresh name. The
      // "#" prefix cannot clash with user variables (lexer rejects it in
      // identifier position).
      const std::string fresh = "_Anon#" + std::to_string(anon_counter_++);
      return Term::Variable(symbols_->Intern(fresh));
    }
    if (Check(TokenKind::kString)) {
      // Strings are interned with quotes so they cannot collide with plain
      // constants of the same spelling.
      return Term::Symbol(symbols_->Intern("\"" + Consume().text + "\""));
    }
    if (Match(TokenKind::kLParen)) {
      STREAMASP_ASSIGN_OR_RETURN(Term inner, ParseAdditive(std::nullopt));
      STREAMASP_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "')' after parenthesized term"));
      return inner;
    }
    if (Check(TokenKind::kIdentifier)) {
      const SymbolId name = symbols_->Intern(Consume().text);
      if (Match(TokenKind::kLParen)) {
        std::vector<Term> args;
        do {
          STREAMASP_ASSIGN_OR_RETURN(Term term, ParseTerm());
          args.push_back(std::move(term));
        } while (Match(TokenKind::kComma));
        STREAMASP_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "')' after function arguments"));
        return Term::Function(name, std::move(args));
      }
      return Term::Symbol(name);
    }
    return Error("expected term");
  }

  std::vector<Token> tokens_;
  SymbolTablePtr symbols_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
};

}  // namespace

Parser::Parser(SymbolTablePtr symbols) : symbols_(std::move(symbols)) {
  assert(symbols_ != nullptr);
}

StatusOr<Program> Parser::ParseProgram(std::string_view source) {
  Lexer lexer(source);
  STREAMASP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  ParserImpl impl(std::move(tokens), symbols_);
  return impl.ParseProgram();
}

StatusOr<Atom> Parser::ParseGroundAtom(std::string_view source) {
  Lexer lexer(source);
  STREAMASP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  ParserImpl impl(std::move(tokens), symbols_);
  return impl.ParseSingleGroundAtom();
}

StatusOr<Term> Parser::ParseTerm(std::string_view source) {
  Lexer lexer(source);
  STREAMASP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  ParserImpl impl(std::move(tokens), symbols_);
  return impl.ParseSingleTerm();
}

}  // namespace streamasp
