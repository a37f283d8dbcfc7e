#include "statcube/query/parser.h"

#include <algorithm>
#include <cctype>

#include "statcube/exec/parallel_kernels.h"
#include "statcube/query/query_input.h"
#include "statcube/relational/expression.h"

namespace statcube {

namespace {

// ----------------------------------------------------------------- lexer
//
// The token kinds, lexer loop, and aggregate-keyword table below are kept in
// lockstep with the grammar table in docs/QUERY.md. statcube-lint pins the
// region with a content hash: edit it deliberately, then refresh the hash
// with `tools/statcube_lint.py --update-codegen-hash`.

// STATCUBE-CODEGEN-BEGIN lexer sha256:852f07e75f6e
enum class TokKind { kIdent, kNumber, kString, kComma, kLParen, kRParen,
                     kEquals, kEnd };

struct Token {
  TokKind kind;
  std::string text;  // ident (lowercased for keywords), string body, number
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<Token> Next() {
    while (pos_ < text_.size() && std::isspace(uchar(text_[pos_]))) ++pos_;
    if (pos_ >= text_.size()) return Token{TokKind::kEnd, ""};
    char c = text_[pos_];
    if (c == ',') return Simple(TokKind::kComma);
    if (c == '(') return Simple(TokKind::kLParen);
    if (c == ')') return Simple(TokKind::kRParen);
    if (c == '=') return Simple(TokKind::kEquals);
    if (c == '\'') {
      ++pos_;
      std::string body;
      while (pos_ < text_.size() && text_[pos_] != '\'') body += text_[pos_++];
      if (pos_ >= text_.size())
        return Status::InvalidArgument("unterminated string literal");
      ++pos_;
      return Token{TokKind::kString, body};
    }
    if (std::isdigit(uchar(c)) || c == '-' || c == '.') {
      std::string num;
      while (pos_ < text_.size() &&
             (std::isdigit(uchar(text_[pos_])) || text_[pos_] == '.' ||
              text_[pos_] == '-'))
        num += text_[pos_++];
      return Token{TokKind::kNumber, num};
    }
    if (std::isalpha(uchar(c)) || c == '_') {
      std::string ident;
      while (pos_ < text_.size() &&
             (std::isalnum(uchar(text_[pos_])) || text_[pos_] == '_' ||
              text_[pos_] == '.' || text_[pos_] == '#' || text_[pos_] == '/' ||
              text_[pos_] == '-'))
        ident += text_[pos_++];
      return Token{TokKind::kIdent, ident};
    }
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "'");
  }

 private:
  static unsigned char uchar(char c) { return static_cast<unsigned char>(c); }
  Token Simple(TokKind k) {
    ++pos_;
    return Token{k, ""};
  }
  const std::string& text_;
  size_t pos_ = 0;
};

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return char(std::tolower(c)); });
  return s;
}

Result<AggFn> AggFnFromName(const std::string& name) {
  std::string n = Lower(name);
  if (n == "sum") return AggFn::kSum;
  if (n == "count") return AggFn::kCountAll;
  if (n == "avg") return AggFn::kAvg;
  if (n == "min") return AggFn::kMin;
  if (n == "max") return AggFn::kMax;
  if (n == "stddev") return AggFn::kStdDev;
  if (n == "var") return AggFn::kVariance;
  return Status::InvalidArgument("unknown aggregate function '" + name + "'");
}
// STATCUBE-CODEGEN-END lexer

}  // namespace

Result<ParsedQuery> ParseQuery(const std::string& text) {
  obs::Span span("parse");
  Lexer lex(text);
  ParsedQuery q;

  STATCUBE_ASSIGN_OR_RETURN(Token tok, lex.Next());
  std::string kw = tok.kind == TokKind::kIdent ? Lower(tok.text) : "";
  if (kw == "explain") {
    STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
    if (tok.kind != TokKind::kIdent || Lower(tok.text) != "profile")
      return Status::InvalidArgument("expected PROFILE after EXPLAIN");
    q.explain_profile = true;
    STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
    kw = tok.kind == TokKind::kIdent ? Lower(tok.text) : "";
  }
  if (kw != "select")
    return Status::InvalidArgument("query must start with SELECT");

  // Aggregates.
  while (true) {
    STATCUBE_ASSIGN_OR_RETURN(Token fn, lex.Next());
    if (fn.kind != TokKind::kIdent)
      return Status::InvalidArgument("expected aggregate function");
    STATCUBE_ASSIGN_OR_RETURN(AggFn agg, AggFnFromName(fn.text));
    STATCUBE_ASSIGN_OR_RETURN(Token lp, lex.Next());
    if (lp.kind != TokKind::kLParen)
      return Status::InvalidArgument("expected '(' after " + fn.text);
    STATCUBE_ASSIGN_OR_RETURN(Token arg, lex.Next());
    std::string column;
    if (arg.kind == TokKind::kIdent) {
      column = arg.text;
      STATCUBE_ASSIGN_OR_RETURN(arg, lex.Next());
    } else if (agg != AggFn::kCountAll) {
      return Status::InvalidArgument("aggregate needs a column argument");
    }
    if (arg.kind != TokKind::kRParen)
      return Status::InvalidArgument("expected ')'");
    q.aggs.push_back({agg, column, ""});

    STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
    if (tok.kind == TokKind::kComma) continue;
    break;
  }

  // Optional BY [CUBE(...)].
  if (tok.kind == TokKind::kIdent && Lower(tok.text) == "by") {
    STATCUBE_ASSIGN_OR_RETURN(Token first, lex.Next());
    if (first.kind == TokKind::kIdent && Lower(first.text) == "cube") {
      // BY CUBE(d1, d2, ...): the [GB+96] GROUP BY CUBE extension.
      q.cube = true;
      STATCUBE_ASSIGN_OR_RETURN(Token lp, lex.Next());
      if (lp.kind != TokKind::kLParen)
        return Status::InvalidArgument("expected '(' after CUBE");
      while (true) {
        STATCUBE_ASSIGN_OR_RETURN(Token dim, lex.Next());
        if (dim.kind != TokKind::kIdent)
          return Status::InvalidArgument("expected dimension inside CUBE()");
        q.by.push_back(dim.text);
        STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
        if (tok.kind == TokKind::kComma) continue;
        if (tok.kind != TokKind::kRParen)
          return Status::InvalidArgument("expected ')' closing CUBE");
        break;
      }
      STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
    } else {
      if (first.kind != TokKind::kIdent)
        return Status::InvalidArgument("expected dimension name after BY");
      q.by.push_back(first.text);
      STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
      while (tok.kind == TokKind::kComma) {
        STATCUBE_ASSIGN_OR_RETURN(Token dim, lex.Next());
        if (dim.kind != TokKind::kIdent)
          return Status::InvalidArgument("expected dimension name after ','");
        q.by.push_back(dim.text);
        STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
      }
    }
  }

  // Optional WHERE.
  if (tok.kind == TokKind::kIdent && Lower(tok.text) == "where") {
    while (true) {
      STATCUBE_ASSIGN_OR_RETURN(Token attr, lex.Next());
      if (attr.kind != TokKind::kIdent)
        return Status::InvalidArgument("expected attribute in WHERE");
      STATCUBE_ASSIGN_OR_RETURN(Token eq, lex.Next());
      if (eq.kind != TokKind::kEquals)
        return Status::InvalidArgument("expected '=' in WHERE");
      STATCUBE_ASSIGN_OR_RETURN(Token lit, lex.Next());
      Value value;
      if (lit.kind == TokKind::kString) {
        value = Value(lit.text);
      } else if (lit.kind == TokKind::kNumber) {
        if (lit.text.find('.') != std::string::npos) {
          value = Value(std::stod(lit.text));
        } else {
          value = Value(int64_t(std::stoll(lit.text)));
        }
      } else {
        return Status::InvalidArgument("expected literal after '='");
      }
      q.where.emplace_back(attr.text, value);
      STATCUBE_ASSIGN_OR_RETURN(tok, lex.Next());
      if (tok.kind == TokKind::kIdent && Lower(tok.text) == "and") continue;
      break;
    }
  }

  if (tok.kind != TokKind::kEnd)
    return Status::InvalidArgument("trailing tokens after query");
  return q;
}

Result<Table> ExecuteQuery(const StatisticalObject& obj,
                           const ParsedQuery& query, int threads,
                           const CancelContext* stop) {
  exec::ExecOptions exec_options;
  exec_options.threads = threads;
  exec_options.stop = stop;

  STATCUBE_ASSIGN_OR_RETURN(Table data, query::BuildQueryInput(obj, query));
  if (!query.where.empty()) {
    obs::Span filter_span("filter");
    std::vector<RowPredicate> preds;
    for (const auto& [attr, v] : query.where) {
      STATCUBE_ASSIGN_OR_RETURN(RowPredicate p,
                                expr::ColumnEq(data.schema(), attr, v));
      preds.push_back(std::move(p));
    }
    data = exec::ParallelSelect(data, expr::And(std::move(preds)),
                                exec_options);
    // ParallelSelect returns a bare Table, so a stop that fired during the
    // filter surfaces here (monotonic: once fired, Check keeps reporting it).
    if (stop != nullptr)
      if (StopReason r = stop->Check(); r != StopReason::kNone)
        return StopStatus(r, "filter");
  }

  // Fill default output names.
  std::vector<AggSpec> aggs = query.aggs;
  for (auto& a : aggs)
    if (a.output_name.empty()) a.output_name = a.EffectiveName();
  obs::Span agg_span("aggregate");
  if (query.cube)
    return exec::ParallelCubeBy(data, query.by, aggs, exec_options);
  return exec::ParallelGroupBy(data, query.by, aggs, exec_options);
}

Result<Table> Query(const StatisticalObject& obj, const std::string& text) {
  STATCUBE_ASSIGN_OR_RETURN(ParsedQuery q, ParseQuery(text));
  return ExecuteQuery(obj, q);
}

}  // namespace statcube
