#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace fatih::lint {

namespace {

// ------------------------------------------------------------------ lexical

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

bool space_char(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && space_char(s[b])) ++b;
  while (e > b && space_char(s[e - 1])) --e;
  return std::string(s.substr(b, e - b));
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

// ------------------------------------------------------- per-file structures

struct Suppression {
  std::uint32_t rules = 0;  ///< bitmask over Rule values
  bool justified = false;
};

/// A source file after lexical preprocessing: comments and string/char
/// literal *contents* blanked to spaces (line structure and code offsets
/// preserved), suppression comments and #include targets extracted.
struct FileCtx {
  const SourceFile* src = nullptr;
  std::string code;
  std::vector<std::size_t> line_start;               ///< offset of each line
  std::map<std::size_t, Suppression> suppressions;   ///< by 1-based line
  std::vector<std::pair<std::size_t, std::string>> includes;  ///< (line, target)
  std::vector<Diagnostic> pre_diags;  ///< bare/unknown suppression findings

  [[nodiscard]] std::size_t line_of(std::size_t pos) const {
    auto it = std::upper_bound(line_start.begin(), line_start.end(), pos);
    return static_cast<std::size_t>(it - line_start.begin());
  }
};

void parse_suppression_comment(FileCtx& ctx, std::size_t line, std::string_view comment) {
  // comment is the text after "//". Syntax:
  //   fatih-lint: allow(rule[,rule...]) <justification>
  const std::string_view tag = "fatih-lint:";
  std::size_t at = comment.find(tag);
  if (at == std::string_view::npos) return;
  std::string_view rest = comment.substr(at + tag.size());
  std::size_t open = rest.find("allow(");
  if (open == std::string_view::npos) return;
  std::size_t close = rest.find(')', open);
  if (close == std::string_view::npos) return;
  std::string_view list = rest.substr(open + 6, close - open - 6);
  std::string justification = trim(rest.substr(close + 1));

  Suppression supp;
  supp.justified = !justification.empty();
  std::size_t start = 0;
  bool any_unknown = false;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    std::string_view item = comma == std::string_view::npos ? list.substr(start)
                                                            : list.substr(start, comma - start);
    const std::string name = trim(item);
    if (!name.empty()) {
      Rule r;
      if (parse_rule(name, r)) {
        supp.rules |= 1u << static_cast<unsigned>(r);
      } else {
        any_unknown = true;
        ctx.pre_diags.push_back({ctx.src->path, line, Rule::kBareSuppression,
                                 "suppression names unknown rule '" + name + "'", {}});
      }
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (!supp.justified) {
    ctx.pre_diags.push_back({ctx.src->path, line, Rule::kBareSuppression,
                             "suppression without a justification: write "
                             "'// fatih-lint: allow(<rule>) <why this is safe>'",
                             {}});
    return;  // a bare allow() does not suppress anything
  }
  if (any_unknown && supp.rules == 0) return;
  auto [it, inserted] = ctx.suppressions.emplace(line, supp);
  if (!inserted) {
    it->second.rules |= supp.rules;
    it->second.justified = it->second.justified && supp.justified;
  }
}

/// Blanks comments and the contents of string/char literals (keeping the
/// quotes), records suppression comments and #include targets.
FileCtx preprocess(const SourceFile& src) {
  FileCtx ctx;
  ctx.src = &src;
  const std::string& in = src.content;
  std::string out = in;
  ctx.line_start.push_back(0);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '\n') ctx.line_start.push_back(i + 1);
  }

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State st = State::kCode;
  std::string raw_delim;           // for R"delim( ... )delim"
  std::size_t comment_begin = 0;   // offset where current // comment started
  auto blank = [&](std::size_t i) {
    if (out[i] != '\n') out[i] = ' ';
  };

  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && n == '/') {
          st = State::kLineComment;
          comment_begin = i + 2;
          blank(i);
        } else if (c == '/' && n == '*') {
          st = State::kBlockComment;
          blank(i);
        } else if (c == '"') {
          // Raw string literal? Preceded by R (with optional encoding prefix).
          if (i > 0 && in[i - 1] == 'R' && (i < 2 || !ident_char(in[i - 2]))) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < in.size() && in[j] != '(') raw_delim += in[j++];
            st = State::kRawString;
            // keep the opening quote; blank from i+1 handled by state
          } else {
            st = State::kString;
          }
        } else if (c == '\'') {
          // Digit separator (1'000'000) is not a char literal.
          if (i > 0 && ident_char(in[i - 1]) && i + 1 < in.size() && ident_char(in[i + 1])) {
            break;
          }
          st = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          const std::size_t line = ctx.line_of(comment_begin);
          parse_suppression_comment(
              ctx, line, std::string_view(in).substr(comment_begin, i - comment_begin));
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && n == '/') {
          blank(i);
          blank(i + 1);
          ++i;
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kString:
        if (c == '\\') {
          blank(i);
          if (i + 1 < in.size()) blank(++i);
        } else if (c == '"') {
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kChar:
        if (c == '\\') {
          blank(i);
          if (i + 1 < in.size()) blank(++i);
        } else if (c == '\'') {
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (in.compare(i, closer.size(), closer) == 0) {
          i += closer.size() - 1;
          st = State::kCode;
        } else {
          blank(i);
        }
        break;
      }
    }
  }
  if (st == State::kLineComment) {
    const std::size_t line = ctx.line_of(comment_begin);
    parse_suppression_comment(ctx, line,
                              std::string_view(in).substr(comment_begin));
  }
  ctx.code = std::move(out);

  // #include "..." targets, from the raw content (string stripping above
  // blanks the path, so read the original).
  for (std::size_t li = 0; li < ctx.line_start.size(); ++li) {
    const std::size_t b = ctx.line_start[li];
    const std::size_t e = li + 1 < ctx.line_start.size() ? ctx.line_start[li + 1] : in.size();
    std::string_view lv = std::string_view(in).substr(b, e - b);
    std::size_t p = 0;
    while (p < lv.size() && (lv[p] == ' ' || lv[p] == '\t')) ++p;
    if (p >= lv.size() || lv[p] != '#') continue;
    ++p;
    while (p < lv.size() && (lv[p] == ' ' || lv[p] == '\t')) ++p;
    if (!starts_with(lv.substr(p), "include")) continue;
    p += 7;
    while (p < lv.size() && (lv[p] == ' ' || lv[p] == '\t')) ++p;
    if (p >= lv.size() || lv[p] != '"') continue;
    const std::size_t q = lv.find('"', p + 1);
    if (q == std::string_view::npos) continue;
    ctx.includes.emplace_back(li + 1, std::string(lv.substr(p + 1, q - p - 1)));
  }
  return ctx;
}

// ----------------------------------------------------------- token scanning

std::size_t find_word(const std::string& s, std::string_view w, std::size_t from) {
  while (true) {
    const std::size_t p = s.find(w.data(), from, w.size());
    if (p == std::string::npos) return std::string::npos;
    const bool left_ok = p == 0 || !ident_char(s[p - 1]);
    const bool right_ok = p + w.size() >= s.size() || !ident_char(s[p + w.size()]);
    if (left_ok && right_ok) return p;
    from = p + 1;
  }
}

std::size_t next_nonspace(const std::string& s, std::size_t p) {
  while (p < s.size() && space_char(s[p])) ++p;
  return p;
}

std::size_t prev_nonspace(const std::string& s, std::size_t p) {
  // Returns the index of the previous non-space char, or npos.
  while (p > 0) {
    --p;
    if (!space_char(s[p])) return p;
  }
  return std::string::npos;
}

enum class Qual { kNone, kStd, kOther };

/// How the identifier starting at `pos` is qualified: `std::x`, `y::x` /
/// `obj.x` / `ptr->x`, or unqualified.
Qual qualifier_before(const std::string& s, std::size_t pos) {
  std::size_t p = prev_nonspace(s, pos);
  if (p == std::string::npos) return Qual::kNone;
  if (s[p] == '.') return Qual::kOther;
  if (s[p] == '>' && p > 0 && s[p - 1] == '-') return Qual::kOther;
  if (s[p] == ':' && p > 0 && s[p - 1] == ':') {
    std::size_t q = prev_nonspace(s, p - 1);
    if (q == std::string::npos) return Qual::kOther;
    std::size_t e = q + 1;
    while (q > 0 && ident_char(s[q - 1])) --q;
    return s.substr(q, e - q) == "std" ? Qual::kStd : Qual::kOther;
  }
  return Qual::kNone;
}

/// `pos` points at '<'; returns the offset just past the matching '>', or
/// npos if unbalanced.
std::size_t skip_template_args(const std::string& s, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    else if (s[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    } else if (s[i] == ';') {
      return std::string::npos;  // statement ended: was a comparison
    }
  }
  return std::string::npos;
}

/// `pos` points at an opener ('(' / '{' / '['); returns offset of matching
/// closer, or npos.
std::size_t match_bracket(const std::string& s, std::size_t pos) {
  const char open = s[pos];
  const char close = open == '(' ? ')' : open == '{' ? '}' : ']';
  int depth = 0;
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == open) ++depth;
    else if (s[i] == close) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

std::string read_ident(const std::string& s, std::size_t pos) {
  std::size_t e = pos;
  while (e < s.size() && ident_char(s[e])) ++e;
  return s.substr(pos, e - pos);
}

/// Reads the identifier ending at `end` (exclusive), scanning backwards.
std::string read_ident_before(const std::string& s, std::size_t end) {
  std::size_t b = end;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, end - b);
}

// -------------------------------------------------- nondeterminism collectors
//
// The R1/R2/R3 pattern scans, factored out so the per-file rules and the
// interprocedural taint rule (R10) share one implementation. Collectors
// return raw hit positions with *no* path exemptions — exemption policy
// belongs to the rule consuming the hits (R1 exempts bench/ and
// src/util/time; R10 deliberately exempts nothing, so a wall-clock read
// laundered through util/time still taints a digest).

enum class SourceKind : std::uint8_t {
  kClockName,      ///< chrono clock type / C time API name
  kClockCall,      ///< bare time()/clock() call
  kRandCall,       ///< rand()/srand() call
  kRngDevice,      ///< random_device / default_random_engine mention
  kDefaultSeeded,  ///< default-constructed standard engine
};

struct TaintHit {
  std::size_t pos = 0;
  SourceKind kind = SourceKind::kClockName;
  std::string name;
};

std::vector<TaintHit> wallclock_hits(const std::string& s) {
  std::vector<TaintHit> out;
  static constexpr std::string_view kClockNames[] = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get", "localtime", "gmtime"};
  for (std::string_view w : kClockNames) {
    for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
         p = find_word(s, w, p + 1)) {
      out.push_back({p, SourceKind::kClockName, std::string(w)});
    }
  }
  // Bare (or std::) C calls time(...) / clock(...). Qualified calls like
  // ChurnNet::clock() or sim.time() are someone else's deterministic API.
  for (std::string_view w : {std::string_view("time"), std::string_view("clock")}) {
    for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
         p = find_word(s, w, p + 1)) {
      if (next_nonspace(s, p + w.size()) >= s.size() ||
          s[next_nonspace(s, p + w.size())] != '(')
        continue;
      const Qual q = qualifier_before(s, p);
      if (q == Qual::kOther) continue;
      if (q == Qual::kNone) {
        // `RoundClock clock()` is a function *declaration* named clock,
        // not a call: a preceding identifier that isn't a statement
        // keyword means a return type.
        const std::size_t before = prev_nonspace(s, p);
        if (before != std::string::npos && ident_char(s[before])) {
          const std::string prev = read_ident_before(s, before + 1);
          if (prev != "return" && prev != "else" && prev != "case" && prev != "co_return")
            continue;
        }
      }
      out.push_back({p, SourceKind::kClockCall, std::string(w)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TaintHit& a, const TaintHit& b) { return a.pos < b.pos; });
  return out;
}

std::vector<TaintHit> rng_hits(const std::string& s) {
  std::vector<TaintHit> out;
  for (std::string_view w : {std::string_view("rand"), std::string_view("srand")}) {
    for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
         p = find_word(s, w, p + 1)) {
      const std::size_t after = next_nonspace(s, p + w.size());
      if (after >= s.size() || s[after] != '(') continue;
      if (qualifier_before(s, p) == Qual::kOther) continue;
      out.push_back({p, SourceKind::kRandCall, std::string(w)});
    }
  }
  for (std::string_view w :
       {std::string_view("random_device"), std::string_view("default_random_engine")}) {
    for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
         p = find_word(s, w, p + 1)) {
      out.push_back({p, SourceKind::kRngDevice, std::string(w)});
    }
  }
  static constexpr std::string_view kEngines[] = {
      "mt19937",       "mt19937_64",    "minstd_rand", "minstd_rand0", "ranlux24_base",
      "ranlux48_base", "ranlux24",      "ranlux48",    "knuth_b"};
  for (std::string_view w : kEngines) {
    for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
         p = find_word(s, w, p + 1)) {
      std::size_t after = next_nonspace(s, p + w.size());
      if (after >= s.size()) continue;
      bool default_seeded = false;
      if (s[after] == '(' || s[after] == '{') {
        const std::size_t close = match_bracket(s, after);
        default_seeded =
            close != std::string::npos && trim(s.substr(after + 1, close - after - 1)).empty();
      } else if (ident_char(s[after])) {
        const std::string var = read_ident(s, after);
        std::size_t q = next_nonspace(s, after + var.size());
        if (q < s.size()) {
          if (s[q] == ';' || s[q] == ',' || s[q] == ')') {
            default_seeded = true;  // declaration with no seed argument
          } else if (s[q] == '(' || s[q] == '{') {
            const std::size_t close = match_bracket(s, q);
            default_seeded =
                close != std::string::npos && trim(s.substr(q + 1, close - q - 1)).empty();
          }
        }
      }
      if (default_seeded) out.push_back({p, SourceKind::kDefaultSeeded, std::string(w)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TaintHit& a, const TaintHit& b) { return a.pos < b.pos; });
  return out;
}

struct IterHit {
  std::size_t pos = 0;
  std::string name;       ///< container variable
  std::string iter_word;  ///< "begin"/"cbegin"/"rbegin", empty for range-for
};

std::vector<IterHit> unordered_iter_hits(const std::string& s,
                                         const std::set<std::string>& tracked) {
  std::vector<IterHit> out;
  if (tracked.empty()) return out;
  // Range-for: for (decl : expr)
  for (std::size_t p = find_word(s, "for", 0); p != std::string::npos;
       p = find_word(s, "for", p + 1)) {
    const std::size_t open = next_nonspace(s, p + 3);
    if (open >= s.size() || s[open] != '(') continue;
    const std::size_t close = match_bracket(s, open);
    if (close == std::string::npos) continue;
    // find ':' at paren depth 1 that is not part of '::'
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = open; i <= close; ++i) {
      if (s[i] == '(' || s[i] == '[' || s[i] == '{') ++depth;
      else if (s[i] == ')' || s[i] == ']' || s[i] == '}') --depth;
      else if (s[i] == ':' && depth == 1) {
        const bool dbl = (i > 0 && s[i - 1] == ':') || (i + 1 < s.size() && s[i + 1] == ':');
        if (!dbl) {
          colon = i;
          break;
        }
      }
    }
    if (colon == std::string::npos) continue;
    const std::string expr = trim(s.substr(colon + 1, close - colon - 1));
    if (expr.empty() || !ident_char(expr.back())) continue;  // call result etc.
    const std::string name = read_ident_before(expr, expr.size());
    if (!tracked.count(name)) continue;
    out.push_back({p, name, std::string()});
  }
  // Explicit iterator walks. Only the begin() family: iteration always
  // needs a begin, while a lone end() is the idiomatic find() != end()
  // lookup — which the rule explicitly allows.
  static constexpr std::string_view kIters[] = {"begin", "cbegin", "rbegin"};
  for (std::string_view w : kIters) {
    for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
         p = find_word(s, w, p + 1)) {
      const std::size_t after = next_nonspace(s, p + w.size());
      if (after >= s.size() || s[after] != '(') continue;
      std::size_t q = prev_nonspace(s, p);
      if (q == std::string::npos) continue;
      if (s[q] == '.') {
        // fallthrough
      } else if (s[q] == '>' && q > 0 && s[q - 1] == '-') {
        --q;
      } else {
        continue;
      }
      const std::size_t recv_end = prev_nonspace(s, q);
      if (recv_end == std::string::npos || !ident_char(s[recv_end])) continue;
      const std::string name = read_ident_before(s, recv_end + 1);
      if (!tracked.count(name)) continue;
      out.push_back({p, name, std::string(w)});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const IterHit& a, const IterHit& b) { return a.pos < b.pos; });
  return out;
}

// ------------------------------------------------------------------- linter

class Linter {
 public:
  Linter(const std::vector<SourceFile>& files, AnalyzeOptions opts) : opts_(std::move(opts)), cfg_(opts_.cfg) {
    ctxs_.reserve(files.size());
    for (const SourceFile& f : files) ctxs_.push_back(preprocess(f));
  }

  Report run() {
    const bool interproc = cfg_.on(Rule::kDeterminismTaint) ||
                           cfg_.on(Rule::kFloatFreeDigest) ||
                           cfg_.on(Rule::kHotPathAllocation);
    if (interproc || opts_.want_graph) build_symbols();
    if (cfg_.on(Rule::kNoUnorderedIteration) || cfg_.on(Rule::kDeterminismTaint))
      compute_tracked_unordered();

    for (FileCtx& ctx : ctxs_) {
      if (cfg_.on(Rule::kBareSuppression))
        for (Diagnostic& d : ctx.pre_diags) report_.diagnostics.push_back(std::move(d));
      if (cfg_.on(Rule::kNoWallclock)) rule_wallclock(ctx);
      if (cfg_.on(Rule::kNoAmbientRng)) rule_ambient_rng(ctx);
      if (cfg_.on(Rule::kNoPointerKeyedOrder)) rule_pointer_keyed(ctx);
      if (cfg_.on(Rule::kNoIostream)) rule_iostream(ctx);
      if (cfg_.on(Rule::kSimdContainment)) rule_simd_containment(ctx);
      if (cfg_.on(Rule::kThreadContainment)) rule_thread_containment(ctx);
    }
    if (cfg_.on(Rule::kNoUnorderedIteration)) rule_unordered_iteration();
    if (cfg_.on(Rule::kTraceEventInit)) rule_trace_event_init();
    if (cfg_.on(Rule::kNoIncludeCycles)) rule_include_graph();
    if (cfg_.on(Rule::kDeterminismTaint)) rule_determinism_taint();
    if (cfg_.on(Rule::kFloatFreeDigest)) rule_float_free_digest();
    if (cfg_.on(Rule::kHotPathAllocation)) rule_hot_path_allocation();

    report_.files_scanned = ctxs_.size();
    std::sort(report_.diagnostics.begin(), report_.diagnostics.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                if (a.rule != b.rule) return a.rule < b.rule;
                return a.message < b.message;
              });
    // Two flagged tokens on one line can produce indistinguishable
    // diagnostics (e.g. two `double` words); report each site once.
    report_.diagnostics.erase(
        std::unique(report_.diagnostics.begin(), report_.diagnostics.end(),
                    [](const Diagnostic& a, const Diagnostic& b) {
                      return a.file == b.file && a.line == b.line && a.rule == b.rule &&
                             a.message == b.message;
                    }),
        report_.diagnostics.end());
    return std::move(report_);
  }

  [[nodiscard]] symgraph::Graph take_graph() { return std::move(graph_); }

 private:
  void emit(const FileCtx& ctx, std::size_t line, Rule rule, std::string msg) {
    emit_chain(ctx, line, rule, std::move(msg), {});
  }

  void emit_chain(const FileCtx& ctx, std::size_t line, Rule rule, std::string msg,
                  std::vector<ChainHop> chain) {
    // A suppression comment covers exactly its own line and the one below
    // it (the two-line window pinned by tests/lint).
    const std::uint32_t bit = 1u << static_cast<unsigned>(rule);
    for (std::size_t l = line > 1 ? line - 1 : line; l <= line; ++l) {
      auto it = ctx.suppressions.find(l);
      if (it != ctx.suppressions.end() && (it->second.rules & bit) != 0 && it->second.justified) {
        ++report_.suppressed;
        return;
      }
    }
    Diagnostic d{ctx.src->path, line, rule, std::move(msg), {}};
    d.chain = std::move(chain);
    report_.diagnostics.push_back(std::move(d));
  }

  // R1 ----------------------------------------------------------------------
  void rule_wallclock(const FileCtx& ctx) {
    const std::string& path = ctx.src->path;
    if (starts_with(path, "bench/") || starts_with(path, "src/util/time.")) return;
    for (const TaintHit& h : wallclock_hits(ctx.code)) {
      if (h.kind == SourceKind::kClockName) {
        emit(ctx, ctx.line_of(h.pos), Rule::kNoWallclock,
             "wall-clock source '" + h.name +
                 "' is banned outside src/util/time and bench/; drive everything from "
                 "util::SimTime");
      } else {
        emit(ctx, ctx.line_of(h.pos), Rule::kNoWallclock,
             "call to '" + h.name +
                 "()' reads the wall clock; banned outside src/util/time and bench/");
      }
    }
  }

  // R2 ----------------------------------------------------------------------
  void rule_ambient_rng(const FileCtx& ctx) {
    const std::string& path = ctx.src->path;
    if (starts_with(path, "src/util/rng.")) return;
    for (const TaintHit& h : rng_hits(ctx.code)) {
      switch (h.kind) {
        case SourceKind::kRandCall:
          emit(ctx, ctx.line_of(h.pos), Rule::kNoAmbientRng,
               "'" + h.name +
                   "()' draws from ambient global state; use an explicitly seeded util::Rng");
          break;
        case SourceKind::kRngDevice:
          emit(ctx, ctx.line_of(h.pos), Rule::kNoAmbientRng,
               "'" + h.name +
                   "' is nondeterministic (or implementation-defined); use util::Rng with an "
                   "explicit seed");
          break;
        default:
          emit(ctx, ctx.line_of(h.pos), Rule::kNoAmbientRng,
               "default-seeded '" + h.name +
                   "' produces an unpinned stream; seed it explicitly (prefer util::Rng)");
      }
    }
  }

  // R3 ----------------------------------------------------------------------
  /// Stem (path minus extension) so declarations in foo.hpp cover the
  /// iterations in foo.cpp.
  static std::string stem_of(const std::string& path) {
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) return path;
    return path.substr(0, dot);
  }

  /// Pass 1 of R3 (shared with R10): variables/members declared with an
  /// unordered container type, grouped by file stem.
  void compute_tracked_unordered() {
    static constexpr std::string_view kUnordered[] = {
        "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
    for (const FileCtx& ctx : ctxs_) {
      const std::string& s = ctx.code;
      std::set<std::string>& tracked = tracked_by_stem_[stem_of(ctx.src->path)];
      for (std::string_view w : kUnordered) {
        for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
             p = find_word(s, w, p + 1)) {
          std::size_t q = next_nonspace(s, p + w.size());
          if (q >= s.size() || s[q] != '<') continue;
          q = skip_template_args(s, q);
          if (q == std::string::npos) continue;
          q = next_nonspace(s, q);
          while (q < s.size() && (s[q] == '&' || s[q] == '*')) q = next_nonspace(s, q + 1);
          if (q >= s.size() || !ident_char(s[q])) continue;
          const std::string name = read_ident(s, q);
          const std::size_t after = next_nonspace(s, q + name.size());
          if (after < s.size() && s[after] == '(') continue;  // function declarator
          tracked.insert(name);
        }
      }
    }
  }

  void rule_unordered_iteration() {
    for (const FileCtx& ctx : ctxs_) {
      const std::set<std::string>& tracked = tracked_by_stem_[stem_of(ctx.src->path)];
      for (const IterHit& h : unordered_iter_hits(ctx.code, tracked)) {
        if (h.iter_word.empty()) {
          emit(ctx, ctx.line_of(h.pos), Rule::kNoUnorderedIteration,
               "range-for over unordered container '" + h.name +
                   "': iteration order is hash/pointer dependent; use util::FlatMap / std::map "
                   "or iterate a sorted snapshot");
        } else {
          emit(ctx, ctx.line_of(h.pos), Rule::kNoUnorderedIteration,
               "'" + h.name + "." + h.iter_word +
                   "()' iterates an unordered container: order is hash/pointer dependent; use "
                   "util::FlatMap / std::map or a sorted snapshot");
        }
      }
    }
  }

  // R4 ----------------------------------------------------------------------
  void rule_pointer_keyed(const FileCtx& ctx) {
    const std::string& s = ctx.code;
    struct Container {
      std::string_view name;
      bool need_std;
    };
    static constexpr Container kOrdered[] = {
        {"map", true},     {"set", true},     {"multimap", true},
        {"multiset", true}, {"FlatMap", false}, {"FlatSet", false}};
    for (const Container& c : kOrdered) {
      for (std::size_t p = find_word(s, c.name, 0); p != std::string::npos;
           p = find_word(s, c.name, p + 1)) {
        if (c.need_std && qualifier_before(s, p) != Qual::kStd) continue;
        std::size_t q = next_nonspace(s, p + c.name.size());
        if (q >= s.size() || s[q] != '<') continue;
        // First template argument at depth 1.
        int depth = 0;
        std::size_t arg_begin = q + 1, arg_end = std::string::npos;
        for (std::size_t i = q; i < s.size(); ++i) {
          if (s[i] == '<') ++depth;
          else if (s[i] == '>') {
            --depth;
            if (depth == 0) {
              arg_end = i;
              break;
            }
          } else if (s[i] == ',' && depth == 1) {
            arg_end = i;
            break;
          } else if (s[i] == ';') {
            break;  // comparison, not a template
          }
        }
        if (arg_end == std::string::npos) continue;
        const std::string key = trim(s.substr(arg_begin, arg_end - arg_begin));
        if (key.find('*') == std::string::npos) continue;
        emit(ctx, ctx.line_of(p), Rule::kNoPointerKeyedOrder,
             "ordered container keyed on a raw pointer ('" + std::string(c.name) + "<" + key +
                 ", ...>'): allocation addresses vary run to run; key on a stable id instead");
      }
    }
    // sort(..., [](T* a, T* b) { return a < b; }) style comparators.
    static constexpr std::string_view kSorts[] = {"sort", "stable_sort", "partial_sort",
                                                  "nth_element"};
    for (std::string_view w : kSorts) {
      for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
           p = find_word(s, w, p + 1)) {
        const std::size_t open = next_nonspace(s, p + w.size());
        if (open >= s.size() || s[open] != '(') continue;
        const std::size_t close = match_bracket(s, open);
        if (close == std::string::npos) continue;
        // Lambda inside the call argument list.
        for (std::size_t lb = s.find('[', open); lb != std::string::npos && lb < close;
             lb = s.find('[', lb + 1)) {
          const std::size_t rb = match_bracket(s, lb);
          if (rb == std::string::npos || rb > close) break;
          const std::size_t lp = next_nonspace(s, rb + 1);
          if (lp >= s.size() || s[lp] != '(') continue;
          const std::size_t rp = match_bracket(s, lp);
          if (rp == std::string::npos || rp > close) continue;
          // Pointer-typed parameter names.
          std::set<std::string> ptr_params;
          std::size_t start = lp + 1;
          for (std::size_t i = lp + 1; i <= rp; ++i) {
            if (s[i] == ',' || i == rp) {
              const std::string param = trim(s.substr(start, i - start));
              if (param.find('*') != std::string::npos && !param.empty() &&
                  ident_char(param.back())) {
                ptr_params.insert(read_ident_before(param, param.size()));
              }
              start = i + 1;
            }
          }
          if (ptr_params.empty()) continue;
          std::size_t bb = next_nonspace(s, rp + 1);
          while (bb < s.size() && s[bb] != '{' && s[bb] != ';' && s[bb] != ')') ++bb;
          if (bb >= s.size() || s[bb] != '{') continue;
          const std::size_t be = match_bracket(s, bb);
          if (be == std::string::npos) continue;
          // name < name / name > name between two pointer params.
          for (std::size_t i = bb + 1; i < be; ++i) {
            if (s[i] != '<' && s[i] != '>') continue;
            if (i + 1 < s.size() && (s[i + 1] == s[i] || s[i + 1] == '=')) continue;
            if (s[i] == '>' && s[i - 1] == '-') continue;
            const std::size_t le = prev_nonspace(s, i);
            if (le == std::string::npos || !ident_char(s[le])) continue;
            const std::string lhs = read_ident_before(s, le + 1);
            const std::size_t rb2 = next_nonspace(s, i + 1);
            if (rb2 >= s.size() || !ident_char(s[rb2])) continue;
            const std::string rhs = read_ident(s, rb2);
            if (ptr_params.count(lhs) && ptr_params.count(rhs)) {
              emit(ctx, ctx.line_of(i), Rule::kNoPointerKeyedOrder,
                   "sort comparator orders by raw pointer value ('" + lhs + " " + s[i] + " " +
                       rhs + "'): allocation addresses vary run to run; compare a stable key");
              break;
            }
          }
        }
      }
    }
  }

  // R5 ----------------------------------------------------------------------
  void rule_iostream(const FileCtx& ctx) {
    const std::string& path = ctx.src->path;
    if (!starts_with(path, "src/") || starts_with(path, "src/util/log.")) return;
    const std::string& s = ctx.code;
    for (std::string_view w :
         {std::string_view("cout"), std::string_view("cerr"), std::string_view("clog")}) {
      for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
           p = find_word(s, w, p + 1)) {
        if (qualifier_before(s, p) != Qual::kStd) continue;
        emit(ctx, ctx.line_of(p), Rule::kNoIostream,
             "'std::" + std::string(w) +
                 "' in src/: library code must stay silent on hot paths; route output through "
                 "util::log or the obs trace sink");
      }
    }
  }

  // R8 ----------------------------------------------------------------------
  /// Raw SIMD vector types are an implementation detail of the batch-hash
  /// kernels. Everywhere else consumes them through the dispatched API
  /// (crypto::siphash24_fixed_batch and friends), which keeps exactly one
  /// code path per layer — the property the byte-identical dispatch tests
  /// rely on. Intrinsics leaking into sim/ or detection/ would fork the
  /// hot path per ISA and silently void those tests.
  void rule_simd_containment(const FileCtx& ctx) {
    const std::string& path = ctx.src->path;
    if (starts_with(path, "src/crypto/")) return;
    const std::string& s = ctx.code;
    static constexpr std::string_view kVecTypes[] = {
        "__m128i", "__m128",  "__m128d", "__m256i", "__m256",
        "__m256d", "__m512i", "__m512",  "__m512d"};
    for (std::string_view w : kVecTypes) {
      for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
           p = find_word(s, w, p + 1)) {
        emit(ctx, ctx.line_of(p), Rule::kSimdContainment,
             "raw SIMD vector type '" + std::string(w) +
                 "' outside src/crypto/: consume the runtime-dispatched batch API "
                 "(crypto::siphash24_fixed_batch) instead of forking a per-ISA code path");
      }
    }
  }

  // R9 ----------------------------------------------------------------------
  /// All concurrency lives in the shard runtime (src/sim/shard*): its
  /// window barrier and fixed PoP partition are what make digests
  /// worker-count-invariant. A stray mutex or atomic anywhere else means
  /// shared mutable state the barrier proof never covered — flag every
  /// std-qualified threading primitive (and thread_local storage) outside
  /// that containment boundary.
  void rule_thread_containment(const FileCtx& ctx) {
    const std::string& path = ctx.src->path;
    if (starts_with(path, "src/sim/shard")) return;
    const std::string& s = ctx.code;
    static constexpr std::string_view kPrimitives[] = {
        "thread",         "jthread",
        "mutex",          "recursive_mutex",
        "timed_mutex",    "shared_mutex",
        "condition_variable", "condition_variable_any",
        "atomic",         "atomic_flag",
        "lock_guard",     "unique_lock",
        "scoped_lock",    "shared_lock",
        "future",         "promise",
        "async",          "packaged_task",
        "barrier",        "latch",
        "counting_semaphore", "binary_semaphore",
        "call_once",      "once_flag",
        "stop_token",     "stop_source"};
    for (std::string_view w : kPrimitives) {
      for (std::size_t p = find_word(s, w, 0); p != std::string::npos;
           p = find_word(s, w, p + 1)) {
        if (qualifier_before(s, p) != Qual::kStd) continue;
        emit(ctx, ctx.line_of(p), Rule::kThreadContainment,
             "threading primitive 'std::" + std::string(w) +
                 "' outside src/sim/shard*: concurrency is confined to the shard "
                 "runtime, whose barrier discipline keeps digests worker-invariant");
      }
    }
    for (std::size_t p = find_word(s, "thread_local", 0); p != std::string::npos;
         p = find_word(s, "thread_local", p + 1)) {
      if (qualifier_before(s, p) != Qual::kNone) continue;
      emit(ctx, ctx.line_of(p), Rule::kThreadContainment,
           "'thread_local' storage outside src/sim/shard*: per-thread state makes "
           "results depend on the worker count, breaking digest invariance");
    }
  }

  // R6 ----------------------------------------------------------------------
  /// R6 name predicate: structs ending in "Event", "Evidence", "Spec" or
  /// "Snapshot" (with a non-empty prefix) plus the evidence-layer verdict
  /// records. All of them end up serialized — trace sinks, signed control
  /// payloads, the conviction ledger, scenario recipes and checkpoint
  /// snapshots — so uninitialized bytes break byte-identical runs.
  static bool event_like(const std::string& name) {
    if (name != "Event" && ends_with(name, "Event")) return true;
    if (name != "Evidence" && ends_with(name, "Evidence")) return true;
    if (name != "Spec" && ends_with(name, "Spec")) return true;
    if (name != "Snapshot" && ends_with(name, "Snapshot")) return true;
    return name == "Suspicion" || name == "Conviction" || name == "Accusation";
  }

  /// Event-like structs are serialized aggregates: every field needs an
  /// initializer and brace-constructions must not be partial, or the
  /// uninitialized bytes/fields break byte-identical serialization.
  void rule_trace_event_init() {
    std::map<std::string, std::size_t> field_count;
    for (const FileCtx& ctx : ctxs_) {
      const std::string& s = ctx.code;
      for (std::size_t p = find_word(s, "struct", 0); p != std::string::npos;
           p = find_word(s, "struct", p + 1)) {
        const std::size_t np = next_nonspace(s, p + 6);
        if (np >= s.size() || !ident_char(s[np])) continue;
        const std::string name = read_ident(s, np);
        if (!event_like(name)) continue;
        std::size_t q = next_nonspace(s, np + name.size());
        if (q < s.size() && s[q] == ':') {  // base clause
          while (q < s.size() && s[q] != '{' && s[q] != ';') ++q;
        }
        if (q >= s.size() || s[q] != '{') continue;  // forward declaration
        const std::size_t body_end = match_bracket(s, q);
        if (body_end == std::string::npos) continue;
        std::size_t fields = 0;
        // Statements at depth 0 inside the body.
        int depth = 0, parens = 0;
        std::size_t stmt_begin = q + 1;
        for (std::size_t i = q + 1; i < body_end; ++i) {
          const char c = s[i];
          if (c == '{') ++depth;
          else if (c == '}') {
            --depth;
            // End of a function body not followed by ';' starts a fresh
            // statement; a '};' (enum / nested type / brace-init field)
            // keeps its statement text so the keyword filters see it.
            if (depth == 0 && (next_nonspace(s, i + 1) >= body_end || s[next_nonspace(s, i + 1)] != ';'))
              stmt_begin = i + 1;
          } else if (c == '(') ++parens;
          else if (c == ')') --parens;
          else if (c == ':' && depth == 0 && parens == 0) {
            const bool dbl = s[i - 1] == ':' || s[i + 1] == ':';
            if (!dbl) {
              // access specifier "public:" etc. — restart statement
              stmt_begin = i + 1;
            }
          } else if (c == ';' && depth == 0 && parens == 0) {
            const std::string stmt = trim(s.substr(stmt_begin, i - stmt_begin));
            stmt_begin = i + 1;
            if (stmt.empty()) continue;
            const std::string first = read_ident(stmt, 0);
            if (first == "using" || first == "typedef" || first == "static" ||
                first == "friend" || first == "struct" || first == "class" ||
                first == "enum" || first == "template" || first == "virtual" ||
                first == "explicit" || first == "operator" || first == "public" ||
                first == "private" || first == "protected")
              continue;
            if (stmt.find('(') != std::string::npos) continue;  // function decl
            ++fields;
            if (stmt.find('=') != std::string::npos || stmt.find('{') != std::string::npos)
              continue;  // brace-or-equal initializer present
            std::string decl = stmt;
            while (!decl.empty() && (decl.back() == ']' || decl.back() == ')')) {
              const std::size_t ob = decl.rfind(decl.back() == ']' ? '[' : '(');
              if (ob == std::string::npos) break;
              decl = trim(decl.substr(0, ob));
            }
            const std::string fname =
                decl.empty() || !ident_char(decl.back()) ? stmt : read_ident_before(decl, decl.size());
            emit(ctx, ctx.line_of(stmt_begin - 1), Rule::kTraceEventInit,
                 "field '" + fname + "' of event struct '" + name +
                     "' has no initializer: uninitialized bytes break byte-identical "
                     "serialization; add '{}' or a default value");
          }
        }
        auto [it, inserted] = field_count.emplace(name, fields);
        if (!inserted) it->second = std::max(it->second, fields);
      }
    }
    // Partial brace constructions: Name{a, b} with fewer initializers than
    // fields ({}/full init are fine — value-init is deterministic).
    for (const FileCtx& ctx : ctxs_) {
      const std::string& s = ctx.code;
      for (const auto& [name, fields] : field_count) {
        if (fields == 0) continue;
        for (std::size_t p = find_word(s, name, 0); p != std::string::npos;
             p = find_word(s, name, p + 1)) {
          const std::size_t before = prev_nonspace(s, p);
          if (before != std::string::npos && ident_char(s[before])) {
            const std::string prev = read_ident_before(s, before + 1);
            if (prev == "struct" || prev == "class" || prev == "enum") continue;
          }
          std::size_t q = next_nonspace(s, p + name.size());
          if (q < s.size() && ident_char(s[q])) {  // TraceEvent ev{...}
            const std::string var = read_ident(s, q);
            q = next_nonspace(s, q + var.size());
          }
          if (q >= s.size() || s[q] != '{') continue;
          const std::size_t close = match_bracket(s, q);
          if (close == std::string::npos) continue;
          const std::string inner = trim(s.substr(q + 1, close - q - 1));
          if (inner.empty()) continue;  // value-init: all fields zeroed
          std::size_t count = 1;
          int depth = 0;
          for (std::size_t i = q + 1; i < close; ++i) {
            if (s[i] == '{' || s[i] == '(' || s[i] == '[' || s[i] == '<') ++depth;
            else if (s[i] == '}' || s[i] == ')' || s[i] == ']' || s[i] == '>') --depth;
            else if (s[i] == ',' && depth == 0) ++count;
          }
          if (count >= fields) continue;
          emit(ctx, ctx.line_of(p), Rule::kTraceEventInit,
               "'" + name + "{...}' initializes " + std::to_string(count) + " of " +
                   std::to_string(fields) +
                   " fields; partial aggregate init of an event struct invites divergence — "
                   "initialize every field (or use {})");
        }
      }
    }
  }

  // R7 ----------------------------------------------------------------------
  static std::string module_of(const std::string& path) {
    if (!starts_with(path, "src/")) return {};
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) return {};
    return path.substr(4, slash - 4);
  }

  void rule_include_graph() {
    // Layering contract for src/ modules. A module may include itself and
    // anything in its allow-list; everything else is a violation. The table
    // mirrors DESIGN.md "Static analysis & determinism enforcement".
    static const std::map<std::string, std::set<std::string>> kAllowed = {
        {"util", {}},
        {"obs", {"util"}},
        {"crypto", {"util"}},
        {"sim", {"util", "obs"}},
        {"topo", {"util"}},
        {"routing", {"util", "obs", "crypto", "sim", "topo"}},
        {"traffic", {"util", "obs", "sim"}},
        // attacks/ sits ABOVE detection/ since the Byzantine control-plane
        // families forge signed detection payloads (keys + wire formats).
        {"attacks",
         {"util", "obs", "crypto", "sim", "routing", "traffic", "validation", "detection"}},
        {"validation", {"util", "crypto", "sim"}},
        {"detection",
         {"util", "obs", "crypto", "sim", "routing", "traffic", "validation"}},
        {"fatih",
         {"util", "obs", "crypto", "sim", "routing", "traffic", "validation", "detection",
          "attacks"}},
        // scenario/ materializes complete experiments, so it sees the whole
        // stack below it (but not fatih/, the CLI layer).
        {"scenario",
         {"util", "obs", "crypto", "sim", "topo", "routing", "traffic", "validation",
          "detection", "attacks"}},
    };
    std::map<std::string, const FileCtx*> by_path;
    for (const FileCtx& ctx : ctxs_) by_path[ctx.src->path] = &ctx;

    // Layering: every offending include line is reported (suppressible
    // individually).
    for (const FileCtx& ctx : ctxs_) {
      const std::string mod = module_of(ctx.src->path);
      if (mod.empty()) continue;
      auto allowed = kAllowed.find(mod);
      for (const auto& [line, target] : ctx.includes) {
        const std::size_t slash = target.find('/');
        if (slash == std::string::npos) continue;
        const std::string tmod = target.substr(0, slash);
        if (tmod == mod || !kAllowed.count(tmod)) continue;
        if (allowed != kAllowed.end() && allowed->second.count(tmod)) continue;
        if (allowed == kAllowed.end()) continue;  // unknown module: no contract
        emit(ctx, line, Rule::kNoIncludeCycles,
             "layering violation: " + mod + "/ must not include " + tmod + "/ (" + target +
                 "); the " + mod + "/ layer sits below " + tmod + "/ in the module DAG");
      }
    }

    // File-level include cycles (covers within-module cycles the layering
    // table cannot see). DFS over the resolved graph, files in sorted order
    // for deterministic reporting; each cycle reported once.
    std::map<std::string, std::vector<std::pair<std::size_t, std::string>>> edges;
    for (const FileCtx& ctx : ctxs_) {
      if (!starts_with(ctx.src->path, "src/")) continue;
      for (const auto& [line, target] : ctx.includes) {
        const std::string resolved = "src/" + target;
        if (by_path.count(resolved)) edges[ctx.src->path].emplace_back(line, resolved);
      }
    }
    std::set<std::string> done;
    std::set<std::set<std::string>> reported_cycles;
    for (const auto& [root, _] : edges) {
      if (done.count(root)) continue;
      // Iterative DFS with an explicit path for cycle reconstruction.
      std::vector<std::string> path_stack;
      std::set<std::string> on_stack;
      std::vector<std::pair<std::string, std::size_t>> work;  // node, next edge idx
      work.emplace_back(root, 0);
      path_stack.push_back(root);
      on_stack.insert(root);
      while (!work.empty()) {
        auto& [node, idx] = work.back();
        const auto eit = edges.find(node);
        if (eit == edges.end() || idx >= eit->second.size()) {
          done.insert(node);
          on_stack.erase(node);
          path_stack.pop_back();
          work.pop_back();
          continue;
        }
        const auto& [line, next] = eit->second[idx++];
        if (on_stack.count(next)) {
          // Cycle: next .. path_stack.back()
          auto begin = std::find(path_stack.begin(), path_stack.end(), next);
          std::set<std::string> members(begin, path_stack.end());
          if (reported_cycles.insert(members).second) {
            const std::string& first = *members.begin();
            std::string chain;
            for (auto it = begin; it != path_stack.end(); ++it) chain += *it + " -> ";
            chain += next;
            // Anchor the diagnostic on the lexicographically first member's
            // offending include line so suppression placement is stable.
            const FileCtx* fctx = by_path.at(node);
            std::size_t at_line = line;
            if (by_path.count(first)) {
              for (const auto& [l, t] : edges[first]) {
                if (members.count(t) || t == next) {
                  fctx = by_path.at(first);
                  at_line = l;
                  break;
                }
              }
            }
            emit(*fctx, at_line, Rule::kNoIncludeCycles, "include cycle: " + chain);
          }
          continue;
        }
        if (done.count(next)) continue;
        work.emplace_back(next, 0);
        path_stack.push_back(next);
        on_stack.insert(next);
      }
    }
  }

  // ----------------------------------------------- interprocedural (R10–R12)

  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  void build_symbols() {
    if (!opts_.cache_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opts_.cache_dir, ec);
    }
    std::vector<symgraph::FileSyms> syms;
    syms.reserve(ctxs_.size());
    for (const FileCtx& ctx : ctxs_) {
      if (!opts_.cache_dir.empty()) {
        syms.push_back(symgraph::extract_symbols_cached(ctx.src->path, ctx.src->content,
                                                        ctx.code, opts_.cache_dir));
      } else {
        syms.push_back(symgraph::extract_symbols(ctx.src->path, ctx.code));
      }
    }
    graph_ = symgraph::build_graph(syms);
    for (std::uint32_t i = 0; i < graph_.nodes.size(); ++i)
      nodes_by_file_[graph_.nodes[i].file].push_back(i);
    for (auto& [file, nodes] : nodes_by_file_)
      std::sort(nodes.begin(), nodes.end(), [this](std::uint32_t a, std::uint32_t b) {
        return graph_.nodes[a].fn.body_begin < graph_.nodes[b].fn.body_begin;
      });
  }

  /// Graph node whose body span contains `pos` in `path`, or kNoNode.
  [[nodiscard]] std::uint32_t node_at(const std::string& path, std::size_t pos) const {
    const auto it = nodes_by_file_.find(path);
    if (it == nodes_by_file_.end()) return kNoNode;
    for (const std::uint32_t idx : it->second) {
      const symgraph::SymFunction& fn = graph_.nodes[idx].fn;
      if (pos > fn.body_begin && pos < fn.body_end) return idx;
    }
    return kNoNode;
  }

  /// Transitive-callee closure with BFS-tree parents: everything the seed
  /// functions execute, plus enough bookkeeping to reconstruct one
  /// deterministic seed→node call chain per member.
  struct Closure {
    std::vector<char> in;
    std::vector<std::uint32_t> parent;       ///< BFS-tree caller, kNoNode at seeds
    std::vector<std::uint32_t> parent_line;  ///< call-site line in the parent's file
  };

  [[nodiscard]] Closure reach_callees(const std::vector<std::uint32_t>& seeds) const {
    Closure c;
    c.in.assign(graph_.nodes.size(), 0);
    c.parent.assign(graph_.nodes.size(), kNoNode);
    c.parent_line.assign(graph_.nodes.size(), 0);
    std::vector<std::uint32_t> queue;
    for (const std::uint32_t s : seeds) {
      if (!c.in[s]) {
        c.in[s] = 1;
        queue.push_back(s);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      for (const auto& [v, line] : graph_.nodes[u].callees) {
        if (c.in[v]) continue;
        c.in[v] = 1;
        c.parent[v] = u;
        c.parent_line[v] = line;
        queue.push_back(v);
      }
    }
    return c;
  }

  /// chain[0] = the flagged node at its source/allocation line; each later
  /// hop is the BFS-tree caller with its call-site line; the last hop is
  /// the seed (digest sink or hot-path root).
  [[nodiscard]] std::vector<ChainHop> chain_for(const Closure& c, std::uint32_t node,
                                                std::size_t site_line) const {
    std::vector<ChainHop> chain;
    chain.push_back({graph_.nodes[node].fn.qualified, graph_.nodes[node].file, site_line});
    std::uint32_t u = node;
    while (c.parent[u] != kNoNode) {
      const std::uint32_t p = c.parent[u];
      chain.push_back({graph_.nodes[p].fn.qualified, graph_.nodes[p].file,
                       static_cast<std::size_t>(c.parent_line[u])});
      u = p;
    }
    return chain;
  }

  /// Digest / wire-codec sink functions. Everything these call is "what a
  /// digest can see". `include_output` adds the serialized-artifact sinks
  /// (to_json/to_jsonl) — R10 guards those too, R11 does not (deterministic
  /// decimal formatting of doubles in output artifacts is allowed).
  [[nodiscard]] bool is_digest_sink(const symgraph::Graph::Node& n, bool include_output) const {
    if (!starts_with(n.file, "src/")) return false;
    static const std::set<std::string> kNames = {
        "state_fingerprint",  "pending_fingerprint", "state_hash",
        "digest",             "make_digest",         "encode",
        "decode",             "spec_hash",           "packet_fingerprint",
        "hash_batch",         "rng_fingerprint",     "detector_fingerprint"};
    if (kNames.count(n.fn.name)) return true;
    if (include_output && (n.fn.name == "to_json" || n.fn.name == "to_jsonl")) return true;
    const std::size_t cc = n.fn.qualified.rfind("::");
    return cc != std::string::npos && ends_with(n.fn.qualified.substr(0, cc), "Digest");
  }

  [[nodiscard]] std::vector<std::uint32_t> digest_seeds(bool include_output) const {
    std::vector<std::uint32_t> seeds;
    for (std::uint32_t i = 0; i < graph_.nodes.size(); ++i)
      if (is_digest_sink(graph_.nodes[i], include_output)) seeds.push_back(i);
    return seeds;
  }

  /// Forwarding/dispatch hot-path roots (R12): the per-packet code the
  /// PR 2 / PR 7 allocation-free wins measured.
  [[nodiscard]] std::vector<std::uint32_t> hot_path_roots() const {
    struct RootPat {
      std::string_view cls_suffix;
      std::string_view name_prefix;
    };
    static constexpr RootPat kRoots[] = {
        {"Simulator", "run"},
        {"Node", "forward"},
        {"Node", "receive"},
        {"Router", "receive"},
        {"Host", "receive"},
        {"Interface", "send"},
        {"Interface", "try_transmit"},
        {"Interface", "start_transmit"},
        {"Interface", "complete_propagation"},
        {"Queue", "enqueue"},
        {"Queue", "dequeue"},
        {"SummaryGenerator", "on_"},
        {"SummaryGenerator", "flush"},
        {"FingerprintHasher", "hash_batch"}};
    std::vector<std::uint32_t> seeds;
    for (std::uint32_t i = 0; i < graph_.nodes.size(); ++i) {
      const symgraph::Graph::Node& n = graph_.nodes[i];
      if (!starts_with(n.file, "src/")) continue;
      const std::size_t cc = n.fn.qualified.rfind("::");
      if (cc == std::string::npos) continue;
      const std::string cls = n.fn.qualified.substr(0, cc);
      for (const RootPat& r : kRoots) {
        if (ends_with(cls, r.cls_suffix) && starts_with(n.fn.name, r.name_prefix)) {
          seeds.push_back(i);
          break;
        }
      }
    }
    return seeds;
  }

  // R10 ---------------------------------------------------------------------
  void rule_determinism_taint() {
    const Closure cls = reach_callees(digest_seeds(/*include_output=*/true));
    for (const FileCtx& ctx : ctxs_) {
      const std::string& path = ctx.src->path;
      if (!starts_with(path, "src/")) continue;
      const std::string& s = ctx.code;
      struct SrcHit {
        std::size_t pos;
        std::string desc;
      };
      std::vector<SrcHit> hits;
      for (const TaintHit& h : wallclock_hits(s))
        hits.push_back({h.pos, "wall-clock read '" + h.name + "'"});
      for (const TaintHit& h : rng_hits(s)) {
        switch (h.kind) {
          case SourceKind::kRandCall:
            hits.push_back({h.pos, "ambient RNG call '" + h.name + "()'"});
            break;
          case SourceKind::kRngDevice:
            hits.push_back({h.pos, "nondeterministic engine '" + h.name + "'"});
            break;
          default:
            hits.push_back({h.pos, "default-seeded engine '" + h.name + "'"});
        }
      }
      for (const IterHit& h : unordered_iter_hits(s, tracked_by_stem_[stem_of(path)]))
        hits.push_back({h.pos, "unordered-container iteration over '" + h.name + "'"});
      for (const SrcHit& h : hits) {
        const std::uint32_t node = node_at(path, h.pos);
        if (node == kNoNode || !cls.in[node]) continue;
        std::vector<ChainHop> chain = chain_for(cls, node, ctx.line_of(h.pos));
        const std::string sink = chain.back().function;
        const std::size_t hops = chain.size() - 1;
        emit_chain(ctx, ctx.line_of(h.pos), Rule::kDeterminismTaint,
                   h.desc + " in '" + graph_.nodes[node].fn.qualified +
                       "' taints digest/codec sink '" + sink + "' (" + std::to_string(hops) +
                       "-hop call chain); every digest input must derive from seeded, "
                       "ordered state",
                   std::move(chain));
      }
    }
  }

  // R11 ---------------------------------------------------------------------
  void rule_float_free_digest() {
    const Closure cls = reach_callees(digest_seeds(/*include_output=*/false));
    for (const FileCtx& ctx : ctxs_) {
      const std::string& path = ctx.src->path;
      if (!starts_with(path, "src/")) continue;
      const std::string& s = ctx.code;
      const auto nit = nodes_by_file_.find(path);
      if (nit != nodes_by_file_.end()) {
        for (const std::uint32_t idx : nit->second) {
          if (!cls.in[idx]) continue;
          const symgraph::SymFunction& fn = graph_.nodes[idx].fn;
          // Scan from the signature line through the body end, so FP
          // parameter and return types count, not just local declarations.
          const std::size_t begin = ctx.line_start[fn.line - 1];
          for (std::string_view w : {std::string_view("float"), std::string_view("double")}) {
            for (std::size_t p = find_word(s, w, begin);
                 p != std::string::npos && p < fn.body_end; p = find_word(s, w, p + 1)) {
              std::vector<ChainHop> chain = chain_for(cls, idx, ctx.line_of(p));
              const std::string sink = chain.back().function;
              std::string msg = "'";
              msg += w;
              msg += "' in '" + fn.qualified + "', which digest/codec sink '" + sink +
                     "' reaches: FP rounding is ISA- and flag-dependent; keep "
                     "everything a digest can see in integer or fixed-point math";
              emit_chain(ctx, ctx.line_of(p), Rule::kFloatFreeDigest, std::move(msg),
                         std::move(chain));
            }
          }
        }
      }
      // Serialized event structs must be FP-free regardless of reachability:
      // their fields go straight through codecs and golden artifacts.
      for (std::size_t p = find_word(s, "struct", 0); p != std::string::npos;
           p = find_word(s, "struct", p + 1)) {
        const std::size_t np = next_nonspace(s, p + 6);
        if (np >= s.size() || !ident_char(s[np])) continue;
        const std::string name = read_ident(s, np);
        if (!event_like(name)) continue;
        std::size_t q = next_nonspace(s, np + name.size());
        if (q < s.size() && s[q] == ':') {  // base clause
          while (q < s.size() && s[q] != '{' && s[q] != ';') ++q;
        }
        if (q >= s.size() || s[q] != '{') continue;  // forward declaration
        const std::size_t body_end = match_bracket(s, q);
        if (body_end == std::string::npos) continue;
        for (std::string_view w : {std::string_view("float"), std::string_view("double")}) {
          for (std::size_t fp = find_word(s, w, q); fp != std::string::npos && fp < body_end;
               fp = find_word(s, w, fp + 1)) {
            const std::size_t after = next_nonspace(s, fp + w.size());
            std::string field;
            if (after < s.size() && ident_char(s[after])) field = read_ident(s, after);
            emit(ctx, ctx.line_of(fp), Rule::kFloatFreeDigest,
                 "serialized event struct '" + name + "' uses '" + std::string(w) + "'" +
                     (field.empty() ? std::string() : " ('" + field + "')") +
                     ": FP bytes are ISA- and flag-dependent; store a fixed-point or "
                     "integer encoding");
          }
        }
      }
    }
  }

  // R12 ---------------------------------------------------------------------
  [[nodiscard]] static std::vector<std::pair<std::size_t, std::string>> alloc_hits(
      const std::string& s, std::size_t begin, std::size_t end) {
    std::vector<std::pair<std::size_t, std::string>> out;
    for (std::size_t p = find_word(s, "new", begin); p != std::string::npos && p < end;
         p = find_word(s, "new", p + 1)) {
      const std::size_t before = prev_nonspace(s, p);
      if (before != std::string::npos && ident_char(s[before]) &&
          read_ident_before(s, before + 1) == "operator")
        continue;  // operator-new declaration, not an allocation
      std::size_t after = next_nonspace(s, p + 3);
      if (after >= end || (!ident_char(s[after]) && s[after] != '(' && s[after] != '['))
        continue;
      if (s[after] == '(') {
        // `new (buf) T` is placement new — construction into existing
        // storage, not a heap allocation. `new (std::nothrow) T` is the
        // one parenthesized form that still allocates.
        const std::size_t close = match_bracket(s, after);
        if (close == std::string::npos) continue;
        if (s.substr(after, close - after + 1).find("nothrow") == std::string::npos) continue;
        after = next_nonspace(s, close + 1);
        if (after >= end || !ident_char(s[after])) continue;
      }
      const std::string type = ident_char(s[after]) ? read_ident(s, after) : std::string();
      out.emplace_back(p, type.empty() ? std::string("'new'") : "'new " + type + "'");
    }
    for (std::string_view w :
         {std::string_view("make_unique"), std::string_view("make_shared")}) {
      for (std::size_t p = find_word(s, w, begin); p != std::string::npos && p < end;
           p = find_word(s, w, p + 1)) {
        const std::size_t after = next_nonspace(s, p + w.size());
        if (after >= end || (s[after] != '<' && s[after] != '(')) continue;
        out.emplace_back(p, "'std::" + std::string(w) + "'");
      }
    }
    // Owning std::string/std::vector value construction. References,
    // pointers and function declarators do not allocate; push_back/reserve
    // on a preallocated container is deliberately not flagged.
    for (std::string_view w : {std::string_view("string"), std::string_view("vector")}) {
      for (std::size_t p = find_word(s, w, begin); p != std::string::npos && p < end;
           p = find_word(s, w, p + 1)) {
        if (qualifier_before(s, p) != Qual::kStd) continue;
        std::size_t q = next_nonspace(s, p + w.size());
        if (q < end && s[q] == '<') {
          q = skip_template_args(s, q);
          if (q == std::string::npos || q > end) continue;
          q = next_nonspace(s, q);
        }
        if (q >= end || !ident_char(s[q])) continue;
        const std::string var = read_ident(s, q);
        const std::size_t after = next_nonspace(s, q + var.size());
        if (after < end && s[after] == '(') continue;  // function declarator
        out.emplace_back(p, "owning std::" + std::string(w) + " '" + var + "'");
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void rule_hot_path_allocation() {
    const Closure cls = reach_callees(hot_path_roots());
    for (const FileCtx& ctx : ctxs_) {
      const std::string& path = ctx.src->path;
      if (!starts_with(path, "src/")) continue;
      const auto nit = nodes_by_file_.find(path);
      if (nit == nodes_by_file_.end()) continue;
      for (const std::uint32_t idx : nit->second) {
        if (!cls.in[idx]) continue;
        const symgraph::SymFunction& fn = graph_.nodes[idx].fn;
        for (const auto& [pos, desc] : alloc_hits(ctx.code, fn.body_begin + 1, fn.body_end)) {
          std::vector<ChainHop> chain = chain_for(cls, idx, ctx.line_of(pos));
          const std::string root = chain.back().function;
          emit_chain(ctx, ctx.line_of(pos), Rule::kHotPathAllocation,
                     "heap allocation (" + desc + ") in '" + fn.qualified +
                         "', reachable from hot-path root '" + root +
                         "': the forwarding/dispatch path is allocation-free in steady "
                         "state; preallocate or use the pooled slabs",
                     std::move(chain));
        }
      }
    }
  }

  AnalyzeOptions opts_;
  const Config& cfg_;
  std::vector<FileCtx> ctxs_;
  Report report_;
  symgraph::Graph graph_;
  std::map<std::string, std::vector<std::uint32_t>> nodes_by_file_;
  std::map<std::string, std::set<std::string>> tracked_by_stem_;
};

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kNoWallclock: return "no-wallclock";
    case Rule::kNoAmbientRng: return "no-ambient-rng";
    case Rule::kNoUnorderedIteration: return "no-unordered-iteration";
    case Rule::kNoPointerKeyedOrder: return "no-pointer-keyed-order";
    case Rule::kNoIostream: return "no-iostream-in-hot-path";
    case Rule::kTraceEventInit: return "trace-event-init";
    case Rule::kNoIncludeCycles: return "no-include-cycles";
    case Rule::kSimdContainment: return "simd-containment";
    case Rule::kThreadContainment: return "thread-containment";
    case Rule::kDeterminismTaint: return "determinism-taint";
    case Rule::kFloatFreeDigest: return "float-free-digest";
    case Rule::kHotPathAllocation: return "hot-path-allocation";
    case Rule::kBareSuppression: return "bare-suppression";
  }
  return "?";
}

const char* rule_id(Rule r) {
  switch (r) {
    case Rule::kNoWallclock: return "R1";
    case Rule::kNoAmbientRng: return "R2";
    case Rule::kNoUnorderedIteration: return "R3";
    case Rule::kNoPointerKeyedOrder: return "R4";
    case Rule::kNoIostream: return "R5";
    case Rule::kTraceEventInit: return "R6";
    case Rule::kNoIncludeCycles: return "R7";
    case Rule::kSimdContainment: return "R8";
    case Rule::kThreadContainment: return "R9";
    case Rule::kDeterminismTaint: return "R10";
    case Rule::kFloatFreeDigest: return "R11";
    case Rule::kHotPathAllocation: return "R12";
    case Rule::kBareSuppression: return "R0";
  }
  return "?";
}

bool parse_rule(std::string_view s, Rule& out) {
  const std::string n = lower(s);
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    const Rule r = static_cast<Rule>(i);
    if (n == rule_name(r) || n == lower(rule_id(r))) {
      out = r;
      return true;
    }
  }
  return false;
}

Report lint_files(const std::vector<SourceFile>& files, const Config& cfg) {
  AnalyzeOptions opts;
  opts.cfg = cfg;
  return Linter(files, std::move(opts)).run();
}

AnalyzeResult analyze(const std::vector<SourceFile>& files, const AnalyzeOptions& opts) {
  Linter linter(files, opts);
  AnalyzeResult res;
  res.report = linter.run();
  res.graph = linter.take_graph();
  return res;
}

std::string strip_to_code(const std::string& content) {
  const SourceFile tmp{std::string(), content};
  return preprocess(tmp).code;
}

std::string to_json(const Report& r) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"tool\": \"fatih-lint\",\n";
  os << "  \"schema_version\": 2,\n";
  os << "  \"files_scanned\": " << r.files_scanned << ",\n";
  os << "  \"violation_count\": " << r.diagnostics.size() << ",\n";
  os << "  \"suppressed_count\": " << r.suppressed << ",\n";
  os << "  \"violations\": [";
  for (std::size_t i = 0; i < r.diagnostics.size(); ++i) {
    const Diagnostic& d = r.diagnostics[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << json_escape(d.file) << "\", \"line\": " << d.line
       << ", \"rule\": \"" << rule_name(d.rule) << "\", \"id\": \"" << rule_id(d.rule)
       << "\", \"message\": \"" << json_escape(d.message) << "\"";
    if (!d.chain.empty()) {
      // Evidence chain: hop 0 is the flagged site, each later hop the
      // caller one level up, the last hop the sink/root.
      os << ", \"chain\": [";
      for (std::size_t j = 0; j < d.chain.size(); ++j) {
        const ChainHop& h = d.chain[j];
        os << (j == 0 ? "" : ", ") << "{\"function\": \"" << json_escape(h.function)
           << "\", \"file\": \"" << json_escape(h.file) << "\", \"line\": " << h.line << "}";
      }
      os << "]";
    }
    os << "}";
  }
  os << (r.diagnostics.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
  return os.str();
}

std::string to_text(const Report& r) {
  std::ostringstream os;
  for (const Diagnostic& d : r.diagnostics) {
    os << d.file << ":" << d.line << ": [" << rule_name(d.rule) << "] " << d.message << "\n";
    for (std::size_t j = 0; j < d.chain.size(); ++j) {
      const ChainHop& h = d.chain[j];
      os << "    #" << j << " " << h.function << " (" << h.file << ":" << h.line << ")\n";
    }
  }
  os << "fatih-lint: " << r.diagnostics.size() << " violation(s), " << r.suppressed
     << " suppressed, " << r.files_scanned << " file(s) scanned\n";
  return os.str();
}

}  // namespace fatih::lint
