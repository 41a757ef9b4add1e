#include "scenario/spec.hpp"

#include <charconv>

#include "routing/topologies.hpp"
#include "util/hash.hpp"

namespace fatih::scenario {

namespace {

constexpr std::string_view kHeader = "scenario v1";

void append_kv(std::string& out, const char* key, std::int64_t v) {
  out += ' ';
  out += key;
  out += '=';
  out += std::to_string(v);
}

void append_kv_u(std::string& out, const char* key, std::uint64_t v) {
  out += ' ';
  out += key;
  out += '=';
  out += std::to_string(v);
}

void append_list(std::string& out, const char* key, const std::vector<std::uint32_t>& xs) {
  out += ' ';
  out += key;
  out += '=';
  if (xs.empty()) {
    out += '-';
    return;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(xs[i]);
  }
}

/// One `key=value` token out of a statement line.
struct Token {
  std::string_view key;
  std::string_view value;
};

bool split_tokens(std::string_view rest, std::vector<Token>& out, std::string& error) {
  out.clear();
  std::size_t pos = 0;
  while (pos < rest.size()) {
    while (pos < rest.size() && rest[pos] == ' ') ++pos;
    if (pos >= rest.size()) break;
    const std::size_t end = rest.find(' ', pos);
    const std::string_view tok =
        rest.substr(pos, end == std::string_view::npos ? rest.size() - pos : end - pos);
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      error = "expected key=value, got '" + std::string(tok) + "'";
      return false;
    }
    out.push_back(Token{tok.substr(0, eq), tok.substr(eq + 1)});
    pos = end == std::string_view::npos ? rest.size() : end;
  }
  return true;
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  if (s.empty()) return false;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc{} && res.ptr == last;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto res = std::from_chars(first, last, out);
  return res.ec == std::errc{} && res.ptr == last;
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > 0xFFFFFFFFull) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_list(std::string_view s, std::vector<std::uint32_t>& out) {
  out.clear();
  if (s == "-") return true;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string_view item =
        s.substr(pos, comma == std::string_view::npos ? s.size() - pos : comma - pos);
    std::uint32_t v = 0;
    if (!parse_u32(item, v)) return false;
    out.push_back(v);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return true;
}

bool parse_bool(std::string_view s, bool& out) {
  if (s == "0") { out = false; return true; }
  if (s == "1") { out = true; return true; }
  return false;
}

template <typename E>
bool parse_enum(std::string_view s, E& out, const char* (*name)(E), E last) {
  for (std::uint8_t i = 0; i <= static_cast<std::uint8_t>(last); ++i) {
    const E e = static_cast<E>(i);
    if (s == name(e)) {
      out = e;
      return true;
    }
  }
  return false;
}

/// Number of routers the spec's topology builds: node ids run below it.
std::uint32_t router_count(const ScenarioSpec& spec) {
  switch (spec.topology) {
    case TopologyKind::kLine4:
    case TopologyKind::kChiBottleneck:
      return 4;
    case TopologyKind::kAbilene:
      return routing::kNewYork + 1;
    case TopologyKind::kGenerated:
      return spec.topo.routers;
  }
  return 0;
}

/// Empty when every node id the spec names is one of its topology's
/// routers; otherwise names the first statement that does not.
std::string check_node_ids(const ScenarioSpec& spec) {
  const std::uint32_t routers = router_count(spec);
  std::string error;
  const auto check = [&](const char* stmt, std::size_t index, const char* key,
                         util::NodeId id) {
    if (!error.empty() || id < routers) return;
    error = std::string(stmt) + " statement " + std::to_string(index + 1) + ": " + key + "=" +
            std::to_string(id) + " is outside the topology's " + std::to_string(routers) +
            " routers";
  };
  for (std::size_t i = 0; i < spec.flows.size(); ++i) {
    check("flow", i, "src", spec.flows[i].src);
    check("flow", i, "dst", spec.flows[i].dst);
  }
  for (std::size_t i = 0; i < spec.attacks.size(); ++i) {
    check("attack", i, "at", spec.attacks[i].at);
  }
  for (std::size_t i = 0; i < spec.churn.size(); ++i) {
    check("churn", i, "a", spec.churn[i].a);
    check("churn", i, "b", spec.churn[i].b);
  }
  for (const util::NodeId t : spec.detector.terminals) check("detector", 0, "terminals", t);
  return error;
}

}  // namespace

topo::TopoParams topo_params(const TopoSpec& t) {
  topo::TopoParams p;
  p.routers = t.routers;
  p.links = t.links;
  p.pops = t.pops;
  p.max_degree = t.max_degree;
  p.seed = t.seed;
  p.intra_delay_ns = t.intra_delay_ns;
  p.inter_delay_ns = t.inter_delay_ns;
  return p;
}

TopoSpec topo_spec(const topo::TopoParams& p) {
  TopoSpec t;
  t.routers = p.routers;
  t.links = p.links;
  t.pops = p.pops;
  t.max_degree = p.max_degree;
  t.seed = p.seed;
  t.intra_delay_ns = p.intra_delay_ns;
  t.inter_delay_ns = p.inter_delay_ns;
  return t;
}

const char* topology_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kLine4: return "line4";
    case TopologyKind::kAbilene: return "abilene";
    case TopologyKind::kChiBottleneck: return "chi_bottleneck";
    case TopologyKind::kGenerated: return "generated";
  }
  return "?";
}

const char* routing_name(RoutingKind k) {
  switch (k) {
    case RoutingKind::kStatic: return "static";
    case RoutingKind::kLinkState: return "link_state";
  }
  return "?";
}

const char* detector_name(DetectorKind k) {
  switch (k) {
    case DetectorKind::kPi2: return "pi2";
    case DetectorKind::kPik2: return "pik2";
    case DetectorKind::kChi: return "chi";
  }
  return "?";
}

const char* flow_name(FlowKind k) {
  switch (k) {
    case FlowKind::kCbr: return "cbr";
    case FlowKind::kOnOff: return "onoff";
    case FlowKind::kTcp: return "tcp";
  }
  return "?";
}

const char* attack_name(AttackKind k) {
  switch (k) {
    case AttackKind::kRateDrop: return "rate_drop";
    case AttackKind::kQueueGateDrop: return "queue_gate_drop";
    case AttackKind::kRedGateDrop: return "red_gate_drop";
    case AttackKind::kModify: return "modify";
    case AttackKind::kReorder: return "reorder";
  }
  return "?";
}

const char* churn_name(ChurnSpec::Kind k) {
  switch (k) {
    case ChurnSpec::Kind::kLinkDown: return "link_down";
    case ChurnSpec::Kind::kLinkUp: return "link_up";
    case ChurnSpec::Kind::kRouterCrash: return "router_crash";
    case ChurnSpec::Kind::kRouterRestart: return "router_restart";
  }
  return "?";
}

std::string encode(const ScenarioSpec& spec) {
  std::string out(kHeader);
  out += '\n';
  out += "name ";
  out += spec.name;
  out += '\n';
  out += "topology ";
  out += topology_name(spec.topology);
  out += '\n';
  out += "seed " + std::to_string(spec.seed) + '\n';
  out += "duration_ns " + std::to_string(spec.duration_ns) + '\n';

  // These statements are new in codec terms and emitted only when they
  // carry non-default content, so pre-existing specs encode byte-for-byte
  // as before (stable spec_hash across the corpus).
  if (spec.topology == TopologyKind::kGenerated) {
    const TopoSpec& t = spec.topo;
    out += "topo";
    append_kv_u(out, "routers", t.routers);
    append_kv_u(out, "links", t.links);
    append_kv_u(out, "pops", t.pops);
    append_kv_u(out, "max_degree", t.max_degree);
    append_kv_u(out, "seed", t.seed);
    append_kv(out, "intra_delay_ns", t.intra_delay_ns);
    append_kv(out, "inter_delay_ns", t.inter_delay_ns);
    out += '\n';
  }
  if (spec.shards > 0) {
    out += "engine";
    append_kv_u(out, "shards", spec.shards);
    out += '\n';
  }
  if (spec.routing != RoutingKind::kStatic) {
    out += "routing ";
    out += routing_name(spec.routing);
    out += '\n';
  }

  const DetectorSpec& d = spec.detector;
  out += "detector ";
  out += detector_name(d.kind);
  append_kv(out, "epoch_ns", d.epoch_ns);
  append_kv(out, "tau_ns", d.tau_ns);
  append_kv(out, "rounds", d.rounds);
  append_kv_u(out, "k", d.k);
  append_kv(out, "learning_rounds", d.learning_rounds);
  append_kv(out, "reliable", d.reliable ? 1 : 0);
  append_kv(out, "red", d.red ? 1 : 0);
  append_list(out, "terminals", d.terminals);
  out += '\n';

  for (const FlowSpec& f : spec.flows) {
    out += "flow ";
    out += flow_name(f.kind);
    append_kv_u(out, "src", f.src);
    append_kv_u(out, "dst", f.dst);
    append_kv_u(out, "flow_id", f.flow_id);
    append_kv(out, "rate_mpps", f.rate_mpps);
    append_kv_u(out, "payload_bytes", f.payload_bytes);
    append_kv(out, "start_ns", f.start_ns);
    append_kv(out, "stop_ns", f.stop_ns);
    append_kv(out, "mean_on_ns", f.mean_on_ns);
    append_kv(out, "mean_off_ns", f.mean_off_ns);
    out += '\n';
  }
  for (const AttackSpec& a : spec.attacks) {
    out += "attack ";
    out += attack_name(a.kind);
    append_kv_u(out, "at", a.at);
    append_list(out, "flow_ids", a.flow_ids);
    append_kv(out, "fraction_ppm", a.fraction_ppm);
    append_kv(out, "threshold_ppm", a.threshold_ppm);
    append_kv(out, "threshold_bytes", a.threshold_bytes);
    append_kv(out, "delay_ns", a.delay_ns);
    append_kv(out, "active_from_ns", a.active_from_ns);
    append_kv_u(out, "seed", a.seed);
    out += '\n';
  }
  for (const ChurnSpec& c : spec.churn) {
    out += "churn ";
    out += churn_name(c.kind);
    append_kv(out, "at_ns", c.at_ns);
    append_kv_u(out, "a", c.a);
    append_kv_u(out, "b", c.b);
    out += '\n';
  }
  return out;
}

bool decode(const std::string& text, ScenarioSpec& out, std::string& error) {
  out = ScenarioSpec{};
  error.clear();
  std::size_t line_no = 0;
  std::size_t pos = 0;
  bool saw_header = false;
  std::vector<Token> toks;

  auto fail = [&](const std::string& why) {
    error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };

  while (pos <= text.size()) {
    if (pos == text.size()) break;
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line(text.data() + pos,
                                (eol == std::string::npos ? text.size() : eol) - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != kHeader) return fail("expected '" + std::string(kHeader) + "' header");
      saw_header = true;
      continue;
    }
    const std::size_t sp = line.find(' ');
    const std::string_view stmt = line.substr(0, sp);
    const std::string_view rest = sp == std::string_view::npos ? std::string_view{}
                                                               : line.substr(sp + 1);
    if (stmt == "name") {
      out.name = std::string(rest);
    } else if (stmt == "topology") {
      if (!parse_enum(rest, out.topology, topology_name, TopologyKind::kGenerated))
        return fail("unknown topology '" + std::string(rest) + "'");
    } else if (stmt == "seed") {
      if (!parse_u64(rest, out.seed)) return fail("bad seed");
    } else if (stmt == "duration_ns") {
      if (!parse_i64(rest, out.duration_ns)) return fail("bad duration_ns");
    } else if (stmt == "topo") {
      TopoSpec& t = out.topo;
      if (!split_tokens(rest, toks, error)) return fail(error);
      for (const Token& tk : toks) {
        bool ok = true;
        if (tk.key == "routers") ok = parse_u32(tk.value, t.routers);
        else if (tk.key == "links") ok = parse_u32(tk.value, t.links);
        else if (tk.key == "pops") ok = parse_u32(tk.value, t.pops);
        else if (tk.key == "max_degree") ok = parse_u32(tk.value, t.max_degree);
        else if (tk.key == "seed") ok = parse_u64(tk.value, t.seed);
        else if (tk.key == "intra_delay_ns") ok = parse_i64(tk.value, t.intra_delay_ns);
        else if (tk.key == "inter_delay_ns") ok = parse_i64(tk.value, t.inter_delay_ns);
        else return fail("unknown topo key '" + std::string(tk.key) + "'");
        if (!ok) return fail("bad topo value for '" + std::string(tk.key) + "'");
      }
    } else if (stmt == "engine") {
      if (!split_tokens(rest, toks, error)) return fail(error);
      for (const Token& tk : toks) {
        bool ok = true;
        if (tk.key == "shards") ok = parse_u32(tk.value, out.shards);
        else return fail("unknown engine key '" + std::string(tk.key) + "'");
        if (!ok) return fail("bad engine value for '" + std::string(tk.key) + "'");
      }
    } else if (stmt == "routing") {
      if (!parse_enum(rest, out.routing, routing_name, RoutingKind::kLinkState))
        return fail("unknown routing '" + std::string(rest) + "'");
    } else if (stmt == "detector") {
      const std::size_t sp2 = rest.find(' ');
      const std::string_view kind = rest.substr(0, sp2);
      DetectorSpec& d = out.detector;
      if (!parse_enum(kind, d.kind, detector_name, DetectorKind::kChi))
        return fail("unknown detector '" + std::string(kind) + "'");
      if (!split_tokens(sp2 == std::string_view::npos ? std::string_view{} : rest.substr(sp2 + 1),
                        toks, error))
        return fail(error);
      for (const Token& t : toks) {
        bool ok = true;
        if (t.key == "epoch_ns") ok = parse_i64(t.value, d.epoch_ns);
        else if (t.key == "tau_ns") ok = parse_i64(t.value, d.tau_ns);
        else if (t.key == "rounds") ok = parse_i64(t.value, d.rounds);
        else if (t.key == "k") ok = parse_u32(t.value, d.k);
        else if (t.key == "learning_rounds") ok = parse_i64(t.value, d.learning_rounds);
        else if (t.key == "reliable") ok = parse_bool(t.value, d.reliable);
        else if (t.key == "red") ok = parse_bool(t.value, d.red);
        else if (t.key == "terminals") ok = parse_list(t.value, d.terminals);
        else return fail("unknown detector key '" + std::string(t.key) + "'");
        if (!ok) return fail("bad detector value for '" + std::string(t.key) + "'");
      }
    } else if (stmt == "flow") {
      const std::size_t sp2 = rest.find(' ');
      FlowSpec f;
      if (!parse_enum(rest.substr(0, sp2), f.kind, flow_name, FlowKind::kTcp))
        return fail("unknown flow kind");
      if (!split_tokens(sp2 == std::string_view::npos ? std::string_view{} : rest.substr(sp2 + 1),
                        toks, error))
        return fail(error);
      for (const Token& t : toks) {
        bool ok = true;
        if (t.key == "src") ok = parse_u32(t.value, f.src);
        else if (t.key == "dst") ok = parse_u32(t.value, f.dst);
        else if (t.key == "flow_id") ok = parse_u32(t.value, f.flow_id);
        else if (t.key == "rate_mpps") ok = parse_i64(t.value, f.rate_mpps);
        else if (t.key == "payload_bytes") ok = parse_u32(t.value, f.payload_bytes);
        else if (t.key == "start_ns") ok = parse_i64(t.value, f.start_ns);
        else if (t.key == "stop_ns") ok = parse_i64(t.value, f.stop_ns);
        else if (t.key == "mean_on_ns") ok = parse_i64(t.value, f.mean_on_ns);
        else if (t.key == "mean_off_ns") ok = parse_i64(t.value, f.mean_off_ns);
        else return fail("unknown flow key '" + std::string(t.key) + "'");
        if (!ok) return fail("bad flow value for '" + std::string(t.key) + "'");
      }
      out.flows.push_back(f);
    } else if (stmt == "attack") {
      const std::size_t sp2 = rest.find(' ');
      AttackSpec a;
      if (!parse_enum(rest.substr(0, sp2), a.kind, attack_name, AttackKind::kReorder))
        return fail("unknown attack kind");
      if (!split_tokens(sp2 == std::string_view::npos ? std::string_view{} : rest.substr(sp2 + 1),
                        toks, error))
        return fail(error);
      for (const Token& t : toks) {
        bool ok = true;
        if (t.key == "at") ok = parse_u32(t.value, a.at);
        else if (t.key == "flow_ids") ok = parse_list(t.value, a.flow_ids);
        else if (t.key == "fraction_ppm") ok = parse_i64(t.value, a.fraction_ppm);
        else if (t.key == "threshold_ppm") ok = parse_i64(t.value, a.threshold_ppm);
        else if (t.key == "threshold_bytes") ok = parse_i64(t.value, a.threshold_bytes);
        else if (t.key == "delay_ns") ok = parse_i64(t.value, a.delay_ns);
        else if (t.key == "active_from_ns") ok = parse_i64(t.value, a.active_from_ns);
        else if (t.key == "seed") ok = parse_u64(t.value, a.seed);
        else return fail("unknown attack key '" + std::string(t.key) + "'");
        if (!ok) return fail("bad attack value for '" + std::string(t.key) + "'");
      }
      out.attacks.push_back(a);
    } else if (stmt == "churn") {
      const std::size_t sp2 = rest.find(' ');
      ChurnSpec c;
      if (!parse_enum(rest.substr(0, sp2), c.kind, churn_name, ChurnSpec::Kind::kRouterRestart))
        return fail("unknown churn kind");
      if (!split_tokens(sp2 == std::string_view::npos ? std::string_view{} : rest.substr(sp2 + 1),
                        toks, error))
        return fail(error);
      for (const Token& t : toks) {
        bool ok = true;
        if (t.key == "at_ns") ok = parse_i64(t.value, c.at_ns);
        else if (t.key == "a") ok = parse_u32(t.value, c.a);
        else if (t.key == "b") ok = parse_u32(t.value, c.b);
        else return fail("unknown churn key '" + std::string(t.key) + "'");
        if (!ok) return fail("bad churn value for '" + std::string(t.key) + "'");
      }
      out.churn.push_back(c);
    } else {
      return fail("unknown statement '" + std::string(stmt) + "'");
    }
  }
  if (!saw_header) {
    error = "empty input: missing '" + std::string(kHeader) + "' header";
    return false;
  }
  if (out.name.empty()) {
    error = "spec has no name";
    return false;
  }
  error = check_node_ids(out);
  return error.empty();
}

std::uint64_t spec_hash(const ScenarioSpec& spec) {
  const std::string text = encode(spec);
  return util::fnv1a64(text.data(), text.size());
}

}  // namespace fatih::scenario
