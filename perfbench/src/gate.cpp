#include "gate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "detection/spec.hpp"

namespace perfbench {

namespace {

namespace det = fatih::detection;
using fatih::util::NodeId;
using fatih::util::SimTime;

bool parse_node(std::string_view s, NodeId& out) {
  if (s.size() < 2 || s[0] != 'r') return false;
  char* end = nullptr;
  const std::string digits(s.substr(1));
  const unsigned long v = std::strtoul(digits.c_str(), &end, 10);
  if (end == digits.c_str() || *end != '\0') return false;
  out = static_cast<NodeId>(v);
  return true;
}

bool parse_time(std::string_view s, SimTime& out) {
  if (s.empty() || s.back() != 's') return false;
  const std::string num(s.substr(0, s.size() - 1));
  char* end = nullptr;
  const double secs = std::strtod(num.c_str(), &end);
  if (end == num.c_str() || *end != '\0') return false;
  // Rendered with six decimals: whole microseconds.
  out = SimTime::from_nanos(std::llround(secs * 1e6) * 1000);
  return true;
}

/// Splits off the text before `sep`, advancing `rest` past it.
bool take(std::string_view& rest, std::string_view sep, std::string_view& head) {
  const auto at = rest.find(sep);
  if (at == std::string_view::npos) return false;
  head = rest.substr(0, at);
  rest.remove_prefix(at + sep.size());
  return true;
}

det::GroundTruth truth_of(const Workload& w) {
  det::GroundTruth truth;
  truth.mark_traffic_faulty(w.attacker, SimTime::from_nanos(w.onset_ns));
  return truth;
}

det::RoundClock clock_of(const Workload& w) {
  return {SimTime::from_nanos(w.spec.detector.epoch_ns),
          fatih::util::Duration::nanos(w.spec.detector.tau_ns)};
}

}  // namespace

bool parse_suspicion(const std::string& text, det::Suspicion& out) {
  // "%s suspects %s during [%s,%s) cause=%s conf=%.4f"
  std::string_view rest(text);
  std::string_view reporter, segment, begin, end, cause;
  if (!take(rest, " suspects <", reporter) || !take(rest, "> during [", segment) ||
      !take(rest, ",", begin) || !take(rest, ") cause=", end) || !take(rest, " conf=", cause)) {
    return false;
  }
  det::Suspicion s;
  if (!parse_node(reporter, s.reporter)) return false;
  std::vector<NodeId> nodes;
  for (std::string_view node; !segment.empty();) {
    if (!take(segment, ",", node)) {
      node = segment;
      segment = {};
    }
    NodeId id = 0;
    if (!parse_node(node, id)) return false;
    nodes.push_back(id);
  }
  s.segment = fatih::routing::PathSegment(std::move(nodes));
  if (!parse_time(begin, s.interval.begin) || !parse_time(end, s.interval.end)) return false;
  s.cause = std::string(cause);
  const std::string conf(rest);
  char* conf_end = nullptr;
  s.confidence = std::strtod(conf.c_str(), &conf_end);
  if (conf_end == conf.c_str() || *conf_end != '\0') return false;
  if (s.to_string() != text) return false;
  out = std::move(s);
  return true;
}

GateReport check_run(const Workload& w, const std::vector<std::string>& suspicions) {
  GateReport report;
  std::vector<det::Suspicion> parsed;
  for (const std::string& text : suspicions) {
    det::Suspicion s;
    if (!parse_suspicion(text, s)) {
      report.error = "unparseable suspicion: " + text;
      return report;
    }
    parsed.push_back(std::move(s));
  }
  report.suspicions = parsed.size();

  const det::GroundTruth truth = truth_of(w);
  const det::SpecReport acc = det::check_accuracy(parsed, truth, w.precision);
  report.false_suspicions = acc.violations + acc.oversized;
  report.complete = det::check_completeness_for(parsed, w.attacker);

  const det::RoundClock clock = clock_of(w);
  const std::int64_t onset_round = clock.round_of(SimTime::from_nanos(w.onset_ns));
  std::int64_t first = -1;
  for (const det::Suspicion& s : parsed) {
    if (s.reporter == w.attacker || !s.segment.contains(w.attacker)) continue;
    const std::int64_t round = clock.round_of(s.interval.begin);
    if (first < 0 || round < first) first = round;
  }
  if (first >= 0) report.detect_delay_rounds = first - onset_round + 1;

  if (!acc.accuracy_holds()) {
    report.error = "a-Accuracy broken: " + std::to_string(acc.violations) + " false, " +
                   std::to_string(acc.oversized) + " oversized suspicions";
  } else if (!report.complete) {
    report.error = "a-Completeness broken: attacker r" + std::to_string(w.attacker) +
                   " never suspected";
  } else if (report.detect_delay_rounds < 1) {
    report.error = "attacker suspected before the attack began";
  }
  return report;
}

std::string gate_self_test(const Workload& w, const std::vector<std::string>& passing) {
  if (!check_run(w, passing).ok()) return "the uncorrupted suspicion set already fails";

  // A correct router accuses a segment of two correct routers in the round
  // before the attack starts.
  std::vector<NodeId> innocent;
  for (NodeId n : w.terminals) {
    if (n != w.attacker) innocent.push_back(n);
  }
  for (NodeId n = 0; innocent.size() < 2; ++n) {
    if (n != w.attacker && std::find(innocent.begin(), innocent.end(), n) == innocent.end()) {
      innocent.push_back(n);
    }
  }
  const det::RoundClock clock = clock_of(w);
  const std::int64_t onset_round = clock.round_of(SimTime::from_nanos(w.onset_ns));
  det::Suspicion fake;
  fake.reporter = innocent[0];
  fake.segment = fatih::routing::PathSegment{innocent[0], innocent[1]};
  fake.interval = clock.interval_of(std::max<std::int64_t>(0, onset_round - 1));
  fake.cause = "injected";
  std::vector<std::string> with_false = passing;
  with_false.push_back(fake.to_string());
  if (check_run(w, with_false).ok()) return "an injected false suspicion passed the gate";

  std::vector<std::string> missing;
  for (const std::string& text : passing) {
    det::Suspicion s;
    if (parse_suspicion(text, s) && !s.segment.contains(w.attacker)) missing.push_back(text);
  }
  if (check_run(w, missing).ok()) return "a missing detection passed the gate";
  return {};
}

}  // namespace perfbench
