#include "grid/faultpoint.h"

#ifndef PRED_FAULTS_DISABLED

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

namespace pred::grid::fault {
inline namespace faults_on {

namespace {

enum class Action { Error, Epipe, Stall, Torn };

struct Rule {
  std::string point;
  std::uint64_t after = 0;  ///< hits passed before the rule can fire
  std::uint64_t count = 1;  ///< max firings (0 = unlimited)
  Action action = Action::Error;
  std::uint64_t arg = 0;  ///< stall: ms; torn: bytes (0 = half the record)
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<Rule> rules;
  std::string plan;
};

Registry& registry() {
  static Registry r;
  return r;
}

[[noreturn]] void badPlan(const std::string& what, const std::string& plan) {
  throw std::invalid_argument("fault plan: " + what + " in '" + plan + "'");
}

std::uint64_t planNumber(const std::string& token, const std::string& plan) {
  if (token.empty()) badPlan("empty number", plan);
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9' || v > (UINT64_MAX - 9) / 10) {
      badPlan("malformed number '" + token + "'", plan);
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

/// One ';'-separated plan entry -> one Rule.  Strict: exactly one action,
/// a registered point name, no unknown tokens.
Rule parseEntry(const std::string& entry, const std::string& plan) {
  Rule rule;
  std::size_t pos = 0;
  bool haveAction = false;
  int field = 0;
  while (pos <= entry.size()) {
    const std::size_t colon = entry.find(':', pos);
    const std::string tok =
        entry.substr(pos, colon == std::string::npos ? colon : colon - pos);
    pos = colon == std::string::npos ? entry.size() + 1 : colon + 1;
    if (field++ == 0) {
      bool known = false;
      for (const std::string& p : knownPoints()) known = known || p == tok;
      if (!known) badPlan("unknown fault point '" + tok + "'", plan);
      rule.point = tok;
      continue;
    }
    const std::size_t eq = tok.find('=');
    const std::string key = tok.substr(0, eq);
    const bool haveValue = eq != std::string::npos;
    const std::string value = haveValue ? tok.substr(eq + 1) : std::string();
    if (key == "after" && haveValue) {
      rule.after = planNumber(value, plan);
    } else if (key == "count" && haveValue) {
      rule.count = planNumber(value, plan);
    } else if (key == "error" || key == "epipe" || key == "stall" ||
               key == "torn") {
      if (haveAction) badPlan("more than one action", plan);
      haveAction = true;
      if (key == "error") {
        rule.action = Action::Error;
      } else if (key == "epipe") {
        rule.action = Action::Epipe;
      } else if (key == "stall") {
        rule.action = Action::Stall;
        if (!haveValue) badPlan("stall needs =MS", plan);
        rule.arg = planNumber(value, plan);
      } else {
        rule.action = Action::Torn;
        if (haveValue) rule.arg = planNumber(value, plan);
      }
      if (key != "stall" && key != "torn" && haveValue) {
        badPlan("action '" + key + "' takes no value", plan);
      }
    } else {
      badPlan("unknown token '" + tok + "'", plan);
    }
  }
  if (!haveAction) badPlan("entry '" + entry + "' has no action", plan);
  if (rule.action == Action::Torn && rule.point != "cache.journal") {
    badPlan("torn is only meaningful at cache.journal", plan);
  }
  return rule;
}

/// Whether `rule` fires on this hit; bumps the hit/fired counters.
bool shouldFire(Rule& rule) {
  const std::uint64_t hit = rule.hits++;
  if (hit < rule.after) return false;
  if (rule.count != 0 && rule.fired >= rule.count) return false;
  ++rule.fired;
  return true;
}

}  // namespace

namespace detail {

std::atomic<int> armedRules{0};

void checkSlow(const char* point) {
  std::uint64_t sleepMs = 0;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Rule& rule : r.rules) {
      if (rule.point != point || rule.action == Action::Torn) continue;
      if (!shouldFire(rule)) continue;
      switch (rule.action) {
        case Action::Error:
          throw Injected(rule.point, "error");
        case Action::Epipe:
          throw Injected(rule.point,
                         std::string("write: ") + std::strerror(EPIPE));
        case Action::Stall:
          sleepMs = rule.arg;
          break;
        case Action::Torn:
          break;
      }
    }
  }
  // Sleep outside the registry lock, so a stalling point cannot wedge
  // every other thread's fault checks.
  if (sleepMs > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
  }
}

std::optional<std::size_t> tornLimitSlow(const char* point,
                                         std::size_t fullSize) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (Rule& rule : r.rules) {
    if (rule.point != point || rule.action != Action::Torn) continue;
    if (!shouldFire(rule)) continue;
    const std::size_t torn =
        rule.arg > 0 ? static_cast<std::size_t>(rule.arg) : fullSize / 2;
    return std::min(torn, fullSize);
  }
  return std::nullopt;
}

}  // namespace detail

const std::vector<std::string>& knownPoints() {
  static const std::vector<std::string> points = {
      "net.read",      "net.write",     "proto.decode", "cache.load",
      "cache.store",   "cache.journal", "sched.dispatch",
      "worker.attach", "worker.frame",  "worker.exit"};
  return points;
}

void armPlan(const std::string& plan) {
  std::vector<Rule> rules;
  std::size_t pos = 0;
  while (pos < plan.size()) {
    const std::size_t semi = plan.find(';', pos);
    const std::string entry =
        plan.substr(pos, semi == std::string::npos ? semi : semi - pos);
    pos = semi == std::string::npos ? plan.size() : semi + 1;
    if (entry.empty()) continue;
    rules.push_back(parseEntry(entry, plan));
  }
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.rules = std::move(rules);
  r.plan = r.rules.empty() ? std::string() : plan;
  detail::armedRules.store(static_cast<int>(r.rules.size()),
                           std::memory_order_relaxed);
}

void disarm() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.rules.clear();
  r.plan.clear();
  detail::armedRules.store(0, std::memory_order_relaxed);
}

std::string planText() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.plan;
}

std::uint64_t hitCount(const char* point) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const Rule& rule : r.rules) {
    if (rule.point == point) total += rule.hits;
  }
  return total;
}

}  // namespace faults_on
}  // namespace pred::grid::fault

#endif  // PRED_FAULTS_DISABLED
