#pragma once
// faultpoint.h — Named, deterministic fault-injection points for the grid
// service.
//
// Every robustness claim the grid makes ("a dead worker is survived", "a
// torn journal recovers", "a stalled peer is dropped") needs a way to
// MAKE the bad thing happen on demand, deterministically, without
// recompiling.  This header is that substrate: a small fixed set of named
// fault points threaded through net / protocol / cache / scheduler, armed
// from a plan string that rides in a flag:
//
//   --fault-plan "net.write:after=3:epipe;cache.journal:torn"
//
// Plan grammar (entries separated by ';', tokens within an entry by ':'):
//
//   POINT[:after=N][:count=M]:ACTION
//
//   POINT   one of the registered names below — anything else is an
//           invalid_argument at arm time, so typos fail loudly
//   after=N pass the first N hits of the point untouched (default 0)
//   count=M fire on at most M hits after the `after` gate (default 1;
//           count=0 means every hit, forever)
//   ACTION  error        throw (std::runtime_error) at the point
//           epipe        like error, with EPIPE-flavored text — exercises
//                        the same handling as a vanished peer
//           stall=MS     sleep MS milliseconds, then proceed normally
//           torn[=K]     cache.journal only: persist only the first K
//                        bytes of the record (default: half), then fail —
//                        a crash mid-append, without the crash
//
// Registered points:
//
//   net.read       entry of net::readExact (socket/pipe reads)
//   net.write      entry of net::writeAll (socket/pipe writes)
//   proto.decode   frame-header validation (both fd and incremental paths)
//   cache.load     journal recovery scan startup
//   cache.store    result-cache journal append
//   cache.journal  the journal WRITE itself (torn-write injection)
//   sched.dispatch shard handoff to a worker (all execution modes)
//   worker.attach  server-side WorkerHello handshake of a dialing worker
//                  (dial-ins only; spawned children are not covered)
//   worker.frame   server-side frame traffic with any socket worker,
//                  spawned child or dial-in (both the ShardAssign send and
//                  the reply drain)
//   worker.exit    right after a shard is written to a spawned child: a
//                  firing error/epipe SIGKILLs that child with the lease in
//                  flight, so its death takes the real EOF -> requeue ->
//                  respawn path (`--fault-plan worker.exit:error`)
//
// Cost contract: when nothing is armed, a fault point is ONE relaxed
// atomic load and a predicted-not-taken branch — cheap enough to leave in
// release builds.  Defining PRED_FAULTS_DISABLED compiles the points out
// entirely (the same inline-namespace pattern as PRED_OBS_DISABLED in
// obs/span.h, so mixed-TU links stay ODR-clean); armPlan then THROWS, so
// a daemon started with --fault-plan on a faults-off build fails loudly
// instead of silently not injecting.
//
// Thread safety: armPlan/disarm are setup-path calls (mutex); triggered
// checks take the same mutex, which is fine because a firing fault point
// is never a hot path.  The disarmed fast path is lock-free.

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace pred::grid::fault {

/// What a firing `error`/`epipe`/`torn` action throws.  Carries the point
/// name so harnesses can report WHICH injected fault a failure traces to.
class Injected : public std::runtime_error {
 public:
  Injected(std::string point, const std::string& what)
      : std::runtime_error("fault injected at " + point + ": " + what),
        point_(std::move(point)) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

#if defined(PRED_FAULTS_DISABLED)
inline namespace faults_off {

inline bool anyArmed() { return false; }
inline void check(const char*) {}
inline std::optional<std::size_t> tornLimit(const char*, std::size_t) {
  return std::nullopt;
}
inline std::uint64_t hitCount(const char*) { return 0; }
inline std::string planText() { return {}; }
inline void disarm() {}
[[noreturn]] inline void armPlan(const std::string&) {
  throw std::runtime_error(
      "fault injection was compiled out (PRED_FAULTS_DISABLED); "
      "rebuild without it to use --fault-plan");
}

}  // namespace faults_off
#else
inline namespace faults_on {

namespace detail {
/// Nonzero while any plan is armed — the disarmed fast path reads only
/// this.
extern std::atomic<int> armedRules;
void checkSlow(const char* point);
std::optional<std::size_t> tornLimitSlow(const char* point,
                                         std::size_t fullSize);
}  // namespace detail

/// True when any fault plan is armed (one relaxed load).
inline bool anyArmed() {
  return detail::armedRules.load(std::memory_order_relaxed) != 0;
}

/// Arms `plan` (see the grammar above), REPLACING any armed plan.  An
/// empty plan disarms.  Throws std::invalid_argument on unknown points or
/// malformed grammar — nothing is armed on failure.
void armPlan(const std::string& plan);

/// Disarms everything and clears hit counters.
void disarm();

/// The canonical text of the armed plan ("" when disarmed).
std::string planText();

/// Hits observed at `point` by the armed plan's rules (0 when no rule
/// names it).  Counts every hit, fired or passed.
std::uint64_t hitCount(const char* point);

/// A fault point.  Sleeps on `stall`, throws Injected on `error`/`epipe`
/// when the point's rule triggers; otherwise returns immediately.
inline void check(const char* point) {
  if (!anyArmed()) return;
  detail::checkSlow(point);
}

/// The torn-write fault point: when a `torn` rule on `point` fires,
/// returns how many of `fullSize` bytes the caller should actually write
/// before failing the operation; std::nullopt otherwise.
inline std::optional<std::size_t> tornLimit(const char* point,
                                            std::size_t fullSize) {
  if (!anyArmed()) return std::nullopt;
  return detail::tornLimitSlow(point, fullSize);
}

/// The registered point names — what armPlan validates against.
const std::vector<std::string>& knownPoints();

}  // namespace faults_on
#endif

}  // namespace pred::grid::fault
