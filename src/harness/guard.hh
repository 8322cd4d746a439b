/**
 * @file
 * Graceful-failure layer for the bench binaries.
 *
 * guardedMain wraps every bench main body: a sim::SimError (simulated
 * deadlock) or any other exception escaping the body is turned into a
 * structured error JSON on stderr and exit code kErrorExitCode (3) —
 * never a core dump. Exit codes: 0 success, 1 output-file failure,
 * 2 bad flags (BenchOptions::parse, or a BadFlag thrown before the
 * bench prints), 3 simulator/DB error.
 *
 * retryOnAbort is the bounded retry path for db::QueryAbort: a query
 * that aborts (lock conflict, or a FaultPlan-injected abort) backs off
 * exponentially — in *simulated* cycles, recorded on the plan's
 * counters, not host sleeps — and re-runs, up to RetryPolicy::maxAttempts.
 */

#ifndef DSS_HARNESS_GUARD_HH
#define DSS_HARNESS_GUARD_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "db/common.hh"
#include "sim/addr.hh"
#include "sim/fault.hh"

namespace dss {
namespace obs {
class Registry;
} // namespace obs

namespace harness {

constexpr int kErrorExitCode = 3;
constexpr int kBadFlagExitCode = 2;

/**
 * A flag value that parses but that this bench cannot run with, such as
 * a --placement node its smallest machine lacks. guardedMain reports it
 * as error "bad_flag" and exits kBadFlagExitCode.
 */
class BadFlag : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

struct RetryPolicy
{
    unsigned maxAttempts = 8;           ///< total tries, first included
    sim::Cycles baseBackoffCycles = 64; ///< first retry's backoff
    sim::Cycles maxBackoffCycles = 4096;
};

/** Backoff before retry number @p attempt (0-based): base << attempt,
 * capped at maxBackoffCycles. */
sim::Cycles backoffFor(const RetryPolicy &policy, unsigned attempt);

/** retryOnAbort's logging helper (out-of-line to keep <ostream> out of
 * this header). */
void noteRetry(std::ostream *log, const db::QueryAbort &qa,
               unsigned attempt, sim::Cycles backoff);

/**
 * Retry/abort accounting, exportable to an obs::Registry so reports see
 * `harness.retry.{attempts,aborts}` instead of stderr-only notes.
 * `attempts` counts retries actually taken (backoffs), `aborts` every
 * db::QueryAbort caught — including the final one that propagates.
 */
struct RetryStats
{
    std::uint64_t attempts = 0;
    std::uint64_t aborts = 0;

    /** Export <prefix>.{attempts,aborts}; this must outlive @p reg's use. */
    void registerStats(obs::Registry &reg,
                       const std::string &prefix = "harness.retry") const;
};

/**
 * Run @p fn, retrying on db::QueryAbort with exponential backoff. Each
 * retry's backoff is recorded on @p plan (when given), noted on @p log
 * (when given) and counted on @p stats (when given). The final attempt's
 * abort propagates — retries are bounded, so a persistent conflict still
 * surfaces.
 */
template <typename Fn>
auto
retryOnAbort(const RetryPolicy &policy, Fn &&fn,
             sim::FaultPlan *plan = nullptr, std::ostream *log = nullptr,
             RetryStats *stats = nullptr)
    -> decltype(fn())
{
    for (unsigned attempt = 0;; ++attempt) {
        try {
            return fn();
        } catch (const db::QueryAbort &qa) {
            if (stats)
                ++stats->aborts;
            if (attempt + 1 >= policy.maxAttempts)
                throw;
            const sim::Cycles backoff = backoffFor(policy, attempt);
            if (stats)
                ++stats->attempts;
            if (plan)
                plan->recordRetry(backoff);
            noteRetry(log, qa, attempt, backoff);
        }
    }
}

/**
 * Run @p body(argc, argv) under the common catch-and-report guard.
 * Returns the body's exit code, or kErrorExitCode after printing a
 * structured error JSON to stderr for sim::SimError (with its machine
 * dump), db::QueryAbort, or any std::exception; kBadFlagExitCode after
 * the same JSON for a BadFlag.
 */
int guardedMain(const std::string &bench_name, int argc, char **argv,
                const std::function<int(int, char **)> &body);

} // namespace harness
} // namespace dss

#endif // DSS_HARNESS_GUARD_HH
