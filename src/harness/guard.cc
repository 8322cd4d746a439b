#include "harness/guard.hh"

#include <iostream>

#include "obs/json.hh"
#include "obs/registry.hh"
#include "sim/error.hh"

namespace dss {
namespace harness {

void
RetryStats::registerStats(obs::Registry &reg,
                          const std::string &prefix) const
{
    reg.addCounter(obs::metricName(prefix, "attempts"),
                   [this] { return attempts; });
    reg.addCounter(obs::metricName(prefix, "aborts"),
                   [this] { return aborts; });
}

sim::Cycles
backoffFor(const RetryPolicy &policy, unsigned attempt)
{
    sim::Cycles backoff = policy.baseBackoffCycles;
    for (unsigned i = 0; i < attempt && backoff < policy.maxBackoffCycles;
         ++i)
        backoff *= 2;
    return std::min(backoff, policy.maxBackoffCycles);
}

void
noteRetry(std::ostream *log, const db::QueryAbort &qa, unsigned attempt,
          sim::Cycles backoff)
{
    if (!log)
        return;
    *log << "query abort (" << qa.what() << "); retry " << (attempt + 1)
         << " after " << backoff << " simulated backoff cycles\n";
}

namespace {

const char *
abortReasonName(db::QueryAbort::Reason r)
{
    switch (r) {
      case db::QueryAbort::Reason::WriteConflict:
        return "write_conflict";
      case db::QueryAbort::Reason::ReadWriteConflict:
        return "read_write_conflict";
      case db::QueryAbort::Reason::Injected:
        return "injected";
    }
    return "?";
}

void
reportError(const std::string &bench, const char *kind, const char *what,
            const obs::Json *dump)
{
    obs::Json j = obs::Json::object();
    j["bench"] = bench;
    j["error"] = kind;
    j["what"] = what;
    if (dump)
        j["dump"] = *dump;
    j.dump(std::cerr, 2);
    std::cerr << '\n';
}

} // namespace

int
guardedMain(const std::string &bench_name, int argc, char **argv,
            const std::function<int(int, char **)> &body)
{
    try {
        return body(argc, argv);
    } catch (const BadFlag &e) {
        reportError(bench_name, "bad_flag", e.what(), nullptr);
        return kBadFlagExitCode;
    } catch (const sim::SimError &e) {
        reportError(bench_name, "sim_error", e.what(), &e.dump());
    } catch (const db::QueryAbort &e) {
        obs::Json dump = obs::Json::object();
        dump["reason"] = abortReasonName(e.reason);
        dump["xid"] = e.xid;
        dump["rel"] = e.rel;
        reportError(bench_name, "query_abort", e.what(), &dump);
    } catch (const std::exception &e) {
        reportError(bench_name, "exception", e.what(), nullptr);
    }
    return kErrorExitCode;
}

} // namespace harness
} // namespace dss
