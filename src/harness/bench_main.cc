#include "harness/bench_main.hh"

#include "harness/guard.hh"

namespace dss {
namespace harness {

int
benchMain(const std::string &bench_name, int argc, char **argv,
          unsigned flags, const std::function<int(BenchContext &)> &body)
{
    return guardedMain(bench_name, argc, argv, [&](int ac, char **av) {
        BenchOptions opts = BenchOptions::parse(
            ac, av, bench_name, flags | BenchOptions::kMachine);
        // Resolve --machine inside the guard: a bad preset name, an
        // unreadable file or a failed validation exits 3 with the
        // structured error JSON, like every other simulated error.
        sim::MachineSpec spec = sim::loadSpec(opts.machine);
        BenchContext ctx{opts, spec, ObsSession(bench_name, opts,
                                                spec.config)};
        return body(ctx);
    });
}

} // namespace harness
} // namespace dss
