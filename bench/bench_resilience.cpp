/**
 * @file
 * Resilience-runtime overhead and latency bench.
 *
 * Two questions the deadline-aware runtime must answer with numbers:
 *
 *  1. Watchdog overhead — how much slower is the Fig. 11 workload
 *     (ibmq_20_tokyo, IC/VIC) when every hot loop polls a RunGuard with
 *     a generous deadline, versus compiling unguarded?  The poll
 *     decimation in run::RunGuard targets < 2%; the table reports the
 *     measured percentage per method.
 *
 *  2. Cancellation latency — once requestCancel() fires mid-batch, how
 *     long until compileSeries() actually returns?  Cooperative
 *     cancellation bounds this by one poll interval of the innermost
 *     loop; the table reports the observed wall-clock latency over
 *     several cancel points.
 *
 * `--full` widens the instance pool and repetition counts; `--csv`
 * emits comma-separated rows.
 */

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/guard.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "hardware/devices.hpp"
#include "metrics/harness.hpp"
#include "qaoa/api.hpp"

using namespace qaoa;

int
main(int argc, char **argv)
{
    bench::BenchConfig config = bench::parseArgs(argc, argv);
    const int per_class = config.instances(2, 6);
    const int reps = config.instances(3, 7);

    const hw::CouplingMap map = hw::ibmqTokyo20();
    const hw::CalibrationData calib(map);
    const std::vector<graph::Graph> pool =
        metrics::fig11Instances(16, per_class, 7);

    Table overhead_table({"method", "unguarded ms", "guarded ms",
                          "overhead %", "within 2% bar"});
    for (core::Method method : {core::Method::Ic, core::Method::Vic}) {
        core::QaoaCompileOptions opts;
        opts.method = method;
        opts.calibration = &calib;
        opts.seed = 99;

        std::vector<double> plain_ms, guarded_ms;
        for (int rep = 0; rep < reps; ++rep) {
            Stopwatch plain_clock;
            metrics::compileSeries(pool, map, opts);
            plain_ms.push_back(plain_clock.milliseconds());

            // Generous deadline + stage budget: every guard branch is
            // exercised, nothing ever trips.
            const run::CancelToken token;
            const run::RunGuard guard(token,
                                      run::Deadline::afterMs(600000.0));
            core::QaoaCompileOptions guarded = opts;
            guarded.guard = &guard;
            guarded.stage_budget_ms = 600000.0;
            Stopwatch guarded_clock;
            metrics::compileSeries(pool, map, guarded);
            guarded_ms.push_back(guarded_clock.milliseconds());
        }
        const double plain = median(plain_ms);
        const double guarded = median(guarded_ms);
        const double overhead = (guarded - plain) / plain * 100.0;
        overhead_table.addRow({core::methodName(method),
                               Table::num(plain, 2),
                               Table::num(guarded, 2),
                               Table::num(overhead, 2),
                               overhead < 2.0 ? "yes" : "NO"});
    }
    bench::emit(config,
                "watchdog overhead — Fig. 11 workload on ibmq_20_tokyo, "
                "guarded vs unguarded (median of " +
                    std::to_string(reps) + " reps)",
                overhead_table);

    // Cancellation latency: fire requestCancel() from a helper thread at
    // staggered points inside the batch and time how long compileSeries
    // takes to unwind afterwards.
    Table latency_table(
        {"cancel after ms", "observed latency ms", "statuses"});
    core::QaoaCompileOptions opts;
    opts.method = core::Method::Ic;
    opts.calibration = &calib;
    opts.seed = 99;
    Stopwatch whole_clock;
    metrics::compileSeries(pool, map, opts);
    const double batch_ms = whole_clock.milliseconds();
    for (double fraction : {0.1, 0.3, 0.6}) {
        const double cancel_at_ms = batch_ms * fraction;
        const run::CancelToken token;
        const run::RunGuard guard(token, run::Deadline::never());
        core::QaoaCompileOptions guarded = opts;
        guarded.guard = &guard;
        double latency_ms = 0.0;
        std::thread killer([&] {
            Stopwatch arm;
            while (arm.milliseconds() < cancel_at_ms)
                std::this_thread::yield();
            token.requestCancel();
        });
        Stopwatch clock;
        const metrics::MetricSeries series =
            metrics::compileSeries(pool, map, guarded);
        const double total = clock.milliseconds();
        killer.join();
        latency_ms = total - cancel_at_ms;
        int ok = 0, cancelled = 0;
        for (transpiler::CompileStatus s : series.status) {
            if (s == transpiler::CompileStatus::Cancelled)
                ++cancelled;
            else
                ++ok;
        }
        latency_table.addRow(
            {Table::num(cancel_at_ms, 2), Table::num(latency_ms, 2),
             std::to_string(ok) + " done / " + std::to_string(cancelled) +
                 " cancelled"});
    }
    bench::emit(config,
                "cancellation latency — requestCancel() mid-batch, time "
                "until compileSeries unwinds (batch ~" +
                    std::to_string(static_cast<int>(batch_ms)) + " ms)",
                latency_table);
    std::cout << "latency is bounded by one poll interval of the "
                 "innermost guarded loop; a negative value means the "
                 "batch finished before the cancel point\n";
    return 0;
}
