/**
 * @file
 * Benchmark program: runs one workload and writes its ledger (metrics
 * with units and sample counts, oracle outcome, provenance) as JSON.
 *
 *   perfbench --workload compile_fig11|serve_storm|sim_p1 --seed N
 *             --seconds S --trace 0|1 --workdir DIR --ledger FILE
 *             [--commit ID]
 *
 * Exit code 0 means the run completed; whether its outputs were correct
 * is in the ledger.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

std::string
jsonString(const std::string &raw)
{
    std::string out = "\"";
    for (char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            return usage("arguments are --key value pairs");
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char *required :
         {"workload", "seed", "seconds", "trace", "workdir", "ledger"})
        if (!args.count(required))
            return usage("missing a required argument");

    perfbench::RunConfig config;
    config.workload = args["workload"];
    config.seed = std::stoull(args["seed"]);
    config.seconds = std::stod(args["seconds"]);
    config.trace = args["trace"] == "1";
    config.workdir = args["workdir"];
    std::filesystem::create_directories(config.workdir);

    perfbench::RunResult result;
    try {
        if (config.workload == "compile_fig11")
            perfbench::runCompileFig11(config, result);
        else if (config.workload == "serve_storm")
            perfbench::runServeStorm(config, result);
        else if (config.workload == "sim_p1")
            perfbench::runSimP1(config, result);
        else
            return usage("unknown workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     config.workload.c_str(), e.what());
        return 1;
    }

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    perfbench::Ledger &L = result.ledger;
    L.add("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0,
          "MB", 1, "getrusage ru_maxrss of the benchmark process");
    L.add("fail_frac",
          result.attempted
              ? static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted)
              : 1.0,
          "ratio", result.attempted, "failed / attempted operations");

    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    std::ofstream out(args["ledger"]);
    out << "{\n  \"provenance\": {"
        << "\"commit\": " << jsonString(args.count("commit") ? args["commit"]
                                                             : "unknown")
        << ", \"host\": " << jsonString(host)
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"threads\": " << result.threads
        << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"workload\": " << jsonString(config.workload)
        << ", \"seed\": " << config.seed
        << ", \"seconds\": " << jsonNumber(config.seconds)
        << ", \"trace\": " << (config.trace ? 1 : 0) << "},\n"
        << "  \"correct\": " << (result.failed == 0 ? "true" : "false")
        << ",\n  \"attempted\": " << result.attempted
        << ",\n  \"failed\": " << result.failed
        << ",\n  \"output_digest\": " << jsonString(result.output_digest)
        << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < result.failures.size(); ++i)
        out << (i ? ", " : "") << jsonString(result.failures[i]);
    out << "],\n  \"metrics\": [\n";
    const auto &metrics = L.metrics();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const perfbench::Metric &m = metrics[i];
        out << "    {\"name\": " << jsonString(m.name)
            << ", \"value\": " << jsonNumber(m.value)
            << ", \"unit\": " << jsonString(m.unit)
            << ", \"samples\": " << m.samples
            << ", \"note\": " << jsonString(m.note) << "}"
            << (i + 1 < metrics.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    out.close();
    if (!out)
        return usage("cannot write the ledger");
    return 0;
}
