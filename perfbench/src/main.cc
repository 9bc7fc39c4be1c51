/**
 * @file
 * Entry point of the repository benchmark:
 *
 *   perfbench --workload production|lognormal --seed N --seconds S
 *             --trace 0|1 [--smoke] [--out-dir DIR]
 *
 * Prints a human-readable report, then one JSON line with the keys
 * correct, attempted, failed and metrics: the end-to-end metrics on an
 * untraced run, the per-layer metrics on a traced run (which also
 * writes its spans to DIR). Every workload reports every metric. Exits
 * 0 only when every output check passed.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "workloads.hh"

namespace {

int
usage(const char* why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload production|lognormal "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--out-dir DIR]\n";
    return 2;
}

bool
parseNumber(const char* text, double& out)
{
    char* end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

/**
 * The lognormal workload offers its fleet and engine rates this many
 * times the production ones. Its queries are smaller (mean about 83
 * against 140), but per-query costs (fan-out, network hops, the join)
 * do not shrink with size: at 1.2x the day's peak is still above the
 * tier's capacity and admission sheds about 2% of it, against 4% at
 * 1.3x and 15% at 1.5x, where goodput fell below the 1.3x figure. Of
 * the three, only 1.2x kept the fleet p99's spread across seeds under
 * a third of its bound.
 */
constexpr double kLognormalLoad = 1.2;

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        double number = 0.0;
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (!has_value) {
            return usage(("missing value after " + arg).c_str());
        } else if (arg == "--workload") {
            opt.workload = argv[++i];
        } else if (arg == "--out-dir") {
            opt.outDir = argv[++i];
        } else if (!parseNumber(argv[++i], number) || number < 0.0) {
            return usage(("bad number for " + arg).c_str());
        } else if (arg == "--seed") {
            opt.seed = static_cast<uint64_t>(number);
            have_seed = true;
        } else if (arg == "--seconds") {
            opt.seconds = number;
        } else if (arg == "--trace") {
            opt.trace = number != 0.0;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
    }
    if (!have_seed)
        return usage("--seed is required");

    if (opt.workload == "production") {
        opt.sizes = deeprecsys::SizeDistKind::Production;
    } else if (opt.workload == "lognormal") {
        opt.sizes = deeprecsys::SizeDistKind::Lognormal;
        opt.loadScale = kLognormalLoad;
    } else {
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    }

    perfbench::Report report;
    perfbench::runWorkload(opt, report);
    return report.finish();
}
