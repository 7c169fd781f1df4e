/**
 * @file
 * Shared formatting helpers for the figure benches.
 */

#ifndef MONATT_BENCH_BENCH_UTIL_H
#define MONATT_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace monatt::bench
{

/** Host wall-clock stopwatch. */
class WallTimer
{
  public:
    WallTimer() : start(std::chrono::steady_clock::now()) {}

    double
    elapsedSeconds() const
    {
        const auto d = std::chrono::steady_clock::now() - start;
        return std::chrono::duration<double>(d).count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/** Peak resident set size of this process in KiB (0 if unavailable). */
inline long
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024; // bytes on Darwin
#else
    return usage.ru_maxrss; // KiB on Linux
#endif
#else
    return 0;
#endif
}

/** Compiler identification string for the bench binary. */
inline const char *
compilerId()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * JSON object describing the run environment: host parallelism,
 * compiler, UTC timestamp and peak RSS. Appended to every bench JSON
 * so archived numbers are comparable.
 */
inline std::string
metadataJson()
{
    char ts[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    if (std::tm utc{}; gmtime_r(&now, &utc) != nullptr)
        std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%SZ", &utc);

    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"hardware_concurrency\": %u, "
                  "\"compiler\": \"%s\", "
                  "\"wall_clock_utc\": \"%s\", "
                  "\"peak_rss_kb\": %ld}",
                  std::thread::hardware_concurrency(), compilerId(), ts,
                  peakRssKb());
    return buf;
}

/** Print a banner naming the reproduced artifact. */
inline void
banner(const std::string &figure, const std::string &caption)
{
    std::printf("\n");
    std::printf("==========================================================="
                "=====================\n");
    std::printf("CloudMonatt reproduction | %s\n", figure.c_str());
    std::printf("%s\n", caption.c_str());
    std::printf("==========================================================="
                "=====================\n");
}

/** Print a row of right-aligned cells after a left label. */
inline void
row(const std::string &label, const std::vector<std::string> &cells,
    int labelWidth = 18, int cellWidth = 10)
{
    std::printf("%-*s", labelWidth, label.c_str());
    for (const std::string &cell : cells)
        std::printf(" %*s", cellWidth, cell.c_str());
    std::printf("\n");
}

/** Format helpers. */
inline std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

} // namespace monatt::bench

#endif // MONATT_BENCH_BENCH_UTIL_H
