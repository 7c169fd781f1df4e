/**
 * @file
 * Stage timing instrumentation (the role OpenStack Ceilometer plays in
 * the paper's evaluation, §7: "OpenStack Ceilometer is exploited for
 * timing measurements").
 *
 * A StageTimer records named, ordered stages against the simulated
 * clock; benches read the per-stage durations to print the Figure 9
 * and Figure 11 breakdowns.
 */

#ifndef MONATT_SIM_STAGE_TIMER_H
#define MONATT_SIM_STAGE_TIMER_H

#include <string>
#include <vector>

#include "common/time_types.h"

namespace monatt::sim
{

/** One completed stage. */
struct StageRecord
{
    std::string name;
    SimTime start;
    SimTime end;

    SimTime duration() const { return end - start; }
};

/** Accumulates named stage durations against a simulated clock. */
class StageTimer
{
  public:
    /** Begin a stage at simulated time `now`; implicitly ends any open
     * stage at the same instant. */
    void beginStage(const std::string &name, SimTime now);

    /** End the currently open stage at `now`. */
    void endStage(SimTime now);

    /** Record a complete stage in one call. */
    void record(const std::string &name, SimTime start, SimTime end);

    /** All completed stages, in order. */
    const std::vector<StageRecord> &stages() const { return done; }

    /** Duration of the named stage (sums duplicates); 0 if absent. */
    SimTime durationOf(const std::string &name) const;

    /** True when a stage is currently open. */
    bool hasOpenStage() const { return open; }

    /** Name of the open stage (valid only when hasOpenStage()). */
    const std::string &openStageName() const { return openName; }

    /** Start time of the open stage (valid only when hasOpenStage()). */
    SimTime openStageStart() const { return openStart; }

  private:
    std::vector<StageRecord> done;
    std::string openName;
    SimTime openStart = 0;
    bool open = false;
};

} // namespace monatt::sim

#endif // MONATT_SIM_STAGE_TIMER_H
